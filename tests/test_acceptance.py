"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from functools import lru_cache

import numpy as np
import pytest

from pluriflow import almostabelian as aa
from pluriflow import engine
from pluriflow import nilflow as nf
from pluriflow import verification
from pluriflow.brackets import (
    LieBracket,
    bracket_inner_product,
    bracket_norm,
    infinitesimal_action,
)
from pluriflow.catalog import get_entry
from pluriflow.hermitian import skt_residual
from pluriflow.sampling import (
    random_generic_almost_abelian,
    random_skt_almost_abelian,
    random_two_step_skt,
)


def _report(num, ok, detail):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


# --- criterion 1: the two SKT criteria agree on 1000 random instances -----


def test_criterion_1_skt_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    dims = (2, 4, 6, 8)
    n_checked = 0
    worst_skt_res = 0.0
    for i in range(1000):
        m = dims[i % 4]
        if i % 2 == 0:
            data = random_skt_almost_abelian(rng, m=m, allow_zero_a=(i % 8 == 0))
            expect = True
        else:
            data = random_generic_almost_abelian(rng, m=m)
            expect = False
        verdict = aa.skt_verdict(data)
        assert verdict.is_skt == expect, f"instance {i}: verdict {verdict}"
        # closed-3-form oracle: d(c) vanishes exactly when the criteria hold
        mu = aa.build_bracket(data)
        res = skt_residual(mu, aa.hermitian_frame(data))
        scale = max(1.0, abs(data.a), float(np.linalg.norm(data.A)))
        assert (res < 1e-9 * scale**3) == verdict.is_skt
        if expect:
            worst_skt_res = max(worst_skt_res, verdict.residual_lemma)
        n_checked += 1
    elapsed = time.perf_counter() - t0
    ok = n_checked == 1000 and elapsed < 10.0
    _report(1, ok, f"{n_checked} instances, max SKT residual {worst_skt_res:.2e}, {elapsed:.2f}s")


# --- criterion 2: finite extinction time vs immortality on one group ------


@lru_cache(maxsize=None)
def _shrink_run():
    return aa.integrate_reduced_flow(get_entry("shrink10").data, aa.UNNORMALIZED, 1.0)


@lru_cache(maxsize=None)
def _steady_run():
    return aa.integrate_reduced_flow(get_entry("steady10").data, aa.UNNORMALIZED, 100.0)


def test_criterion_2_extinction_vs_immortal():
    t0 = time.perf_counter()
    shrink_traj = _shrink_run()
    steady_traj = _steady_run()
    elapsed = time.perf_counter() - t0

    blowup_ok = (
        shrink_traj.raw.terminal_event == engine.BLOWUP
        and abs(shrink_traj.raw.blowup.t_est - 0.5) < 1e-3
    )
    x0 = get_entry("steady10").data.to_state()
    dev = max(float(np.linalg.norm(x - x0)) for x in steady_traj.raw.states)
    steady_ok = steady_traj.raw.terminal_event == engine.HORIZON and dev < 1e-8
    ok = blowup_ok and steady_ok and elapsed < 5.0
    _report(
        2,
        ok,
        f"T_est={shrink_traj.raw.blowup.t_est:.6f}, steady deviation {dev:.2e}, {elapsed:.2f}s",
    )


# --- criterion 3: asymptotic-regime table reproduction --------------------


@lru_cache(maxsize=None)
def _table_runs():
    return verification.suite_table1()


def test_criterion_3_table_reproduction():
    t0 = time.perf_counter()
    rep = _table_runs()
    elapsed = time.perf_counter() - t0
    lines = ", ".join(
        f"{case}:{'ok' if row['ok'] else 'FAIL'}({row['limit']},{row['soliton_at_limit']})"
        for case, row in rep["cases"].items()
    )
    ok = rep["ok"] and elapsed < 60.0
    _report(3, ok, f"{lines}, {elapsed:.1f}s")


# --- criterion 4: self-similar soliton evolution ----------------------------


def _self_similar_deviation(data, traj):
    """Max relative deviation of the rows from (1 - 2 alpha t)^(-1/2) x0, alpha = c."""
    alpha = aa.p_components(data).c
    x0 = data.to_state()
    sigma = (1.0 - 2.0 * alpha * traj.raw.times) ** -0.5
    dev = np.linalg.norm(traj.raw.states - sigma[:, None] * x0, axis=1) / (sigma * np.linalg.norm(x0))
    return float(dev.max())


def test_criterion_4_self_similar_scaling():
    sab = get_entry("s_ab(1, pi/2)").data
    shrink = get_entry("shrink10").data
    steady = get_entry("steady10").data
    dev_exp = _self_similar_deviation(sab, aa.integrate_reduced_flow(sab, aa.UNNORMALIZED, 100.0))
    dev_shr = _self_similar_deviation(shrink, aa.integrate_reduced_flow(shrink, aa.UNNORMALIZED, 0.45))
    dev_std = _self_similar_deviation(steady, _steady_run())
    ok = dev_exp < 1e-6 and dev_shr < 1e-6 and dev_std < 1e-9
    _report(4, ok, f"deviations: expanding {dev_exp:.1e}, shrinking {dev_shr:.1e}, steady {dev_std:.1e}")


# --- criterion 5: nilpotent flow convergence, trace, and decay law ---------


@lru_cache(maxsize=None)
def _nil_runs():
    mu, frame = get_entry("kodaira").data
    kod_norm = nf.integrate_nil_flow(mu, frame, 400.0, "unit_norm")
    kod_unnorm = nf.integrate_nil_flow(mu, frame, 2e4, "none")
    rng = np.random.default_rng(7)
    mu6, frame6 = random_two_step_skt(rng, blocks=2, dim_z=2)
    six_norm = nf.integrate_nil_flow(mu6, frame6, 500.0, "unit_norm")
    return kod_norm, kod_unnorm, six_norm


def test_criterion_5_nil_flow():
    kod_norm, kod_unnorm, six_norm = _nil_runs()
    details = []
    ok = True

    for name, traj in (("kodaira", kod_norm), ("two-block", six_norm)):
        assert traj.raw.terminal_event == engine.FIXED_POINT
        x = nf.refine_fixed_point(traj.flow, traj.raw.final_state)
        nu = traj.flow.decode(x)
        cert = nf.soliton_limit_certificate(nu, traj.flow.split.frame, split=traj.flow.split)
        tr_p = float(np.trace(nf.p_endomorphism_nil(traj.flow.split, nu)))
        # unit-norm trace identity: tr P = -|nu|^2 / 2 = -1/2
        ok &= cert.residual < 1e-7 and abs(tr_p + 0.5) < 1e-6
        diag = traj.diagnostics()
        ok &= bool(np.all(np.diff(diag["F"]) <= 1e-12))
        details.append(f"{name}: residual {cert.residual:.1e}, trP {tr_p:.8f}")

    ts, ns = kod_unnorm.raw.times, np.linalg.norm(kod_unnorm.raw.states, axis=1)
    mask = ts >= ts[-1] / 10.0
    prod = ts[mask] * ns[mask] ** 2
    spread = float((prod.max() - prod.min()) / prod[-1])
    ok &= spread < 0.01
    details.append(f"t|mu|^2 spread {spread:.2%} (limit {prod[-1]:.4f})")
    _report(5, ok, "; ".join(details))


# --- criterion 6: the normalized flow is the negative gradient of F --------


def test_criterion_6_gradient_equivalence():
    rng = np.random.default_rng(23)
    worst = 0.0
    flowing = 0
    for i in range(100):
        # two coupled Heisenberg planes: generically a non-critical point of F
        mu, frame = random_two_step_skt(rng, blocks=2, dim_z=2 + 2 * (i % 2))
        x = mu.to_coords()
        nu = LieBracket.from_coords(mu.dim, x / np.linalg.norm(x))
        split = nf.NilpotentSplitting.from_bracket(nu, frame)
        out = nf.gradient_equivalence_check(nu, split)
        worst = max(worst, out["angle"])
        flowing += not out["critical"]
    ok = worst < 1e-4 and flowing >= 95
    _report(6, ok, f"100 brackets ({flowing} non-critical), max angle {worst:.2e} rad")


# --- criterion 7: moment-map identity under the pinned convention ----------


def test_criterion_7_moment_map_identity():
    rng = np.random.default_rng(31)
    worst_mm = worst_koszul = 0.0
    for i in range(100):
        mu, _ = random_two_step_skt(rng, blocks=1 + i % 2, dim_z=2)
        mu = LieBracket(mu.coeffs / bracket_norm(mu))
        n2 = bracket_inner_product(mu, mu)
        m = nf.moment_map(mu, "gl")
        a = rng.standard_normal((mu.dim, mu.dim))
        a = 0.5 * (a + a.T)
        a /= np.linalg.norm(a)
        lhs = float(np.sum(m * a)) * n2
        rhs = bracket_inner_product(infinitesimal_action(a, mu), mu)
        worst_mm = max(worst_mm, abs(lhs - rhs))
        # independent curvature oracle for the moment map
        m_oracle = (4.0 / n2) * nf.ricci_koszul(mu)
        worst_koszul = max(worst_koszul, float(np.abs(m - m_oracle).max()))
    ok = worst_mm < 1e-10 and worst_koszul < 1e-10
    _report(7, ok, f"identity residual {worst_mm:.2e}, Koszul cross-check {worst_koszul:.2e}")


# --- criterion 8: eigenvalue-norm inequalities and normality flow ----------


def test_criterion_8_appendix_sweep():
    rep = verification.suite_appendix(seed=0)
    ok = rep["ok"]
    _report(
        8,
        ok,
        f"min gap {rep['min_gap']:.1e}, jordan |E| {rep['jordan_limit_norm']:.1e}, "
        f"spectrum drift {rep['spectrum_drift_5x5']:.1e}, monotone {rep['defect_monotone']}",
    )


# --- criterion 9: structural invariants along every integrated trajectory --


def test_criterion_9_structural_invariants():
    worst = {"skt": 0.0, "defect": 0.0, "ratio": 0.0, "center": 0.0}
    for traj in (_shrink_run(), _steady_run()):
        inv = verification.structural_invariants(traj)
        worst["skt"] = max(worst["skt"], inv["skt_residual"])
        worst["defect"] = max(worst["defect"], inv["normality_defect"])
        worst["ratio"] = max(worst["ratio"], inv["ratio_drift"])
    for row in _table_runs()["cases"].values():
        worst["skt"] = max(worst["skt"], row["skt_residual"])
        worst["defect"] = max(worst["defect"], row["normality_defect"])
        worst["ratio"] = max(worst["ratio"], row["ratio_drift"])
    for traj in _nil_runs():
        diag = traj.diagnostics()
        worst["skt"] = max(worst["skt"], float(diag["skt_residual"].max()))
        worst["center"] = max(worst["center"], float(diag["center_drift"].max()))
    ok = (
        worst["skt"] < 1e-8
        and worst["defect"] < 1e-9
        and worst["ratio"] < 1e-9
        and worst["center"] < 1e-8
    )
    _report(
        9,
        ok,
        f"SKT {worst['skt']:.1e}, normality {worst['defect']:.1e}, "
        f"ratio drift {worst['ratio']:.1e}, center {worst['center']:.1e}",
    )
