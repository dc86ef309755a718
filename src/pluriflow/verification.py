"""Randomized and catalog-driven verification suites.

Shared between the command-line `verify` subcommand and the acceptance test
module, so both run the identical checks.
"""

from __future__ import annotations

import numpy as np

from . import almostabelian as aa
from . import engine, nilflow, normality
from .brackets import DEFAULT_CONVENTION, InnerProductConvention, basis_change_action, bracket_inner_product
from .catalog import get_entry, s_ab_data
from .hermitian import HermitianFrame

__all__ = [
    "normality_bounds_hold",
    "suite_appendix",
    "suite_identities",
    "suite_table1",
    "table_one_representatives",
    "structural_invariants",
]

IDENTITY_TRIALS = 100  # random brackets drawn by suite_identities
APPENDIX_COUNT = 10_000  # matrices in suite_appendix's sweep
TABLE1_HORIZON = 1e3  # run length of suite_table1's unnormalized flow
TABLE1_NORM_HORIZON = 120.0  # run length of suite_table1's normalized flow
# matrices that suite_appendix draws and reports at once: per chunk and size,
# one draw per family, one stacked QR and product per normal family, and one
# normality_report.  Whole per-size stacks take about half the sweep's time but
# raise its peak RSS by about 6 MB.
APPENDIX_CHUNK = 256


def _conjugates(seeds, diagonals, angles=None):
    """The stack of q D q^t: q is the Q factor of a seed and D the diagonal
    matrix of its diagonal d; with an angle t, D carries the normal block
    [[d_0, -t], [t, d_0]] on its first two coordinates."""
    q, _ = np.linalg.qr(seeds)
    forms = diagonals[:, :, None] * np.eye(q.shape[-1])
    if angles is not None:
        forms[:, 1, 1] = forms[:, 0, 0]
        forms[:, 0, 1], forms[:, 1, 0] = -angles, angles
    return q @ forms @ np.swapaxes(q, -1, -2)


def _appendix_stacks(rng):
    """The APPENDIX_COUNT matrices of suite_appendix's sweep, in stacks (k, n, n)
    of one size n in 2..10 and at most APPENDIX_CHUNK matrices.  Matrix i is
    plain for i = 0, 3 mod 4, exactly normal for i = 1 (a conjugate of the
    angle block) and normal plus a 1e-9 perturbation for i = 2."""
    for lo in range(0, APPENDIX_COUNT, APPENDIX_CHUNK):
        modes = np.arange(lo, min(lo + APPENDIX_CHUNK, APPENDIX_COUNT)) % 4
        sizes = rng.integers(2, 11, size=modes.size)
        for n in np.flatnonzero(np.bincount(sizes)).tolist():
            counts = np.bincount(modes[sizes == n], minlength=4)
            plain = rng.standard_normal((counts[0] + counts[3], n, n))
            x = rng.standard_normal((counts[1], n + 2, n))  # QR seed, diagonal, angle
            y = rng.standard_normal((counts[2], 2 * n + 1, n))  # QR seed, diagonal, perturbation
            normal = _conjugates(x[:, :n], x[:, n], x[:, n + 1, 0])
            near = _conjugates(y[:, :n], y[:, n]) + 1e-9 * y[:, n + 1 :]
            yield np.concatenate([plain, normal, near])


def normality_bounds_hold(rep: normality.NormalityReport, n: int):
    """Whether the report of an n x n matrix E, or of each in a stack, obeys
    three theorems up to roundoff r = 8 n eps |E|^2.  Take a Schur form
    E = U (D + N) U^*, so that gap = |N|^2: Henrici's bound
    gap <= sqrt((n^3 - n) / 12) defect; its converse defect <= 6 |E| sqrt(gap),
    since each of the three terms of [D + N, (D + N)^*] is at most 2 |E| |N|;
    and sym_gap = gap / 2, the Hermitian part of D + N having N/2 off its diagonal."""
    e2, gap, defect = rep.frobenius_sq, rep.frobenius_gap, rep.normality_defect
    r = 8 * n * np.finfo(float).eps * e2
    henrici = gap <= np.sqrt((n**3 - n) / 12) * defect + r
    converse = defect <= 6 * np.sqrt(e2 * (np.maximum(gap, 0) + r))
    return henrici & converse & (np.abs(rep.sym_gap - gap / 2) <= r)


def suite_appendix(seed: int = 0) -> dict:
    """Eigenvalue-norm inequality sweep plus normality-flow spot checks."""
    min_gap = 0.0
    agree = True
    for stack in _appendix_stacks(np.random.default_rng(seed)):
        rep = normality.normality_report(stack)
        min_gap = min(min_gap, float(rep.frobenius_gap.min()), float(rep.sym_gap.min()))
        agree &= bool(normality_bounds_hold(rep, stack.shape[-1]).all())

    # Jordan block collapses to the zero matrix; the decay is algebraic
    # (|E| ~ t^(-1/2) by cubic homogeneity), so run to a far horizon and
    # leave fixed-point detection off
    traj, decode = normality.normality_flow(
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        horizon=1e16,
        config=engine.IntegratorConfig(),
    )
    e_final = decode(traj.final_state)
    jordan_norm = float(np.linalg.norm(e_final))
    jordan_defect = normality.normality_defect(e_final)

    # random 5x5: spectrum preserved, defect monotone
    e0 = np.random.default_rng(seed + 1).standard_normal((5, 5))
    traj5, decode5 = normality.normality_flow(e0, horizon=40.0)
    drift = normality.spectrum_distance(e0, decode5(traj5.final_state))
    defects = normality.normality_defect(traj5.states.reshape(-1, 5, 5))
    monotone = bool(np.all(defects[1:] <= defects[:-1] + 1e-9))
    limit_defect = float(defects[-1])

    ok = (
        min_gap >= -1e-10
        and agree
        and jordan_norm < 1e-8
        and jordan_defect < 1e-8
        and drift < 1e-10
        and monotone
        and limit_defect < 1e-8
    )
    return {
        "ok": bool(ok),
        "count": APPENDIX_COUNT,
        "min_gap": min_gap,
        "band_agreement": bool(agree),
        "jordan_limit_norm": jordan_norm,
        "spectrum_drift_5x5": drift,
        "defect_monotone": bool(monotone),
        "limit_defect": limit_defect,
    }


def suite_identities(seed: int = 0) -> dict:
    """Moment-map identity under the pinned convention, trace identity,
    Koszul cross-check, orthogonal equivariance."""
    from . import sampling  # sampling loads scipy.linalg, kept off the package's import path

    rng = np.random.default_rng(seed)
    worst_mm = worst_tr = worst_koszul = worst_eq = 0.0
    unordered_fails = 0.0
    for t in range(IDENTITY_TRIALS):
        mu, frame = sampling.random_two_step_skt(rng, blocks=1 + t % 2, dim_z=2)
        d = mu.dim
        ric = nilflow.ricci_endomorphism(mu)
        worst_koszul = max(worst_koszul, float(np.abs(ric - nilflow.ricci_koszul(mu)).max()))
        mm = nilflow.verify_moment_convention(mu, rng, trials=1)
        worst_mm = max(worst_mm, mm[DEFAULT_CONVENTION])
        unordered_fails = max(unordered_fails, mm[InnerProductConvention.UNORDERED_PAIRS])

        split = nilflow.NilpotentSplitting.from_bracket(mu, frame)
        p = nilflow.p_endomorphism_nil(split)
        n2 = bracket_inner_product(mu, mu)
        worst_tr = max(worst_tr, abs(np.trace(p) + 0.5 * n2) / n2)

        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        mu_k = basis_change_action(q, mu)
        m_k = nilflow.moment_map(mu_k, "gl")
        worst_eq = max(worst_eq, float(np.abs(m_k - q @ nilflow.moment_map(mu, "gl") @ q.T).max()))

    ok = worst_mm < 1e-10 and worst_tr < 1e-10 and worst_koszul < 1e-10 and worst_eq < 1e-9 and unordered_fails > 0.1
    return {
        "ok": bool(ok),
        "trials": IDENTITY_TRIALS,
        "moment_map_identity": worst_mm,
        "unordered_convention_violation": unordered_fails,
        "trace_identity": worst_tr,
        "koszul_cross_check": worst_koszul,
        "equivariance": worst_eq,
    }


def table_one_representatives() -> dict:
    """One pluriclosed initial condition per asymptotic-regime case (i)-(vi)."""
    j2 = HermitianFrame.pairwise(2).J
    j4 = HermitianFrame.pairwise(4).J
    reps = {}
    # (i): a = 0, A skew with kernel, v in the image (exponential decay of v)
    a_i = np.zeros((4, 4))
    a_i[:2, :2] = 1.0 * j2
    reps["i"] = aa.AlmostAbelianData(0.0, np.array([0.3, 0.0, 0.0, 0.0]), a_i, j4)
    # (ii): a != 0, A skew (k = 0)
    reps["ii"] = aa.AlmostAbelianData(1.0, np.array([0.3, 0.0]), (np.pi / 2) * j2, j2)
    # (iii): k = 1, perturbed v
    base = s_ab_data(1.0, np.pi / 2)
    reps["iii"] = base.replace(v=np.array([0.2, 0.0, 0.0, 0.0]))
    # (iv): k = 2, A = -a/2 Id on a 4-dim block
    reps["iv"] = aa.AlmostAbelianData(1.0, np.array([0.5, 0.0, 0.0, 0.0]), -0.5 * np.eye(4), j4)
    # (v)/(vi): 10-dim catalog geometry with v outside / inside Im A
    steady = get_entry("steady10").data
    v5 = steady.v.copy()
    v5[0] = 0.3
    reps["v"] = steady.replace(v=v5)
    shrink = get_entry("shrink10").data
    v6 = shrink.v.copy()
    v6[0] = 0.5
    reps["vi"] = shrink.replace(v=v6)
    return reps


def structural_invariants(traj: aa.ReducedTrajectory) -> dict:
    """Worst-case structural diagnostics along a reduced trajectory."""
    diag = traj.diagnostics()
    a2 = diag["a"] ** 2
    an2 = diag["A_norm"] ** 2
    out = {
        "skt_residual": float(diag["skt_residual"].max()),
        "normality_defect": float(diag["normality_defect"].max()),
    }
    if an2[0] > 0:
        ratio = a2 / an2
        out["ratio_drift"] = float(np.abs(ratio - ratio[0]).max() / max(abs(ratio[0]), 1e-300))
    else:
        out["ratio_drift"] = 0.0
    return out


def suite_table1() -> dict:
    """Run one representative per case and match the predicted regime.  The
    engine's integration of the reduced field to TABLE1_HORIZON is the
    observation: it blows up exactly when the case predicts a finite T, at the
    closed form's T, and ends on the closed-form run's event.  The limit of
    lam = r / r0 is ReducedFlow.limit."""
    rows = {}
    ok = True
    for case, data in table_one_representatives().items():
        report = aa.classify(data)
        flow = aa.ReducedFlow(data)
        traj = aa.integrate_reduced_flow(data, aa.UNNORMALIZED, TABLE1_HORIZON)
        observed = engine.integrate(flow.field, data.to_state(), TABLE1_HORIZON)
        T_obs = observed.blowup.t_est if observed.blowup else np.inf

        ntraj = aa.integrate_reduced_flow(data, aa.A_NORM_FIXED, TABLE1_NORM_HORIZON)
        cert = aa.soliton_certificate(data.from_state(ntraj.raw.final_state))

        inv = structural_invariants(traj)
        case_ok = (
            report.table_case == case
            and report.predicted_T == ("FINITE" if T_obs < np.inf else "INFINITE")
            and (T_obs == flow.T == np.inf or abs(T_obs - flow.T) <= 1e-9 * flow.T < np.inf)
            and traj.raw.terminal_event == observed.terminal_event
            and (report.predicted_limit == flow.limit or report.predicted_limit == "DATA_DEPENDENT" and flow.limit in ("ZERO", "NONZERO"))
            and cert.kind == report.soliton_type_at_limit
            and cert.residual < 1e-6
            and inv["skt_residual"] < 1e-8
            and inv["normality_defect"] < 1e-9
            and inv["ratio_drift"] < 1e-9
        )
        ok &= case_ok
        rows[case] = {
            "ok": bool(case_ok),
            "classified": report.table_case,
            "T": flow.T,
            "T_observed": T_obs,
            "terminal_event": observed.terminal_event,
            "T_predicted": report.predicted_T,
            "limit": flow.limit,
            "limit_predicted": report.predicted_limit,
            "soliton_at_limit": cert.kind.value,
            "soliton_residual": cert.residual,
            **inv,
        }
    return {"ok": bool(ok), "cases": rows}
