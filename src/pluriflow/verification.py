"""Randomized and catalog-driven verification suites.

Shared between the command-line `verify` subcommand and the acceptance test
module, so both run the identical checks.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from . import almostabelian as aa
from . import engine, nilflow, normality
from .brackets import basis_change_action, bracket_inner_product, infinitesimal_action
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
# run length of suite_appendix's 5x5 normality flow, far past where it turns
# normal: the Radau IIA steps near the limit are long, so going on from t = 1e3
# to here takes about one step more (seeds 300-399).  Suite seeds 524 and 978,
# whose flows are still at a defect of 4.3e-7 and 2.1e-6 at t = 1e3, reach
# 8.8e-15 and 1.1e-15 here (at APPENDIX_FLOW_CONFIG).
APPENDIX_HORIZON = 1e4
# suite_appendix's 5x5 normality flow, tighter than the engine's default: the
# defect must not rise by more than 1e-9, and at 1e-10 / 1e-12 it did at 36 of
# suite seeds 0-1999 while DOP853 stepped at its stability limit (by 1.33e-9 at
# seed 376).  Here it holds at every seed 0-1999, at most 4.4e-10, for 23% more
# accepted steps.
APPENDIX_FLOW_CONFIG = engine.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13, fixedpoint_norm=1e-12)
TABLE1_HORIZON = 1e3  # run length of suite_table1's unnormalized flow
TABLE1_NORM_HORIZON = 120.0  # run length of suite_table1's normalized flow
# suite_appendix draws its matrices in chunks of APPENDIX_CHUNK: per chunk, one
# draw of the sizes and one standard_normal call for all of its matrices.  The
# chunks fix the random stream.  It reports them in pools of APPENDIX_POOL
# chunks: per pool and size, one stacked QR and product per normal family, and
# one normality_report.  The pools are drawn in turn and built and reported by
# a ThreadPoolExecutor of one worker per CPU, at most one per pool
# (_appendix_sweep).  Each numpy call hands the GIL between the workers, so
# fewer, larger pools waste less of them.  On a 2-vCPU VM (numpy 2.4,
# OPENBLAS_NUM_THREADS=2), at suite seed 7, medians of 15 alternating rounds:
# pools of 10 (4 pools) take 0.135 s on two workers and 0.227 s on one; pools
# of 4 (10 pools) 0.176 s and 0.235 s.  The sweep's peak RSS rises by 12.4 MB
# on two workers in pools of 10, against 8.0 MB on one in pools of 4.
APPENDIX_CHUNK = 256
APPENDIX_POOL = 10


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


def _chunk_draws(rng, size):
    """One chunk of the sweep's random stream: the sizes of its `size`
    matrices, then per size n in increasing order the draws of the plain,
    normal and near-normal families, cut from one standard_normal call.
    Returns {n: (plain (k, n, n), x (k, n + 2, n), y (k, 2 n + 1, n))}."""
    modes = np.arange(size) % 4  # chunks start at multiples of 4
    sizes = rng.integers(2, 11, size=size)
    shapes = {}
    for n in np.flatnonzero(np.bincount(sizes)).tolist():
        counts = np.bincount(modes[sizes == n], minlength=4).tolist()
        shapes[n] = [(counts[0] + counts[3], n, n), (counts[1], n + 2, n), (counts[2], 2 * n + 1, n)]
    flat = rng.standard_normal(sum(math.prod(s) for per_n in shapes.values() for s in per_n))
    draws, at = {}, 0
    for n, per_n in shapes.items():
        draws[n] = []
        for s in per_n:
            k = math.prod(s)
            draws[n].append(flat[at : at + k].reshape(s))
            at += k
    return draws


def _pool_draws(rng):
    """The draw part of suite_appendix's sweep: per pool of APPENDIX_POOL
    chunks, in turn, {n: the chunks' draws of size n}.  Drawn in this order,
    the pools consume the random stream as one serial sweep does."""
    step = APPENDIX_POOL * APPENDIX_CHUNK
    for lo in range(0, APPENDIX_COUNT, step):
        pooled = {}
        for c in range(lo, min(lo + step, APPENDIX_COUNT), APPENDIX_CHUNK):
            for n, draws in _chunk_draws(rng, min(APPENDIX_CHUNK, APPENDIX_COUNT - c)).items():
                pooled.setdefault(n, []).append(draws)
        yield pooled


def _pool_stacks(pooled):
    """The stacks (k, n, n) of one pool's draws, one per size n in increasing
    order.  Matrix i is plain for i = 0, 3 mod 4, exactly normal for i = 1 (a
    conjugate of the angle block) and normal plus a 1e-9 perturbation for
    i = 2."""
    for n in sorted(pooled):
        plain, x, y = (np.concatenate(family) for family in zip(*pooled[n]))
        normal = _conjugates(x[:, :n], x[:, n], x[:, n + 1, 0])  # QR seed, diagonal, angle
        near = _conjugates(y[:, :n], y[:, n]) + 1e-9 * y[:, n + 1 :]  # QR seed, diagonal, perturbation
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


def _report_pool(pooled):
    """(min_gap, agree, count) of one pool: the least gap, starting from 0.0
    so that no NaN and no -0.0 is kept, whether all its matrices obey
    normality_bounds_hold, and how many it holds."""
    min_gap, agree, count = 0.0, True, 0
    for stack in _pool_stacks(pooled):
        rep = normality.normality_report(stack)
        min_gap = min(min_gap, float(rep.frobenius_gap.min()), float(rep.sym_gap.min()))
        agree &= bool(normality_bounds_hold(rep, stack.shape[-1]).all())
        count += len(stack)
    return min_gap, agree, count


def _sweep_workers(pools: int) -> int:
    """Threads for a sweep of `pools` pools: the CPUs this process may run on,
    at most one per pool."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, pools))


def _appendix_sweep(rng):
    """(min_gap, agree) of the sweep's APPENDIX_COUNT matrices.

    Each task takes the next pool's draw under a lock, so only the pools being
    reported are drawn (mapping over _pool_draws would draw them all at once)
    and they come off the random stream in the serial order, and then builds
    and reports it outside the lock: np.linalg.eigvals, the largest cost,
    releases the GIL.  A min starting from 0.0 and an all do not depend on
    the order of the pools.  A failed task's exception is raised here, the
    first in task order, once the executor has joined every worker."""
    from concurrent.futures import ThreadPoolExecutor  # imports logging: kept off `import pluriflow.cli`

    draws, lock = _pool_draws(rng), threading.Lock()

    def task(_):
        with lock:
            pooled = next(draws)
        return _report_pool(pooled)

    pools = -(-APPENDIX_COUNT // (APPENDIX_POOL * APPENDIX_CHUNK))
    with ThreadPoolExecutor(_sweep_workers(pools)) as executor:
        results = list(executor.map(task, range(pools)))
    count = sum(r[2] for r in results)
    if count != APPENDIX_COUNT:
        raise RuntimeError(f"the appendix sweep reported {count} of {APPENDIX_COUNT} matrices")
    return min([0.0, *(r[0] for r in results)]), all(r[1] for r in results)


def suite_appendix(seed: int = 0) -> dict:
    """Eigenvalue-norm inequality sweep plus normality-flow spot checks."""
    min_gap, agree = _appendix_sweep(np.random.default_rng(seed))

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

    # random 5x5: spectrum preserved, defect monotone, normal at the horizon
    e0 = np.random.default_rng(seed + 1).standard_normal((5, 5))
    traj5, decode5 = normality.normality_flow(e0, horizon=APPENDIX_HORIZON, config=APPENDIX_FLOW_CONFIG)
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
    """Moment-map identity under the pinned pairing, trace identity,
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
        # the pin <m(mu), A> |mu|^2 = <pi(A) mu, mu>, m(mu) = (4/|mu|^2) Ric,
        # for the ordered pairing and for its half, the sum over i < j alone
        a = rng.standard_normal((d, d))
        a = 0.5 * (a + a.T)
        n2 = bracket_inner_product(mu, mu)
        full = bracket_inner_product(infinitesimal_action(a, mu), mu)
        ordered, halved = (
            abs(float(np.sum((4.0 / n) * ric * a)) * n - rhs) / max(1.0, abs(rhs))
            for n, rhs in ((n2, full), (0.5 * n2, 0.5 * full))
        )
        worst_mm = max(worst_mm, ordered)
        unordered_fails = max(unordered_fails, halved)

        split = nilflow.NilpotentSplitting.from_bracket(mu, frame)
        p = nilflow.p_endomorphism_nil(split)
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
        observed = engine.integrate(flow.field, data.to_state(), TABLE1_HORIZON, jacobian=flow.jacobian)
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
