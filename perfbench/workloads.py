"""The four benchmark workloads: seeded inputs, the timed job of one item, and
the correctness gates applied to its output.

Every workload is a list of items grouped into batches of identical
composition.  An item's job is what a user of pluriflow runs to reach a
verdict, a trajectory or a certified limit; its gates check the output
against the paper's theory after the timer has stopped.

A gate function returns the gates of one item and, for the gates that fail on
a known and documented defect of the program (see README.md), whether this
item shows that defect's cause: a bool, or a function that tests it, which
the runner calls once the batch has ended so that its cost stays out of the
batch's time and memory.  A failure whose cause is shown is counted in
`failed` but does not make the run incorrect; any other failed gate does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.linalg

from pluriflow import almostabelian as aa
from pluriflow import cli, engine, nilflow, normality, sampling, serialize, verification


@dataclass
class Item:
    id: str
    kind: str
    dim: int
    batch: int
    payload: object


@dataclass
class Outcome:
    """What an item's job returned, kept for its gates and its record."""

    terminal_event: str | None = None
    accepted: int | None = None
    rejected: int | None = None
    value: object = None


def _digest_arrays(h, *arrays):
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())


# --- nil_flow ---------------------------------------------------------------
# One item per dimension d in each batch, with a fixed (blocks, dim_z) split per
# d, so that batches differ only in their random coefficients.  Splits with a
# single Heisenberg block are left out: such a bracket is already a soliton and
# its flow stops at t = 0.
NIL_SPLITS = {6: (2, 2), 8: (2, 4), 10: (3, 4), 12: (4, 4), 14: (4, 6)}
NIL_BATCHES = 3
# Converging items reach FIXED_POINT by t ~ 460; the horizon bounds the cost
# of an item whose field never drops below the fixed-point threshold.
NIL_HORIZON = 1e3
NIL_REFINE_MAX_DIM = 8
# The unit-norm field of some items stalls just above the absolute
# fixedpoint_norm of 1e-10 (|f| ~ 1.00e-10 to 1.15e-10), so their flow runs to
# the horizon: 2 of 600 items over workload seeds 301-330 and 401-410, and 2
# of 600 over 40 random seeds.  A HORIZON end is excused only when the median
# |f| over the states recorded in the second half of the horizon lies in this
# band around the threshold; a flow that converged past the threshold and
# still ran on lies below it.
NIL_STALL_BAND = (5e-11, 2e-10)
NIL_SKT_BOUND = 1e-9
# The engine does not keep the flow on the SKT set: the scale-normalised
# residual grows with the integrator's error, and ends near 20 x rel_tol on
# some items (2.1e-9 at rel_tol 1e-10 on item b0-d6 of workload seed
# 1099161428; 2.3e-10 at 1e-11, 2.4e-11 at 1e-12).  A residual above the
# bound is excused only when a re-run at a tenth of the tolerances brings it
# at least NIL_SKT_SHRINK times lower and within the bound.
NIL_SKT_SHRINK = 5.0


def generate_nil_flow(rng) -> list[Item]:
    items = []
    for b in range(NIL_BATCHES):
        for d, (blocks, dim_z) in NIL_SPLITS.items():
            mu, frame = sampling.random_two_step_skt(rng, blocks=blocks, dim_z=dim_z)
            items.append(Item(f"b{b}-d{d}", f"two_step_b{blocks}z{dim_z}", d, b, (mu, frame)))
    return items


def run_nil_flow(item: Item, workdir: Path) -> Outcome:
    mu, frame = item.payload
    traj = nilflow.integrate_nil_flow(mu, frame, NIL_HORIZON, "unit_norm")
    cols = traj.diagnostics()
    serialize.write_csv(workdir / f"{item.id}.csv", cols)
    nu = traj.flow.decode(traj.raw.final_state)
    cert = nilflow.soliton_limit_certificate(nu, frame, split=traj.flow.split)
    if item.dim <= NIL_REFINE_MAX_DIM:
        nilflow.refine_fixed_point(traj.flow, traj.raw.final_state)
    raw = traj.raw
    return Outcome(raw.terminal_event, raw.n_accepted, raw.n_rejected, (traj, cols, cert))


def gate_nil_flow(item: Item, out: Outcome) -> tuple[dict, dict]:
    traj, cols, cert = out.value
    df = np.diff(cols["F"])
    gates = {
        "fixed_point": out.terminal_event == engine.FIXED_POINT,
        "trace_P": float(np.abs(cols["tr_P"] + 0.5).max()) <= 1e-9,
        "F_monotone": float(df.max(initial=0.0)) <= 1e-12,
        "skt_residual": float(cols["skt_residual"].max()) <= NIL_SKT_BOUND,
        "certificate": cert.residual <= 1e-8,
    }
    lo, hi = NIL_STALL_BAND
    raw = traj.raw
    stalled = out.terminal_event == engine.HORIZON and lo <= float(np.median(
        [np.linalg.norm(traj.flow.field(x)) for x in raw.states[raw.times >= NIL_HORIZON / 2]])) < hi
    return gates, {"fixed_point": stalled, "skt_residual": lambda: skt_drift_is_truncation(item, cols)}


def skt_drift_is_truncation(item: Item, cols: dict) -> bool:
    """Whether the item's SKT residual shrinks with the integrator's
    tolerances, as truncation error does, to within NIL_SKT_BOUND."""
    mu, frame = item.payload
    base = engine.IntegratorConfig()
    cfg = replace(base, rel_tol=base.rel_tol / 10, abs_tol=base.abs_tol / 10, fixedpoint_norm=1e-10)
    tight = float(nilflow.integrate_nil_flow(mu, frame, NIL_HORIZON, "unit_norm", cfg).diagnostics()["skt_residual"].max())
    return tight <= NIL_SKT_BOUND and tight * NIL_SKT_SHRINK <= float(cols["skt_residual"].max())


def digest_nil_flow(h, item: Item):
    mu, frame = item.payload
    _digest_arrays(h, mu.coeffs, frame.J)


# --- reduced_flow -----------------------------------------------------------
# Each batch holds one Table 1 representative and RED_PER_M random items per m,
# so a pass over the six batches runs every representative once.  m = 16 is
# left out: its rare blow-up items record up to ~3e4 steps of a 273-long state,
# so the largest of them sets the batch time and peak_rss_mb and the spread
# between seeds exceeded the bounds.  Blow-up items still come from m = 8
# (k >= 3).
RED_MS = (2, 4, 8)
RED_PER_M = 6
RED_HORIZON = 1e3
RED_NORM_HORIZON = 120.0
RED_BLOWUP_NORM = 1e6  # integrate_reduced_flow's default blowup_norm
# A flow predicted to blow up may stop at STEP_UNDERFLOW on its way, with |x|
# already past this but still below RED_BLOWUP_NORM (3e5 to 6e5 at seed 0).
RED_UNDERFLOW_NORM = 1e4


def generate_reduced_flow(rng) -> list[Item]:
    items = []
    for b, (case, data) in enumerate(verification.table_one_representatives().items()):
        items.append(Item(f"b{b}-table1_{case}", f"table1_{case}", data.dim, b, (data, case)))
        for m in RED_MS:
            for j in range(RED_PER_M):
                data = sampling.random_skt_almost_abelian(rng, m=m, allow_zero_a=True)
                items.append(Item(f"b{b}-m{m}_{j}", f"random_m{m}", data.dim, b, (data, None)))
    return items


def run_reduced_flow(item: Item, workdir: Path) -> Outcome:
    data, _ = item.payload
    report = aa.classify(data)
    traj = aa.integrate_reduced_flow(data, aa.UNNORMALIZED, RED_HORIZON)
    ntraj = aa.integrate_reduced_flow(data, aa.A_NORM_FIXED, RED_NORM_HORIZON)
    serialize.write_csv(workdir / f"{item.id}.csv", traj.diagnostics())
    serialize.write_csv(workdir / f"{item.id}-normalized.csv", ntraj.diagnostics())
    raw = traj.raw
    return Outcome(
        raw.terminal_event,
        raw.n_accepted + ntraj.raw.n_accepted,
        raw.n_rejected + ntraj.raw.n_rejected,
        (report, traj),
    )


def expected_k(data) -> int:
    """Half the number of eigenvalues of A with real part -a/2 != 0."""
    if data.a == 0.0:
        return 0
    re = np.linalg.eigvals(data.A).real
    tol = 1e-7 * max(1.0, abs(data.a), float(np.linalg.norm(data.A)))
    return int(np.sum(np.abs(re + data.a / 2) <= tol)) // 2


def gate_reduced_flow(item: Item, out: Outcome) -> tuple[dict, dict]:
    data, case = item.payload
    report, traj = out.value
    inv = verification.structural_invariants(traj)
    if report.predicted_T == "INFINITE":
        regime = out.terminal_event == engine.HORIZON
    else:
        regime = out.terminal_event in (engine.BLOWUP, engine.HORIZON)
    gates = {
        "invariants": inv["skt_residual"] < 1e-8 and inv["normality_defect"] < 1e-9 and inv["ratio_drift"] < 1e-9,
        "k_rank": report.k == expected_k(data),
        "regime": regime,
    }
    if case is not None:
        gates["table1"] = report.table_case == case
    known = {
        # skt_multiplicity_k scales its rank cutoff by the roundoff-sized
        # sym(A) when a = 0, so such items may get k > 0 and the wrong case
        "k_rank": data.a == 0.0,
        # a flow that blows up may stop at STEP_UNDERFLOW below blowup_norm
        "regime": (report.predicted_T != "INFINITE" and out.terminal_event == engine.STEP_UNDERFLOW
                   and RED_UNDERFLOW_NORM <= float(np.linalg.norm(traj.raw.final_state)) < RED_BLOWUP_NORM),
    }
    return gates, known


def digest_reduced_flow(h, item: Item):
    data, case = item.payload
    h.update(str(case).encode())
    _digest_arrays(h, [data.a], data.v, data.A, data.J1)


# --- check ------------------------------------------------------------------
# Light inputs (ms each) set the median; the v = 0 solitons and the 2-step
# brackets drive derivation_space through its full-matrix SVD and set the
# tail and the peak memory.
CHECK_LIGHT_MS = (2, 4, 8, 16)
CHECK_LIGHT_PER_M = 12
CHECK_SOLITON_MS = (4, 6, 8, 10, 12, 14, 16)  # d = m + 2 up to 18
CHECK_NIL_SPLITS = ((2, 2), (2, 4), (3, 4), (4, 4), (4, 6), (4, 8))  # d up to 16


def generate_check(rng) -> list[Item]:
    light, heavy = [], []
    for m in CHECK_LIGHT_MS:
        for j in range(CHECK_LIGHT_PER_M):
            light.append((f"skt_m{m}_{j}", "skt_aa", sampling.random_skt_almost_abelian(rng, m=m, allow_zero_a=True)))
            light.append((f"generic_m{m}_{j}", "generic_aa", sampling.random_generic_almost_abelian(rng, m=m)))
    for m in CHECK_SOLITON_MS:
        data = sampling.random_skt_almost_abelian(rng, m=m, allow_zero_a=True)
        heavy.append((f"soliton_d{m + 2}", "soliton_v0", data.replace(v=np.zeros(m))))
    for blocks, dim_z in CHECK_NIL_SPLITS:
        mu, _ = sampling.random_two_step_skt(rng, blocks=blocks, dim_z=dim_z)
        heavy.append((f"nilpotent_d{mu.dim}", "nilpotent", mu))
    # spread the light inputs evenly between the heavy ones, so that their
    # median samples the whole pass and not one short stretch of it
    spread = [((i + 0.5) / len(group), x) for group in (light, heavy) for i, x in enumerate(group)]
    return [Item(f"b0-{name}", kind, obj.dim, 0, obj) for _, (name, kind, obj) in sorted(spread, key=lambda kx: kx[0])]


def prepare_check(items: list[Item], workdir: Path):
    """Write each input to the JSON file that `pluriflow check` reads."""
    workdir.mkdir(parents=True, exist_ok=True)
    for item in items:
        obj = item.payload
        path = workdir / f"{item.id}.json"
        path.write_text(json.dumps(obj.to_json_dict()))
        expect = float(np.sum(obj.coeffs**2)) if item.kind == "nilpotent" else None
        item.payload = (str(path), expect)


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def run_check(item: Item, workdir: Path) -> Outcome:
    path, _ = item.payload
    return Outcome(value=_run_cli(["check", path]))


def gate_check(item: Item, out: Outcome) -> tuple[dict, dict]:
    rc, text = out.value
    res = json.loads(text)
    gates = {"exit_code": rc == 0}
    if item.kind == "skt_aa":
        gates["skt"] = res["skt"]["is_skt"] is True
    elif item.kind == "generic_aa":
        gates["not_skt"] = res["skt"]["is_skt"] is False
    elif item.kind == "soliton_v0":
        gates["soliton_kind"] = res["soliton"]["kind"] != "NONE"
    else:
        n2 = item.payload[1]
        gates["trace_P"] = abs(res["tr_P"] + 0.5 * n2) <= 1e-9 * n2
    return gates, {}


def digest_check(h, item: Item):
    h.update(Path(item.payload[0]).read_bytes())


# --- verify -----------------------------------------------------------------
VERIFY_SUITES = ("appendix", "identities", "table1")
# suite_appendix flows a random 5x5 matrix to t = 40 and asks its normality
# defect to be below 1e-8 there.  A matrix with two close eigenvalues converges
# more slowly and reaches that bound only later.  Over 120 workload seeds the
# bound failed on exactly the five matrices whose closest eigenvalues lie
# within 0.21 of each other (the next closest pair: 0.27), and all five reach
# it by t = 400.
APPENDIX_HORIZON = 40.0
APPENDIX_CLOSE_EIGS = 0.3
APPENDIX_COUNT = 10_000  # matrices in suite_appendix's sweep


# Each batch runs the three suites with a suite seed of its own: the cost of
# suite_appendix ranged from 0.9 to 1.5 s (scaled) over ten suite seeds, and
# three of them per pass average that out better than three passes over one.
VERIFY_BATCHES = 3


def generate_verify(rng) -> list[Item]:
    items = []
    for b in range(VERIFY_BATCHES):
        suite_seed = str(int(rng.integers(2**31)))
        items += [Item(f"b{b}-{s}", s, 0, b, ["verify", "--suite", s, "--seed", suite_seed]) for s in VERIFY_SUITES]
    return items


def run_verify(item: Item, workdir: Path) -> Outcome:
    return Outcome(value=_run_cli(item.payload))


def gate_verify(item: Item, out: Outcome) -> tuple[dict, dict]:
    rc, text = out.value
    res = json.loads(text)
    if item.kind != "appendix":
        return {"ok": rc == 0 and res["ok"] is True}, {}
    # the suite's bounds, each its own gate, so that a known failure of one of
    # them is told apart from the others
    gates = {
        "band_agreement": res["band_agreement"] is True,
        "limit_defect": res["limit_defect"] < 1e-8,
        "defect_monotone": res["defect_monotone"] is True,
        "appendix_bounds": res["min_gap"] >= -1e-10
        and res["jordan_limit_norm"] < 1e-8
        and res["spectrum_drift_5x5"] < 1e-6,
    }
    # the suite's verdict and exit code say no more than these gates do
    gates["suite_ok"] = res["ok"] is all(gates.values()) and (rc == 0) is res["ok"]
    bounds, suite_seed = gates["appendix_bounds"], int(item.payload[-1])
    return gates, {
        # suite_appendix asks a Frobenius gap below 1e-8 exactly when the
        # normality defect is below 1e-6, and some seeds draw a matrix between
        # the two bands
        "band_agreement": lambda: bounds and between_bands(suite_seed),
        # the 5x5 flow keeps its spectrum, but a matrix with close
        # eigenvalues converges too slowly for the suite's horizon
        "limit_defect": lambda: bounds and slow_appendix_limit(suite_seed),
        # the 5x5 defect, once below the limit band, moves with the
        # integrator's error by more than the suite's absolute 1e-9
        "defect_monotone": lambda: bounds and late_defect_jitter(suite_seed),
    }


def appendix_matrices(suite_seed: int):
    """The matrices of suite_appendix's sweep, drawn as the suite draws them."""
    rng = np.random.default_rng(suite_seed)
    for i in range(APPENDIX_COUNT):
        n = int(rng.integers(2, 11))
        mode = i % 4
        e = rng.standard_normal((n, n))
        if mode == 1:
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            d = np.diag(rng.standard_normal(n))
            t = rng.standard_normal()
            d[0, 1], d[1, 0] = -t, t
            e = q @ d @ q.T
        elif mode == 2:
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            e = q @ np.diag(rng.standard_normal(n)) @ q.T + 1e-9 * rng.standard_normal((n, n))
        yield e


def between_bands(suite_seed: int) -> bool:
    """Whether every matrix on which suite_appendix's two bands disagree has a
    report that is right and lies between the bands.

    The gap is checked against Henrici's departure from normality, the
    strictly upper part of a complex Schur form, computed apart from
    normality_report; the defect against its definition.  The bands disagree
    on a right report when the defect is below 1e-6 but the gap, which
    Henrici's bound lets reach sqrt((n^3 - n) / 12) times the defect, is not
    below 1e-8, or the other way round.
    """
    misses = 0
    for e in appendix_matrices(suite_seed):
        rep = normality.normality_report(e)
        if (rep.frobenius_gap < 1e-8) == (rep.normality_defect < 1e-6):
            continue
        misses += 1
        t, _ = scipy.linalg.schur(e.astype(complex), output="complex")
        gap = float(np.sum(np.abs(np.triu(t, 1)) ** 2))
        defect = float(np.linalg.norm(e @ e.T - e.T @ e))
        scale = float(np.sum(e * e))
        if abs(rep.frobenius_gap - gap) > 1e-12 * scale or abs(rep.normality_defect - defect) > 1e-12 * scale:
            return False
    return misses > 0


def slow_appendix_limit(suite_seed: int) -> bool:
    """Whether the 5x5 matrix of suite_appendix has two eigenvalues closer
    than APPENDIX_CLOSE_EIGS, and its normality flow reaches a defect below
    1e-8 at ten times the suite's horizon."""
    e0 = np.random.default_rng(suite_seed + 1).standard_normal((5, 5))
    lam = np.linalg.eigvals(e0)
    dist = np.abs(lam[:, None] - lam[None, :])[np.triu_indices(5, 1)]
    if dist.min() >= APPENDIX_CLOSE_EIGS:
        return False
    traj, decode = normality.normality_flow(e0, horizon=10 * APPENDIX_HORIZON)
    return normality.normality_defect(decode(traj.final_state)) < 1e-8


def late_defect_jitter(suite_seed: int) -> bool:
    """Whether every rise of more than 1e-9 in the defect along the 5x5 flow
    of suite_appendix starts and ends below 1e-8, the suite's limit band."""
    e0 = np.random.default_rng(suite_seed + 1).standard_normal((5, 5))
    traj, decode = normality.normality_flow(e0, horizon=APPENDIX_HORIZON)
    d = np.array([normality.normality_defect(decode(x)) for x in traj.states])
    rises = np.flatnonzero(np.diff(d) > 1e-9)
    return rises.size > 0 and bool(np.all(d[rises] < 1e-8) and np.all(d[rises + 1] < 1e-8))


def digest_verify(h, item: Item):
    h.update(" ".join(item.payload).encode())


@dataclass(frozen=True)
class Workload:
    generate: object
    run: object
    gate: object
    digest: object
    prepare: object = None
    # Whether item times are scaled to the reference speed (speed.py).  Not
    # for check: its time goes to large LAPACK calls, which the host's slow
    # stretches leave nearly unchanged, so the probe's speed does not apply.
    scaled: bool = True


WORKLOADS = {
    "nil_flow": Workload(generate_nil_flow, run_nil_flow, gate_nil_flow, digest_nil_flow),
    "reduced_flow": Workload(generate_reduced_flow, run_reduced_flow, gate_reduced_flow, digest_reduced_flow),
    "check": Workload(generate_check, run_check, gate_check, digest_check, prepare_check, scaled=False),
    "verify": Workload(generate_verify, run_verify, gate_verify, digest_verify),
}


def generate(name: str, seed: int) -> list[Item]:
    """The workload's items for this seed."""
    return WORKLOADS[name].generate(np.random.default_rng(seed))


def prepare(name: str, items: list[Item], workdir: Path) -> str:
    """Write the inputs that the program reads from files, and return a
    digest of the items."""
    wl = WORKLOADS[name]
    if wl.prepare is not None:
        wl.prepare(items, workdir)
    h = hashlib.sha256()
    for item in items:
        h.update(item.id.encode())
        wl.digest(h, item)
    return h.hexdigest()[:16]
