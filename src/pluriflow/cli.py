"""Command-line front end: check, flow, verify, catalog, sweep."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import almostabelian as aa
from . import catalog, engine, nilflow, verification
from .brackets import LieBracket, bracket_inner_product, jacobi_residual
from .hermitian import HermitianFrame, nijenhuis_residual, skt_residual
from .serialize import dumps_json, format_float, json_array, write_csv

_INTEGRABLE_RTOL = 1e-9  # N_J / max |c| above which a bracket input's J is refused


def _load_input(spec: str):
    """Resolve an input spec: 'catalog:NAME' or a JSON file path.

    Returns ('almost_abelian', AlmostAbelianData) or ('nilpotent', (bracket, frame)).
    A bracket file may name its J as a d x d list under "J" (default: the
    pairwise J); that J must be orthogonal, square to -Id and be integrable
    for the bracket (N_J at most _INTEGRABLE_RTOL max |c|).
    """
    if spec.startswith("catalog:"):
        try:
            entry = catalog.get_entry(spec[len("catalog:") :])
        except (KeyError, ValueError) as exc:
            raise SystemExit(f"{spec}: {exc.args[0]}")
        return entry.kind, entry.data
    try:
        with open(spec) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"cannot read input {spec!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{spec}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    try:
        if "a" in obj and "A" in obj:
            return "almost_abelian", aa.AlmostAbelianData.from_json_dict(obj)
        if "dim" in obj and "entries" in obj:
            mu = LieBracket.from_json_dict(obj)
            frame = HermitianFrame(json_array(obj["J"], "J")) if "J" in obj else HermitianFrame.pairwise(mu.dim)
            if frame.dim != mu.dim:
                raise ValueError(f"J must be {mu.dim} x {mu.dim}, got {frame.dim} x {frame.dim}")
            # N_J is linear in the bracket: read at unit scale, it cannot overflow
            scale = np.abs(mu.coeffs).max()
            if scale > 0.0 and nijenhuis_residual(mu.coeffs / scale, frame) > _INTEGRABLE_RTOL:
                raise ValueError("complex structure is not integrable")
            return "nilpotent", (mu, frame)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise SystemExit(f"{spec}: schema violation: {exc}")
    raise SystemExit(f"{spec}: not a recognized input (need a/v/A/J1 or dim/entries keys)")


def _check_almost_abelian(data: aa.AlmostAbelianData, tol: float) -> dict:
    verdict = aa.skt_verdict(data)
    out = {
        "dim": data.dim,
        "skt": {
            "is_skt": verdict.is_skt,
            "k": verdict.k,
            "normality_defect": verdict.normality_defect,
            "residual_lemma": verdict.residual_lemma,
            "spectrum": [[float(z.real), float(z.imag)] for z in verdict.spectrum],
        },
    }
    if verdict.is_skt:
        cert = aa.soliton_certificate(data, tol)
        out["soliton"] = {
            "kind": cert.kind.value,
            "alpha": cert.alpha,
            "residual": cert.residual,
            "eigen_lambda": cert.eigen_lambda,
        }
        try:
            report = aa.classify(data)
        except ValueError as exc:  # (a, A) = (0, 0) is nilpotent: no case of the table
            out["note"] = str(exc)
            return out
        out["classification"] = {
            "case": report.table_case,
            "k": report.k,
            "unimodular": report.unimodular,
            "predicted_T": report.predicted_T,
            "extinction_time": report.extinction_time,
            "predicted_limit": report.predicted_limit,
            "soliton_type_at_limit": report.soliton_type_at_limit.value,
        }
    return out


def _check_nilpotent(mu: LieBracket, frame: HermitianFrame, tol: float) -> dict:
    """dc_residual is max |d(c)| / |mu|^2, read off the 2-step state as flow
    reads it before it integrates; a state satisfies the Jacobi identity
    exactly.  A bracket that NilFlow.encode refuses is read in the ambient
    basis, beside its Jacobi sum."""
    try:
        flow = nilflow.NilFlow(nilflow.NilpotentSplitting.from_bracket(mu, frame))
        x = flow.encode(mu)
    except ValueError as exc:
        n2 = bracket_inner_product(mu, mu)
        res = skt_residual(mu, frame) / n2 if n2 > 0.0 else 0.0
        skt = {"is_skt": res < tol, "dc_residual": res}
        return {"dim": mu.dim, "jacobi_residual": jacobi_residual(mu), "skt": skt, "note": str(exc)}
    res = float(flow.skt_residual(x))
    cert = flow.soliton_certificate(x)
    return {
        "dim": mu.dim,
        "skt": {"is_skt": res < tol, "dc_residual": res},
        "soliton": {"alpha": cert.alpha, "residual": cert.residual},
        "tr_P": float(np.trace(flow.p_block(x))),
    }


def _check(kind: str, data, tol: float) -> dict:
    if kind == "almost_abelian":
        return _check_almost_abelian(data, tol)
    return _check_nilpotent(*data, tol)


def _overflowed(report) -> bool:
    """Whether a number in a check report is not finite.  An infinite
    extinction time is not an overflow: the flow then never blows up."""
    if isinstance(report, dict):
        return any(_overflowed(v) for k, v in report.items() if not (k == "extinction_time" and v == math.inf))
    if isinstance(report, list):
        return any(_overflowed(v) for v in report)
    return isinstance(report, float) and not math.isfinite(report)


def _out_of_memory_is_one_line(cmd):
    """Wrap cmd so that a MemoryError, which a large enough input brings
    about, ends it with one line naming the input and exit 1."""

    @functools.wraps(cmd)
    def run(args) -> int:
        try:
            return cmd(args)
        except MemoryError:
            raise SystemExit(f"{args.input}: out of memory") from None

    return run


@_out_of_memory_is_one_line
def cmd_check(args) -> int:
    # finite input can still overflow; the report below refuses it, so numpy's
    # floating-point warnings would only repeat that on stderr
    with np.errstate(all="ignore"):
        out = _check(*_load_input(args.input), args.tol)
    if _overflowed(out):
        raise SystemExit(f"{args.input}: arithmetic overflow")
    sys.stdout.write(dumps_json({"input": args.input, **out}))
    if args.require_skt and not out["skt"]["is_skt"]:
        return 2
    return 0


@_out_of_memory_is_one_line
def cmd_flow(args) -> int:
    kind, data = _load_input(args.input)
    samples = np.linspace(0.0, args.horizon, args.samples) if args.samples else None
    # a run that overflows ends on NONFINITE or with a ValueError, so numpy's
    # floating-point warnings would only repeat that on stderr
    with np.errstate(all="ignore"):
        try:
            if kind == "almost_abelian":
                mode = {"unnormalized": aa.UNNORMALIZED, "normalized": aa.A_NORM_FIXED}[args.mode]
                traj = aa.integrate_reduced_flow(data, mode, args.horizon, samples)
            else:
                norm = {"unnormalized": "none", "normalized": "unit_norm"}[args.mode]
                cfg = engine.IntegratorConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol, sample_times=samples)
                traj = nilflow.integrate_nil_flow(*data, args.horizon, norm, cfg)
        except ValueError as exc:
            raise SystemExit(f"{args.input}: {exc}")
        cols = traj.diagnostics()
    raw = traj.raw
    text = write_csv(args.out if args.out else sys.stdout, cols)
    summary = f"terminal {raw.terminal_event} at t={format_float(raw.final_time)}"
    if raw.blowup is not None:
        summary += f" T_est={format_float(raw.blowup.t_est)}"
    if kind == "nilpotent" and raw.terminal_event == engine.FIXED_POINT:
        cert = traj.flow.soliton_certificate(raw.final_state)
        summary += f" soliton_residual={format_float(cert.residual)}"
    summary += f" accepted={raw.n_accepted} rejected={raw.n_rejected} field_calls={raw.n_field_calls}"
    print(summary, file=sys.stderr)
    return 1 if raw.terminal_event == engine.NONFINITE else 0


def cmd_verify(args) -> int:
    if args.suite == "appendix":
        rep = verification.suite_appendix(seed=args.seed)
    elif args.suite == "identities":
        rep = verification.suite_identities(seed=args.seed)
    else:
        rep = verification.suite_table1()
    sys.stdout.write(dumps_json({"suite": args.suite, **rep}))
    return 0 if rep["ok"] else 1


def cmd_catalog(args) -> int:
    rows = []
    for name in catalog.catalog_names():
        entry = catalog.get_entry(name)
        rows.append({"name": name, "kind": entry.kind, "expected": entry.expected})
    sys.stdout.write(dumps_json(rows))
    return 0


def cmd_sweep(args) -> int:
    out = {}
    for name in catalog.catalog_names():
        entry = catalog.get_entry(name)
        out[name] = _check(entry.kind, entry.data, nilflow.SKT_TOL)
    sys.stdout.write(dumps_json(out))
    return 0


def _positive(text: str) -> float:
    """argparse type: a finite number > 0."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive: {text!r}")
    return x


def _count(text: str) -> int:
    """argparse type: an integer >= 0."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0: {text!r}")
    return n


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pluriflow", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="algebraic SKT/soliton/classification checks")
    c.add_argument("input", help="JSON file or catalog:NAME")
    c.add_argument(
        "--tol",
        type=_positive,
        default=nilflow.SKT_TOL,
        help="cutoff of the bracket SKT verdict on dc_residual (max |d(c)| / |mu|^2; flow's own cutoff is the "
        "default) and of the almost-abelian soliton certificate; the almost-abelian SKT verdict always reads its "
        "closure at 1e-9",
    )
    c.add_argument("--require-skt", action="store_true", help="exit 2 if the input is not SKT")
    c.set_defaults(fn=cmd_check)

    f = sub.add_parser("flow", help="integrate a flow and emit trajectory CSV")
    f.add_argument("input", help="JSON file or catalog:NAME")
    f.add_argument("--mode", choices=["unnormalized", "normalized"], default="unnormalized")
    f.add_argument("--horizon", type=_positive, default=100.0)
    f.add_argument("--samples", type=_count, default=0, help="number of sample times (0: accepted steps, or the reduced flow's tau grid)")
    f.add_argument("--rel-tol", type=_positive, default=1e-10, help="2-step flow only")
    f.add_argument("--abs-tol", type=_positive, default=1e-12, help="2-step flow only")
    f.add_argument("--out", help="CSV output path (default: stdout)")
    f.set_defaults(fn=cmd_flow)

    v = sub.add_parser("verify", help="run a randomized verification suite")
    v.add_argument("--suite", choices=["appendix", "identities", "table1"], required=True)
    v.add_argument("--seed", type=_count, default=0)
    v.set_defaults(fn=cmd_verify)

    g = sub.add_parser("catalog", help="list built-in example structures")
    g.set_defaults(fn=cmd_catalog)

    s = sub.add_parser("sweep", help="run checks over the whole catalog")
    s.set_defaults(fn=cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
