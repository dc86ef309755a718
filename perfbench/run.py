"""pluriflow benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
Each batch of the workload runs in a fresh process, which imports pluriflow,
generates every input from the seed before any timing starts, and then runs
the batch's items in turn.  With --trace 0 the run makes a fixed number of
passes over the batches, set by S and the workload's nominal pass length,
scales the item times to a reference machine speed (speed.py), and reports
the end-to-end metrics; with --trace 1 it makes one untraced and one traced
pass, without the speed probe, and reports the per-layer metrics.  The last
line of standard output is the result; per-item records, spans and run facts
are written under perfbench/out/.
Workloads, gates and the held-out seed are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# The length of one pass over all batches of a workload, batch processes
# included, as measured at the seed on a 2-vCPU VM.  A run of S seconds makes
# round(S / PASS_S) passes: a constant, so that a faster program runs the same
# batches as a slower one.
PASS_S = {"nil_flow": 30.0, "reduced_flow": 38.0, "check": 17.0, "verify": 17.0}
WORKLOAD_NAMES = tuple(PASS_S)
NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BATCH_TIMEOUT_S = 170
SETUP_SAMPLES = 5  # cold starts per run; batch processes count, probes make up the rest


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a batch process, started by the run itself
    p.add_argument("--batch", type=int, help=argparse.SUPPRESS)
    p.add_argument("--pass-no", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_dir(args) -> Path:
    return OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"


# --- batch process ------------------------------------------------------------


class Runner:
    """Runs items in turn (closed loop, one client) and keeps one record each."""

    def __init__(self, name: str, wl, workdir: Path, tracer=None, probe=None):
        self.name = name
        self.wl = wl
        self.workdir = workdir
        self.tracer = tracer
        self.probe = probe
        self.run = wl.run if tracer is None else tracer.wrap("item", wl.run)
        self.records = []
        self.causes = []

    def run_item(self, item, pass_no: int) -> tuple[float, float]:
        """Run one item and gate its output; returns its latency in seconds,
        and that latency at the reference speed (the same without a probe)."""
        tracer, probe = self.tracer, self.probe
        if tracer is not None:
            tracer.begin_trace(f"p{pass_no}/{item.id}")
        error = None
        if probe is not None:
            probe.begin()
        t0 = time.perf_counter()
        try:
            out = self.run(item, self.workdir)
        except Exception as exc:  # an item that raises is a failed item, not a crashed run
            out, error = None, f"{type(exc).__name__}: {exc}"
        latency = ref = time.perf_counter() - t0
        if probe is not None:  # the probe leaves its own time out
            latency, ref = probe.end()
        if tracer is not None:
            tracer.paused = True
        try:
            gates, known = ({"raised": False}, {}) if error else self.wl.gate(item, out)
        except Exception as exc:
            gates, known, error = {"gate_raised": False}, {}, f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.paused = False
        gates = {k: bool(v) for k, v in gates.items()}
        causes = {g: known[g] for g, ok in gates.items() if not ok and g in known}
        self.records.append({
            "workload": self.name, "pass": pass_no, "batch": item.batch, "item": item.id, "kind": item.kind,
            "d": item.dim, "latency_ms": latency * 1e3, "ref_ms": ref * 1e3,
            "terminal_event": out.terminal_event if out else None,
            "accepted": out.accepted if out else None, "rejected": out.rejected if out else None,
            "gates": gates, "excused": [], "passed": all(gates.values()), "error": error,
        })
        self.causes.append(causes)
        return latency, ref

    def settle(self):
        """Test the known causes of the failed gates, once the batch has ended.
        A failed gate whose cause the item does not show, or an exception, is
        a hard failure: it makes the run incorrect."""
        if self.tracer is not None:
            self.tracer.paused = True
        for rec, causes in zip(self.records, self.causes):
            for gate, cause in causes.items():
                try:
                    shown = cause() if callable(cause) else cause
                except Exception as exc:  # a cause test that raises shows no cause
                    shown, rec["error"] = False, f"cause of {gate}: {type(exc).__name__}: {exc}"
                if shown:
                    rec["excused"].append(gate)
            rec["hard_fail"] = rec["error"] is not None or any(
                not ok and g not in rec["excused"] for g, ok in rec["gates"].items())


def run_facts() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def run_batch(args) -> dict:
    """Cold start, then one batch: what a fresh process reports to the run."""
    clock = speed.SetupClock()
    clock.start()
    t0 = clock.now()
    import pluriflow
    import workloads  # imports the pluriflow modules the workloads call

    t1 = clock.now()
    if not Path(pluriflow.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported pluriflow from {pluriflow.__file__}, not from {SRC}")
    rundir = run_dir(args)
    items = workloads.generate(args.workload, args.seed)
    t2 = clock.now()
    digest = workloads.prepare(args.workload, items, rundir / "inputs")
    t3 = clock.now()
    scale = clock.stop()
    setup = {"import_s": t1 - t0, "generate_s": t2 - t1, "prepare_s": t3 - t2, "setup_raw_s": t3 - t0,
             "setup_s": (t3 - t0) * scale, "digest": digest}
    if args.setup_only:
        return setup

    tracer = None
    if args.traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload]
    # the probe's interruptions would land inside the traced spans, so only
    # untraced runs scale their times
    probe = None
    if wl.scaled and not args.trace:
        probe = speed.SpeedProbe()
        probe.start()
    runner = Runner(args.workload, wl, rundir / "work", tracer, probe)
    try:
        times = [runner.run_item(item, args.pass_no) for item in items if item.batch == args.batch]
    finally:
        if probe is not None:
            probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.settle()
    out = {
        **setup,
        "n_batches": 1 + max(item.batch for item in items),
        "batch_s": sum(t for t, _ in times),
        "batch_ref_s": sum(r for _, r in times),
        "probe_s": statistics.median(probe.probes) if probe is not None else None,
        "peak_rss_mb": peak_rss_mb,
        "records": runner.records,
        "facts": run_facts(),
    }
    if tracer is not None:
        tracer.write(rundir / f"spans-p{args.pass_no}-b{args.batch}.npz")
        out["summary"] = tracer.summary()
        out["counts"] = dict(tracer.counts)
    return out


# --- the run ------------------------------------------------------------------


def spawn_batch(args, pass_no: int, batch: int, *flags: str) -> dict:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--batch", str(batch), "--pass-no", str(pass_no), *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=BATCH_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: batch {batch} of pass {pass_no} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(args, pass_no: int, *flags: str) -> list[dict]:
    outs = [spawn_batch(args, pass_no, 0, *flags)]
    outs += [spawn_batch(args, pass_no, b, *flags) for b in range(1, outs[0]["n_batches"])]
    return outs


def one_pass(passes, key: str) -> float:
    """The time of one pass over all batches, each batch at its median over passes."""
    return sum(statistics.median(p[b][key] for p in passes) for b in range(len(passes[0])))


def gate_counts(records) -> dict:
    counts = {}
    for r in records:
        for gate, ok in r["gates"].items():
            c = counts.setdefault(gate, {"pass": 0, "fail": 0})
            c["pass" if ok else "fail"] += 1
    return counts


def latency_report(records) -> dict:
    """Median item latency, and p90 only where at least ten samples lie beyond it."""
    lat = [r["latency_ms"] for r in records]
    out = {"samples": len(lat), "p50_ms": statistics.median(lat)}
    if len(lat) >= 100:
        out["p90_ms"] = statistics.quantiles(lat, n=10)[-1]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pluriflow" / "__init__.py").is_file():
        print(f"perfbench: no pluriflow package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(SRC))
    if args.batch is not None:
        print(json.dumps(run_batch(args)))
        return 0

    rundir = run_dir(args)
    (rundir / "work").mkdir(parents=True, exist_ok=True)
    passes = [run_pass(args, 0)]
    if args.trace:
        passes.append(run_pass(args, 1, "--traced"))
    else:
        passes += [run_pass(args, p) for p in range(1, max(1, round(args.seconds / PASS_S[args.workload])))]
    batches = [b for p in passes for b in p]
    probes = [spawn_batch(args, 0, 0, "--setup-only") for _ in range(SETUP_SAMPLES - len(batches))]
    records = [r for b in batches for r in b["records"]]
    setup = {k: statistics.median(b[k] for b in batches + probes)
             for k in ("import_s", "generate_s", "prepare_s", "setup_raw_s", "setup_s")}
    digests = sorted({b["digest"] for b in batches + probes})
    # traced latencies carry the wrappers' cost, so only untraced ones count
    lat = latency_report([r for r in records if not (args.trace and r["pass"] == 1)])

    if args.trace:
        import tracer as tracing

        untraced, traced = (sum(b["batch_s"] for b in p) for p in passes)
        summary, counts = tracing.merge([(b["summary"], b["counts"]) for b in passes[1]])
        layers = tracing.per_layer(summary, counts, setup, traced - untraced)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        extra = {"untraced_pass_s": untraced, "traced_pass_s": traced, "span_summary": summary, "counts": counts}
    else:
        metrics = {
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            # one pass over the whole item set at the reference speed, each
            # batch at its median over passes
            "wall_ref_s": {"value": one_pass(passes, "batch_ref_s"), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(b["peak_rss_mb"] for b in batches), "unit": "MB"},
        }
        extra = {"wall_s": one_pass(passes, "batch_s"), "probe_s": [b["probe_s"] for b in batches]}

    failed = sum(not r["passed"] for r in records)
    correct = len(digests) == 1 and not any(r["hard_fail"] for r in records)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": batches[0]["facts"],
        "input_digests": digests,
        "setup": setup,
        "batch_s": [b["batch_s"] for b in batches],
        "peak_rss_mb": [b["peak_rss_mb"] for b in batches],
        "latency": lat,
        "gates": gate_counts(records),
        "attempted": len(records),
        "failed": failed,
        "fail_ratio": failed / len(records),
        "correct": correct,
        "metrics": metrics,
        **extra,
    }
    with open(rundir / "items.jsonl", "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    (rundir / "result.json").write_text(json.dumps(result, indent=2))

    print_report(result)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


def print_report(result):
    f = result["facts"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} nproc={f['nproc']} "
          f"blas_threads={f['blas_threads']} cpu={f['cpu_model']!r}")
    print(f"# python {f['python']} numpy {f['numpy']} scipy {f['scipy']} blas {f['blas']}")
    print(f"# inputs {' '.join(result['input_digests'])} in {len(result['batch_s'])} batch processes")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    if "wall_s" in result:
        print(f"{'wall_s':40s} {result['wall_s']:.6g} s  [unscaled]")
    lat = result["latency"]
    p90 = f"{lat['p90_ms']:.6g} ms" if "p90_ms" in lat else "n/a (fewer than 100 samples)"
    print(f"{'item_p50_ms':40s} {lat['p50_ms']:.6g} ms  [{lat['samples']} samples]")
    print(f"{'item_p90_ms':40s} {p90}")
    if result["trace"]:
        print(f"# tracing overhead: {result['traced_pass_s'] - result['untraced_pass_s']:.4f} s on an "
              f"untraced pass of {result['untraced_pass_s']:.4f} s")
    print(f"{'fail_ratio':40s} {result['fail_ratio']:.6g} 1  [{result['failed']} of {result['attempted']}]")
    for gate, c in sorted(result["gates"].items()):
        print(f"# gate {gate:20s} pass {c['pass']:5d} fail {c['fail']:5d}")


if __name__ == "__main__":
    sys.exit(main())
