"""Record the benchmark of two commits side by side, as one BENCH_*.json.

    python3 tools/bench_record.py --parent REV --out BENCH_N.json

The change is HEAD.  Each commit is exported with `git archive` into a
temporary directory, so the record reflects committed files only.  For seeds 7
and 271828 and every workload of BENCHMARK.json, the script runs
perfbench/run.py `--trace 0` in 10 alternating pairs (parent first in even
pairs, change first in odd ones), then one `--trace 1` run per commit, all for
BENCHMARK.json's `run_seconds`.

The output keeps, per seed, workload and commit: every run's end-to-end
metrics (`wall_ref_s`, `setup_s`, `peak_rss_mb`) with their median and
quartiles, how many pairs the change won, the traced per-layer metrics named
in PER_LAYER (`derivation_space`, the nil-flow certificate, the engine, the
reduced and nil fields' call counts, the nil field's time per call, CSV
writing, the three verify suites, the Koszul Ricci oracle, the normality flow
and `cli.main`), the correctness counts, the failed items with their failed
gates, and the input digests; and once, the commits and each commit's run
facts.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("wall_ref_s", "setup_s", "peak_rss_mb")
PAIRS = 10
SEEDS = (7, 271828)
PER_LAYER = ("brackets.derivation_space_s", "brackets.derivation_space_peak_mb", "nilflow.certificate_s",
             "engine.self_s", "engine.steps_accepted", "engine.steps_rejected", "nilflow.field_calls",
             "nilflow.field_us", "almostabelian.field_calls", "almostabelian.classify_us",
             "serialize.write_csv_s", "serialize.bytes_out", "verification.suite_appendix_s",
             "verification.suite_identities_s", "verification.suite_table1_s", "nilflow.ricci_koszul_s",
             "normality.flow_s", "cli.main_s")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: Path) -> str:
    """Extract the tree of rev into dest; returns the full commit hash."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(dest, filter="data")
    return sha


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout.name}: {' '.join(cmd)} failed:\n{proc.stderr}")
    out = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}"
    result = json.loads((out / "result.json").read_text())
    items = [json.loads(line) for line in (out / "items.jsonl").read_text().splitlines()]
    # one entry per failed item and gate: `failed` counts item runs, and a
    # run of several passes repeats the same item
    result["failed_items"] = sorted({
        f"{r['item']}: {gate}" + (" (excused)" if gate in r["excused"] else "")
        for r in items if not r["passed"] for gate, ok in r["gates"].items() if not ok})
    return result


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def record_workload(checkouts: dict, workload: str, seed: int, seconds: float) -> dict:
    untraced = {side: [] for side in checkouts}
    for p in range(PAIRS):
        order = list(checkouts) if p % 2 == 0 else list(checkouts)[::-1]
        for side in order:
            untraced[side].append(run(checkouts[side], workload, seed, seconds, 0))
            print(f"seed {seed} {workload} pair {p} {side}: "
                  f"wall_ref_s {untraced[side][-1]['metrics']['wall_ref_s']['value']:.4f}", file=sys.stderr)
    out = {}
    for side, results in untraced.items():
        traced = run(checkouts[side], workload, seed, seconds, 1)
        out[side] = {
            **{m: spread([r["metrics"][m]["value"] for r in results]) for m in END_TO_END},
            "trace": {m: traced["metrics"][m]["value"] for m in PER_LAYER},
            "untraced_pass_s": traced["untraced_pass_s"],
            "correct": all(r["correct"] for r in results + [traced]),
            "attempted": results[0]["attempted"],
            "failed": max(r["failed"] for r in results + [traced]),
            "failed_items": sorted({f for r in results + [traced] for f in r["failed_items"]}),
            "input_digests": sorted({d for r in results + [traced] for d in r["input_digests"]}),
            "facts": results[0]["facts"],
        }
    parent, change = (untraced[side] for side in checkouts)
    for m in END_TO_END:
        out[f"{m}_change_wins"] = sum(
            c["metrics"][m]["value"] < p["metrics"][m]["value"] for p, c in zip(parent, change))
    out["pairs"] = PAIRS
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, help="git revision of the baseline")
    p.add_argument("--out", required=True, help="path of the JSON record to write")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        checkouts = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: export(rev, checkouts[side]) for side, rev in (("parent", args.parent), ("change", "HEAD"))}
        bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        seconds = bench["run_seconds"]
        workloads = [w["name"] for w in bench["workloads"]]
        seeds = {str(seed): {w: record_workload(checkouts, w, seed, seconds) for w in workloads}
                 for seed in SEEDS}
    record = {"commits": commits, "seconds": seconds, "end_to_end": list(END_TO_END),
              "per_layer": list(PER_LAYER), "seeds": seeds}
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
