"""Spans and counts around the public functions of each pluriflow module.

The wrappers are installed from here, so the package itself is unchanged.  A
function is rebound on its defining module and on every pluriflow module that
imported it by name.  Spans stay in memory as parallel arrays (name, start,
end, parent span, trace id) and are written out once the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from array import array
from collections import Counter

import numpy as np

INTEGRATE = "engine.integrate"
NIL_FIELD = "nilflow.field"
AA_FIELD = "almostabelian.field"
OTHER_FIELD = "engine.field"  # a field the engine got that is not a flow class method
REFINE = "nilflow.refine_fixed_point"

FIELDS = (NIL_FIELD, AA_FIELD, OTHER_FIELD)
PEAK_MB = "brackets.derivation_space_peak_mb"


def _targets():
    """(module, function, span name) for every traced public function, and
    (class, method, span name) for the traced methods."""
    from pluriflow import almostabelian, brackets, cli, engine, hermitian, nilflow, normality
    from pluriflow import serialize, verification

    functions = [
        (engine, "integrate", INTEGRATE),
        (nilflow, "refine_fixed_point", REFINE),
        (nilflow, "soliton_limit_certificate", "nilflow.certificate"),
        (nilflow, "ricci_koszul", "nilflow.ricci_koszul"),
        (brackets, "infinitesimal_action", "brackets.infinitesimal_action"),
        (brackets, "derivation_space", "brackets.derivation_space"),
        (brackets, "center", "brackets.center"),
        (hermitian, "skt_residual", "hermitian.skt_residual"),
        (almostabelian, "skt_verdict", "almostabelian.skt_verdict"),
        (almostabelian, "classify", "almostabelian.classify"),
        (almostabelian, "soliton_certificate", "almostabelian.soliton_certificate"),
        (normality, "normality_report", "normality.report"),
        (normality, "normality_flow", "normality.flow"),
        (verification, "suite_appendix", "verification.suite_appendix"),
        (verification, "suite_identities", "verification.suite_identities"),
        (verification, "suite_table1", "verification.suite_table1"),
        (serialize, "write_csv", "serialize.write_csv"),
        (serialize, "dumps_json", "serialize.dumps_json"),
        (cli, "main", "cli.main"),
    ]
    methods = [
        (nilflow.NilFlow, "field", NIL_FIELD),
        (nilflow.NilTrajectory, "diagnostics", "nilflow.diagnostics"),
        (almostabelian.ReducedFlow, "field", AA_FIELD),
        (almostabelian.ReducedTrajectory, "diagnostics", "almostabelian.diagnostics"),
    ]
    return functions, methods, brackets.LieBracket


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.traces: list[str] = []
        self._name_code: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trace = array("i")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.paused = False

    # --- recording ---------------------------------------------------------
    def begin_trace(self, trace_id: str):
        self.traces.append(trace_id)

    def _code(self, name: str) -> int:
        code = self._name_code.get(name)
        if code is None:
            code = self._name_code[name] = len(self.names)
            self.names.append(name)
        return code

    def wrap(self, name: str, fn, on_result=None):
        """fn with a span around each call; on_result(result) runs after it."""
        code = self._code(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(code)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.trace.append(len(self.traces) - 1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.traced_by_perfbench = True
        return traced

    # --- installation ------------------------------------------------------
    def install(self):
        functions, methods, lie_bracket = _targets()
        for module, fname, span in functions:
            orig = getattr(module, fname)
            _rebind(orig, self.wrap(span, self._hooked(fname, orig), self._on_result(fname)))
        for cls, mname, span in methods:
            orig = getattr(cls, mname)
            on_result = self._count_rows(span) if mname == "diagnostics" else None
            setattr(cls, mname, self.wrap(span, orig, on_result))
        post_init = lie_bracket.__post_init__

        def counted_post_init(obj):
            if not self.paused:
                self.counts["brackets.liebracket_inits"] += 1
            post_init(obj)

        lie_bracket.__post_init__ = counted_post_init

    def _hooked(self, fname, fn):
        if fname == "integrate":

            def integrate(field_fn, *args, **kwargs):
                inner = getattr(field_fn, "__func__", field_fn)
                if not getattr(inner, "traced_by_perfbench", False):
                    field_fn = self.wrap(OTHER_FIELD, field_fn)
                return fn(field_fn, *args, **kwargs)

            return integrate
        if fname == "derivation_space":

            def derivation_space(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.counts[PEAK_MB] = max(self.counts[PEAK_MB], peak)

            return derivation_space
        return fn

    def _on_result(self, fname):
        if fname == "integrate":

            def steps(traj):
                self.counts["engine.steps_accepted"] += traj.n_accepted
                self.counts["engine.steps_rejected"] += traj.n_rejected

            return steps
        if fname in ("write_csv", "dumps_json"):

            def nbytes(text):
                self.counts["serialize.bytes_out"] += len(text)

            return nbytes
        return None

    def _count_rows(self, span):
        def rows(cols):
            self.counts[f"{span}.rows"] += len(cols["t"])

        return rows

    # --- analysis ----------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "trace": np.frombuffer(self.trace, dtype=np.int32),
        }

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, with the children of
        integrate and refine that are field evaluations."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        out = {}
        for code, name in enumerate(self.names):
            sel = a["name"] == code
            out[name] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()), "self_s": float(self_time[sel].sum())}
        is_field = np.isin(a["name"], [self._name_code[f] for f in FIELDS if f in self._name_code])
        parent_name = np.where(has_parent, a["name"][np.maximum(a["parent"], 0)], -1)
        for outer in (INTEGRATE, REFINE):
            if outer in out:
                out[outer]["field_children"] = int(np.sum(is_field & (parent_name == self._name_code[outer])))
        return out

    def write(self, path):
        np.savez_compressed(path, names=np.array(self.names), traces=np.array(self.traces), **self.arrays())


def _rebind(orig, new):
    """Replace orig by new on every pluriflow module that holds it by name."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "pluriflow" or modname.startswith("pluriflow.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, new)


def merge(parts):
    """Sum the (summary, counts) of several traced processes; peaks take the max."""
    summary, counts = {}, Counter()
    for part_summary, part_counts in parts:
        for name, stats in part_summary.items():
            acc = summary.setdefault(name, {})
            for key, value in stats.items():
                acc[key] = acc.get(key, 0) + value
        for key, value in part_counts.items():
            counts[key] = max(counts[key], value) if key == PEAK_MB else counts[key] + value
    return summary, counts


def per_layer(s: dict, c: Counter, setup: dict, overhead_s: float) -> dict:
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""

    def total(name):
        return s.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def mean(name, scale):
        n = calls(name)
        return total(name) / n * scale if n else 0.0

    def ratio(x, y):
        return x / y if y else 0.0

    acc, rej = c["engine.steps_accepted"], c["engine.steps_rejected"]
    steps = acc + rej
    integ = s.get(INTEGRATE, {})
    engine_self = integ.get("self_s", 0.0)
    return {
        "engine.self_s": (engine_self, "s"),
        "engine.self_us_per_step": (ratio(engine_self, steps) * 1e6, "us"),
        "engine.steps_accepted": (acc, "count"),
        "engine.steps_rejected": (rej, "count"),
        "engine.accept_ratio": (ratio(acc, steps), "1"),
        "engine.field_evals_per_step": (ratio(integ.get("field_children", 0), steps), "1"),
        "nilflow.field_us": (mean(NIL_FIELD, 1e6), "us"),
        "nilflow.field_calls": (calls(NIL_FIELD), "count"),
        "nilflow.diagnostics_us_per_row": (
            ratio(total("nilflow.diagnostics"), c["nilflow.diagnostics.rows"]) * 1e6, "us"),
        "nilflow.refine_s": (total(REFINE), "s"),
        "nilflow.refine_field_calls": (s.get(REFINE, {}).get("field_children", 0), "count"),
        "nilflow.certificate_s": (total("nilflow.certificate"), "s"),
        "nilflow.ricci_koszul_s": (total("nilflow.ricci_koszul"), "s"),
        "brackets.liebracket_inits": (c["brackets.liebracket_inits"], "count"),
        "brackets.infinitesimal_action_calls": (calls("brackets.infinitesimal_action"), "count"),
        "brackets.infinitesimal_action_us": (mean("brackets.infinitesimal_action", 1e6), "us"),
        "brackets.derivation_space_s": (total("brackets.derivation_space"), "s"),
        "brackets.derivation_space_calls": (calls("brackets.derivation_space"), "count"),
        "brackets.derivation_space_peak_mb": (c[PEAK_MB], "MB"),
        "brackets.center_calls": (calls("brackets.center"), "count"),
        "brackets.center_us": (mean("brackets.center", 1e6), "us"),
        "hermitian.skt_residual_us": (mean("hermitian.skt_residual", 1e6), "us"),
        "hermitian.skt_residual_calls": (calls("hermitian.skt_residual"), "count"),
        "almostabelian.field_us": (mean(AA_FIELD, 1e6), "us"),
        "almostabelian.field_calls": (calls(AA_FIELD), "count"),
        "almostabelian.diagnostics_us_per_row": (
            ratio(total("almostabelian.diagnostics"), c["almostabelian.diagnostics.rows"]) * 1e6, "us"),
        "almostabelian.skt_verdict_us": (mean("almostabelian.skt_verdict", 1e6), "us"),
        "almostabelian.classify_us": (mean("almostabelian.classify", 1e6), "us"),
        "almostabelian.soliton_certificate_ms": (mean("almostabelian.soliton_certificate", 1e3), "ms"),
        "normality.report_us": (mean("normality.report", 1e6), "us"),
        "normality.flow_s": (total("normality.flow"), "s"),
        "verification.suite_appendix_s": (total("verification.suite_appendix"), "s"),
        "verification.suite_identities_s": (total("verification.suite_identities"), "s"),
        "verification.suite_table1_s": (total("verification.suite_table1"), "s"),
        "serialize.write_csv_s": (total("serialize.write_csv"), "s"),
        "serialize.dumps_json_s": (total("serialize.dumps_json"), "s"),
        "serialize.bytes_out": (c["serialize.bytes_out"], "B"),
        "cli.main_s": (total("cli.main"), "s"),
        "sampling.generate_s": (setup["generate_s"], "s"),
        "pluriflow.import_s": (setup["import_s"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
