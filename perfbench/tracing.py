"""Spans around calls into each cbnorm_lab module, installed from outside.

Every wrapper replaces a name where the program looks it up: a module
attribute for `module.name(...)` calls, and also each module that bound the
name with `from ... import name` at import time.  Recursive functions get one
span per outermost call.  Spans are kept in memory; self time is a span's
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from collections import defaultdict

import numpy as np

from cbnorm_lab import _search, cbnorm, cli, descriptors, gcb, holofun, matcore, mconvex, opspace

_now = time.perf_counter_ns

SVD = "matcore.svd"
ASCEND = "search.ascend"
LEVEL_SUP = "cbnorm.level_sup"
DESCRIPTORS = "descriptors.parse"

# (span name, recursion group or None, [(module, attribute), ...])
_PLAIN = (
    ("matcore.operator_norm", None, [(matcore, "operator_norm")]),
    ("matcore.project_ball", None, [(matcore, "project_ball")]),
    ("holofun._eval_array", "eval", [(holofun, "_eval_array")]),
    ("holofun._amplify_space_entries", "amplify_space", [(holofun, "_amplify_space_entries")]),
    ("holofun.taylor_coefficients", None, [(holofun, "taylor_coefficients")]),
    ("holofun.amplify", None, [(holofun, "amplify")]),
    ("opspace.realize", None, [(opspace, "realize"), (mconvex, "realize"), (gcb, "realize")]),
    ("opspace._random_matrix_ball", None, [(opspace, "_random_matrix_ball")]),
    ("cbnorm._upper_rules", "upper_rules", [(cbnorm, "_upper_rules")]),
    ("mconvex.hull_norm_check", None, [(mconvex, "hull_norm_check")]),
    ("mconvex.find_certificate", None, [(mconvex, "find_certificate")]),
    ("gcb.gcb_upper_bound", None, [(gcb, "gcb_upper_bound")]),
    ("gcb.gcb_lower_bound", None, [(gcb, "gcb_lower_bound")]),
    (DESCRIPTORS, DESCRIPTORS, [(descriptors, n) for n in (
        "function_from_descriptor", "space_from_descriptor", "space_matrix_from_descriptor",
        "matrix_set_from_descriptor", "gcb_element_from_descriptor", "dictionary_from_descriptor",
    )]),
    ("cli.validate_config", None, [(cli, "validate_config")]),
    ("cli.record_to_json", None, [(cli, "record_to_json")]),
    ("cli.run", None, [(cli, "run")]),
)
_SVD_SITES = [(np.linalg, "svd"), (getattr(np.linalg, "_linalg", None), "svd")]
_ASCEND_SITES = [(_search, "ascend"), (cbnorm, "ascend"), (mconvex, "ascend")]
_LEVEL_SUP_SITES = [(cbnorm, "level_sup")]


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span recorder plus the counters that need a wrapped call's arguments."""

    def __init__(self):
        self.active = False
        self.keep_spans = False
        self.op = -1
        self.spans = []  # (id, parent id, op, name, start ns, end ns)
        self.stack = []  # open spans: [id, child ns]
        self.next_id = 0
        self.depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.busy_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.svd_matrices = 0
        self.search_svd_matrices = 0  # those decomposed inside level_sup
        self.ascend_evals = 0
        self.level_restarts = 0
        self.improving_restarts = 0
        self.level_best = []  # best value so far of each open level_sup
        self.level_evals = defaultdict(int)
        self.op_levels = []  # (level, direct value) of the current op's level_sups
        self.missing = []
        self._saved = []

    # -- spans -----------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        span_id = self.next_id
        self.next_id += 1
        frame = [span_id, 0]
        self.stack.append(frame)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            self.stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self.calls[name] += 1
            self.busy_ns[name] += duration
            self.self_ns[name] += duration - frame[1]
            if self.keep_spans:
                self.spans.append(
                    (span_id, -1 if parent is None else parent[0], self.op, name, start, end)
                )

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")

    # -- wrappers --------------------------------------------------------

    def _plain(self, name, group, fn):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if group is None:
                return self.call(name, fn, args, kwargs)
            if self.depth[group]:
                return fn(*args, **kwargs)
            self.depth[group] += 1
            try:
                return self.call(name, fn, args, kwargs)
            finally:
                self.depth[group] -= 1

        return wrapper

    def _svd(self, fn):
        def wrapper(a, *args, **kwargs):
            if not self.active:
                return fn(a, *args, **kwargs)
            matrices = math.prod(np.shape(a)[:-2])
            self.svd_matrices += matrices
            if self.level_best:
                self.search_svd_matrices += matrices
            return self.call(SVD, fn, (a, *args), kwargs)

        return wrapper

    def _ascend(self, fn):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            budget = _arg(args, kwargs, 3, "budget")
            used = budget.used
            result = self.call(ASCEND, fn, args, kwargs)
            self.ascend_evals += budget.used - used
            if self.level_best:
                self.level_restarts += 1
                if result[1] > self.level_best[-1]:
                    self.improving_restarts += 1
                    self.level_best[-1] = result[1]
            return result

        return wrapper

    def _level_sup(self, fn):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            m, budget = _arg(args, kwargs, 1, "m"), _arg(args, kwargs, 2, "budget")
            self.level_best.append(-math.inf)
            try:
                witness = self.call(f"{LEVEL_SUP}.m{m}", fn, args, kwargs)
            finally:
                self.level_best.pop()
            self.level_evals[m] += budget
            self.op_levels.append((m, witness.value))
            return witness

        return wrapper

    def install(self) -> None:
        """Replace every traced name; names the program no longer has are listed
        in `missing` and read as zero."""
        for name, group, sites in _PLAIN:
            self._patch(name, sites, lambda fn, n=name, g=group: self._plain(n, g, fn))
        self._patch(SVD, _SVD_SITES, self._svd)
        self._patch(ASCEND, _ASCEND_SITES, self._ascend)
        self._patch(LEVEL_SUP, _LEVEL_SUP_SITES, self._level_sup)

    def _patch(self, name, sites, make) -> None:
        wrapped = {}
        for module, attr in sites:
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.missing.append(f"{getattr(module, '__name__', '?')}.{attr}")
                print(f"perfbench: cannot trace {name}: {attr} not found", file=sys.stderr)
                continue
            if id(original) not in wrapped:
                wrapped[id(original)] = make(original)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapped[id(original)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


LEVELS = (1, 2, 4, 8)

# (metric, unit, better): everything the traced run reports, per pass of the
# workload's op list.  Counts repeat exactly for a given seed.
PER_LAYER = (
    ("matcore.svd.calls", "count", "lower"),
    ("matcore.svd.matrices", "count", "lower"),
    ("matcore.svd.busy_s", "s", "lower"),
    ("matcore.svd_per_eval", "svd/eval", "lower"),
    ("matcore.operator_norm.self_s", "s", "lower"),
    ("matcore.project_ball.calls", "count", "lower"),
    ("holofun._eval_array.calls", "count", "lower"),
    ("holofun._eval_array.self_s", "s", "lower"),
    ("holofun._amplify_space_entries.self_s", "s", "lower"),
    ("holofun.taylor_coefficients.busy_s", "s", "lower"),
    ("holofun.amplify.busy_s", "s", "lower"),
    ("opspace.realize.calls", "count", "lower"),
    ("opspace.realize.busy_s", "s", "lower"),
    ("opspace._random_matrix_ball.calls", "count", "lower"),
    ("search.ascend.calls", "count", "lower"),
    ("search.ascend.self_s", "s", "lower"),
    ("search.evals_per_ascend", "eval/ascend", "higher"),
    ("search.improving_restart_ratio", "ratio", "higher"),
    *((f"cbnorm.level_sup.busy_s.m{m}", "s", "lower") for m in LEVELS),
    *((f"cbnorm.level_sup.evals_per_s.m{m}", "1/s", "higher") for m in LEVELS),
    *((f"cbnorm.level_sup.shortfall.m{m}", "norm", "lower") for m in LEVELS),
    ("cbnorm.lifted_levels", "count", "lower"),
    ("cbnorm._upper_rules.busy_s", "s", "lower"),
    ("mconvex.hull_norm_check.busy_s", "s", "lower"),
    ("mconvex.find_certificate.busy_s", "s", "lower"),
    ("gcb.gcb_upper_bound.busy_s", "s", "lower"),
    ("gcb.gcb_lower_bound.busy_s", "s", "lower"),
    ("descriptors.parse.busy_s", "s", "lower"),
    ("cli.validate_config.busy_s", "s", "lower"),
    ("cli.record_to_json.busy_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("trace.ops_per_s_drop", "%", "lower"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tr: Tracer, run, untraced: dict, traced: dict) -> tuple:
    """Per-pass layer metrics from the traced passes.  `untraced` and `traced`
    are the two halves of the run (passes, ops, nominal and wall seconds);
    layer times are rescaled to nominal speed by the traced half's factor."""
    passes = traced["passes"]
    scale = traced["seconds"] / traced["wall"] / 1e9 / passes
    seconds = {name: ns * scale for name, ns in tr.busy_ns.items()}
    self_s = {name: ns * scale for name, ns in tr.self_ns.items()}
    calls = {name: n / passes for name, n in tr.calls.items()}
    level_evals = sum(tr.level_evals.values())
    values = {
        "matcore.svd.calls": calls.get(SVD, 0),
        "matcore.svd.matrices": tr.svd_matrices / passes,
        "matcore.svd.busy_s": seconds.get(SVD, 0.0),
        "matcore.svd_per_eval": _ratio(tr.search_svd_matrices, level_evals),
        "matcore.operator_norm.self_s": self_s.get("matcore.operator_norm", 0.0),
        "matcore.project_ball.calls": calls.get("matcore.project_ball", 0),
        "holofun._eval_array.calls": calls.get("holofun._eval_array", 0),
        "holofun._eval_array.self_s": self_s.get("holofun._eval_array", 0.0),
        "holofun._amplify_space_entries.self_s": self_s.get("holofun._amplify_space_entries", 0.0),
        "holofun.taylor_coefficients.busy_s": seconds.get("holofun.taylor_coefficients", 0.0),
        "holofun.amplify.busy_s": seconds.get("holofun.amplify", 0.0),
        "opspace.realize.calls": calls.get("opspace.realize", 0),
        "opspace.realize.busy_s": seconds.get("opspace.realize", 0.0),
        "opspace._random_matrix_ball.calls": calls.get("opspace._random_matrix_ball", 0),
        "search.ascend.calls": calls.get(ASCEND, 0),
        "search.ascend.self_s": self_s.get(ASCEND, 0.0),
        "search.evals_per_ascend": _ratio(tr.ascend_evals, tr.calls.get(ASCEND, 0)),
        "search.improving_restart_ratio": _ratio(tr.improving_restarts, tr.level_restarts),
        "cbnorm.lifted_levels": run.lifted / passes,
        "cbnorm._upper_rules.busy_s": seconds.get("cbnorm._upper_rules", 0.0),
        "mconvex.hull_norm_check.busy_s": seconds.get("mconvex.hull_norm_check", 0.0),
        "mconvex.find_certificate.busy_s": seconds.get("mconvex.find_certificate", 0.0),
        "gcb.gcb_upper_bound.busy_s": seconds.get("gcb.gcb_upper_bound", 0.0),
        "gcb.gcb_lower_bound.busy_s": seconds.get("gcb.gcb_lower_bound", 0.0),
        "descriptors.parse.busy_s": seconds.get(DESCRIPTORS, 0.0),
        "cli.validate_config.busy_s": seconds.get("cli.validate_config", 0.0),
        "cli.record_to_json.busy_s": seconds.get("cli.record_to_json", 0.0),
        "cli.run.self_s": self_s.get("cli.run", 0.0),
    }
    for m in LEVELS:
        busy = seconds.get(f"{LEVEL_SUP}.m{m}", 0.0)
        values[f"cbnorm.level_sup.busy_s.m{m}"] = busy
        values[f"cbnorm.level_sup.evals_per_s.m{m}"] = _ratio(tr.level_evals[m] / passes, busy)
        total, count = run.shortfall.get(m, (0.0, 0))
        values[f"cbnorm.level_sup.shortfall.m{m}"] = _ratio(total, count)
    untraced_rate = _ratio(untraced["ops"], untraced["seconds"])
    traced_rate = _ratio(traced["ops"], traced["seconds"])
    values["trace.ops_per_s_drop"] = 100.0 * _ratio(untraced_rate - traced_rate, untraced_rate)

    metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
    notes = {
        "trace.ops_per_s_drop": f"ops_per_s untraced {untraced_rate:.6g}, traced {traced_rate:.6g}",
        "traced passes": f"{passes} traced, {untraced['passes']} untraced",
    }
    if tr.missing:
        notes["missing hooks"] = ", ".join(tr.missing)
    return metrics, notes
