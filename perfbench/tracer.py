"""In-memory span recorder for the traced benchmark sample.

The benchmark wraps each nctheta layer's calls from outside the package,
so the program under test is unchanged.  A span is (name, start, end,
parent); spans stay in memory until the sample ends, when `write_artifact`
dumps them and `layer_metrics` derives inclusive and self times from them.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


def _as_arrays_bytes(args, result):
    keys, _ = result
    n, d = keys.shape
    return n * (8 * d + 16)


# (span name, patch targets, counters).  A target is (module, attribute
# path); modules that imported a function by name are patched as well as
# the defining module.  A counter maps (args, result) of one call to the
# amount it adds.
SPEC = [
    ("cli.run_config", [("cli", "run_config")], {}),
    ("holomorphy.solve", [("holomorphy", "classify_holomorphic"),
                          ("holomorphy", "solve_partial"),
                          ("holomorphy", "build_theta_vector")], {}),
    ("theta.quantum_theta", [("theta", "quantum_theta")], {}),
    ("theta.inner_product_closed", [("theta", "inner_product_closed")], {}),
    ("theta.gaussian_integral", [("theta", "gaussian_integral")], {}),
    ("theta.lattice_sums", [("theta", "_shifted_lattice_sums")],
     {"elems": lambda args, result: result[1].size}),
    ("theta.theta_coefficients", [("theta", "theta_coefficients"),
                                  ("manin", "theta_coefficients")],
     {"rows": lambda args, result: len(args[2])}),
    ("theta.decay_certificate", [("theta", "decay_certificate")], {}),
    ("lattice.as_arrays", [("lattice", "QuantumElement.as_arrays")],
     {"bytes": _as_arrays_bytes}),
    ("lattice.point", [("lattice", "EmbeddingMap.point")], {}),
    ("lattice.element_build", [("lattice", "QuantumElement.__post_init__")],
     {"keys": lambda args, result: len(args[0].coeffs)}),
    ("lattice.to_dict", [("lattice", "QuantumElement.to_dict")], {}),
    ("lattice.multiply", [("lattice", "QuantumElement.multiply")],
     {"pairs": lambda args, result: len(args[0].coeffs) * len(args[1].coeffs)}),
    ("manin.verify_fe", [("manin", "verify_functional_equation")], {}),
    ("manin.multipliers", [("manin", "_multipliers")],
     {"rows": lambda args, result: len(args[3])}),
    ("manin.translation_factor", [("manin", "translation_factor")], {}),
    ("manin.degeneracy_scan", [("manin", "degeneracy_scan")], {}),
    ("manin.cocycle", [("manin", "verify_cocycle_consistency")],
     {"pairs_checked": lambda args, result: result["pairs_checked"],
      "pairs_skipped": lambda args, result: result["pairs_skipped_degenerate"]}),
    ("manin.additivity", [("manin", "additivity_probe")],
     {"triples": lambda args, result: result["triples_checked"]}),
    ("manin.translate", [("manin", "translate")], {}),
    ("manin.fe_ops", [("manin", "functional_equation_residual_ops")], {}),
    ("reports.render", [("cli", "write_report"), ("reports", "write_report")],
     {"bytes": lambda args, result: len(result.encode())}),
]

# Per-layer metrics of a traced sample: (name, unit, better).
PER_LAYER = [("trace.wall_s", "s", "lower"),
             ("trace.overhead_s", "s", "lower"),
             ("trace.coverage", "ratio", "higher"),
             ("trace.spans", "count", "lower")]
for _name, _, _counters in SPEC:
    PER_LAYER += [(f"{_name}.calls", "count", "lower"),
                  (f"{_name}.s", "s", "lower"),
                  (f"{_name}.self_s", "s", "lower")]
    PER_LAYER += [(f"{_name}.{key}", "B" if key == "bytes" else "count", "lower")
                  for key in _counters]


class Tracer:
    """Records nested spans around patched callables of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list = []

    def install(self, modules: dict):
        """Patch every SPEC entry; `modules` maps short names to modules."""
        for name, targets, counters in SPEC:
            for module_name, path in targets:
                owner = modules[module_name]
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original, counters))
                self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name, original, counters):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for key, count in counters.items():
                counts[f"{name}.{key}"] += int(count(args, result))
            return result

        return wrapper

    def span_table(self):
        """Spans as (name, start, end, parent) with names resolved."""
        return [(self.names[n], s, e, p) for n, s, e, p in self.spans]

    def write_artifact(self, path, extra: dict):
        origin = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
        doc["spans"] = [[name, start - origin, end - origin, parent]
                        for name, start, end, parent in self.span_table()]
        doc["counters"] = dict(sorted(self.counts.items()))
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


def span_times(spans):
    """Per-name calls, inclusive and self time from (name, start, end, parent).

    Inclusive time counts only the outermost span of each name, so a layer
    that re-enters itself is not counted twice.  Self time is a span's
    duration minus the durations of its direct children.
    """
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    for name, start, end, parent in spans:
        calls[name] += 1
        self_time[name] += end - start
        if parent >= 0:
            self_time[spans[parent][0]] -= end - start
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] += end - start
    roots = sum(end - start for _, start, end, parent in spans if parent < 0)
    return calls, inclusive, self_time, roots


def layer_metrics(spans, counts, wall_s):
    """Per-layer metric values of one traced sample, except the overhead,
    which needs an untraced sample to compare with."""
    calls, inclusive, self_time, roots = span_times(spans)
    values = {"trace.wall_s": wall_s, "trace.coverage": roots / wall_s,
              "trace.spans": len(spans)}
    for name, _, counters in SPEC:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.s"] = inclusive[name]
        values[f"{name}.self_s"] = self_time[name]
        for key in counters:
            values[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0)
    return values


def self_time_table(values):
    """Lines of a per-layer table sorted by self time, largest first."""
    rows = sorted(((values[f"{name}.self_s"], values[f"{name}.s"],
                    values[f"{name}.calls"], name) for name, _, _ in SPEC),
                  reverse=True)
    lines = [f"{'layer':<28} {'self_s':>9} {'incl_s':>9} {'calls':>8}"]
    lines += [f"{name:<28} {self_s:9.4f} {incl:9.4f} {calls:8.0f}"
              for self_s, incl, calls, name in rows]
    return lines
