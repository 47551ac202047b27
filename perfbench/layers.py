"""Per-layer tracing of diskeds from outside the package.

A ``sys.setprofile`` hook sees every Python call and return.  Each frame
is mapped to a layer by the file its code lives in: ``src/diskeds/<m>.py``
is layer ``<m>``, and the standard-library ``fractions`` module belongs
to layer ``exact``.  Frames of other code (the standard library, code
generated by ``dataclasses``) and builtins belong to the layer that
called them.  A span opens when a call enters a layer from another one;
a layer's ``busy_ms`` sums its spans and its ``self_ms`` subtracts the
spans of the layers it calls.  The program is single-threaded and keeps
no queues, so no wait time is recorded.

A few functions named in ``SPECIAL`` also get their own counters and
timers, taken at the same call and return events.
"""
from __future__ import annotations

import fractions
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "reports", "geometry", "involutivity", "torsion",
          "integral_element", "jets", "expr", "linalg", "exact")

# (module, qualified name) -> tag used by Tracer._special_call/_return
SPECIAL = {
    ("geometry", "compute_gamma_beta"): "gamma_beta",
    ("involutivity", "prolongation_dims"): "prolongation_dims",
    ("involutivity", "involutivity_order"): "involutivity_order",
    ("torsion", "complex_B_coefficients"): "complex_B",
    ("torsion", "_coefficient_tables"): "coefficient_tables",
    ("integral_element", "ordinary_element_search"): "search",
    ("integral_element", "_dtheta_row_data"): "dtheta_rows",
    ("expr", "Polynomial.__mul__"): "poly_mul",
    ("expr", "Polynomial.differentiate"): "differentiate",
    ("linalg", "mat_rank"): "elimination",
    ("linalg", "nullity"): "elimination",
    ("linalg", "nullspace"): "elimination",
    ("linalg", "solve_particular"): "elimination",
    ("linalg", "det"): "elimination",
    ("linalg", "in_row_span"): "elimination",
    ("jets", "involution_loop"): "involution_loop",
    ("reports", "emit_report"): "emit",
    ("geometry", "choose_pair"): "choose_pair",
}

# special tags counted per call, and those timed over their outermost calls
COUNTED = {"gamma_beta_symbolic", "gamma_beta_pointwise", "coefficient_tables",
           "poly_mul", "differentiate"}
TIMED = {"gamma_beta_symbolic", "gamma_beta_pointwise", "prolongation_dims",
         "involutivity_order", "complex_B", "coefficient_tables", "search",
         "poly_mul", "emit"}

# every per-layer metric name with its unit and direction
METRICS = [(f"{layer}.{what}", unit, "lower")
           for layer in LAYERS
           for what, unit in (("calls", "count"), ("busy_ms", "ms"), ("self_ms", "ms"))]
METRICS += [
    ("geometry.gamma_beta_symbolic.calls", "count", "lower"),
    ("geometry.gamma_beta_symbolic.busy_ms", "ms", "lower"),
    ("geometry.gamma_beta_pointwise.calls", "count", "lower"),
    ("geometry.gamma_beta_pointwise.busy_ms", "ms", "lower"),
    ("geometry.gamma_beta.builds_per_invocation", "ratio", "lower"),
    ("geometry.choose_pair.pairs_tried", "count", "lower"),
    ("involutivity.prolongation_dims.busy_ms", "ms", "lower"),
    ("involutivity.involutivity_order.busy_ms", "ms", "lower"),
    ("torsion.complex_B.busy_ms", "ms", "lower"),
    ("torsion.coefficient_tables.calls", "count", "lower"),
    ("torsion.coefficient_tables.busy_ms", "ms", "lower"),
    ("integral_element.search.busy_ms", "ms", "lower"),
    ("integral_element.candidates_attempted", "count", "lower"),
    ("integral_element.flag_hit_ratio", "ratio", "higher"),
    ("integral_element.dtheta_rows.per_candidate", "ratio", "lower"),
    ("expr.poly_mul.calls", "count", "lower"),
    ("expr.poly_mul.busy_ms", "ms", "lower"),
    ("expr.differentiate.calls", "count", "lower"),
    ("linalg.eliminations", "count", "lower"),
    ("jets.rounds", "count", "lower"),
    ("reports.emit.busy_ms", "ms", "lower"),
    ("reports.bytes_out", "bytes", "lower"),
    ("cli.exit_2", "count", "lower"),
    ("cli.exit_3", "count", "lower"),
    ("trace.untraced_pass_ms", "ms", "lower"),
    ("trace.traced_pass_ms", "ms", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


class Tracer:
    """Layer spans and special counters over the calls made while active."""

    def __init__(self, package_dir):
        self._file_layer = {os.path.join(package_dir, f"{layer}.py"): layer
                            for layer in LAYERS}
        self._file_layer[fractions.__file__] = "exact"
        self._special_names = {(os.path.join(package_dir, f"{mod}.py"), name): tag
                               for (mod, name), tag in SPECIAL.items()}
        self._code_layer = {}
        self._code_special = {}
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.timers = defaultdict(float)
        self._frames = []              # one record (or None) per live frame
        self._entries = [["bench", 0.0, 0.0]]   # open layer spans
        self._depth = defaultdict(int)  # open frames per special tag

    def _classify(self, code):
        layer = self._file_layer.get(code.co_filename)
        self._code_layer[code] = layer
        tag = self._special_names.get((code.co_filename, code.co_qualname))
        self._code_special[code] = tag
        return layer

    def run(self, fn, *args):
        """Call ``fn(*args)`` with the profile hook installed."""
        sys.setprofile(self._hook)
        try:
            return fn(*args)
        finally:
            sys.setprofile(None)

    def _hook(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            try:
                layer = self._code_layer[code]
            except KeyError:
                layer = self._classify(code)
            tag = self._code_special[code]
            entry = None
            if layer is not None and layer != self._entries[-1][0]:
                entry = [layer, perf_counter(), 0.0]
                self._entries.append(entry)
            if tag is None:
                self._frames.append(entry)
            else:
                self._frames.append((entry, tag,
                                     self._special_call(tag, frame, entry is not None)))
        elif event == "return":
            rec = self._frames.pop()
            if rec is None:
                return
            if type(rec) is tuple:
                entry, tag, state = rec
                self._special_return(tag, state, arg)
            else:
                entry = rec
            if entry is not None:
                dt = perf_counter() - entry[1]
                layer = entry[0]
                self._entries.pop()
                self.calls[layer] += 1
                self.busy[layer] += dt
                self.self_time[layer] += dt - entry[2]
                self._entries[-1][2] += dt

    def _special_call(self, tag, frame, entered):
        depth = self._depth[tag]
        self._depth[tag] = depth + 1
        name = tag
        if tag == "gamma_beta":
            point = frame.f_locals.get("point")
            name = "gamma_beta_symbolic" if point is None else "gamma_beta_pointwise"
            self.counts["pairs_tried"] += self._depth["choose_pair"] > 0
        elif tag == "elimination":
            # only eliminations asked for by another layer: nullity and
            # in_row_span run the same internal echelon routine
            self.counts[name] += entered
        elif tag == "dtheta_rows":
            self.counts[name] += self._depth["search"] > 0
        if name in COUNTED:
            self.counts[name] += 1
        t0 = perf_counter() if depth == 0 and name in TIMED else None
        return (name, t0, depth)

    def _special_return(self, tag, state, result):
        name, t0, depth = state
        self._depth[tag] = depth
        if t0 is not None:
            self.timers[name] += perf_counter() - t0
        if result is None:      # the call raised
            return
        if tag == "search":
            self.counts["candidates"] += result.attempted
            self.counts["flags"] += result.flag is not None
        elif tag == "involution_loop":
            self.counts["rounds"] += result.rounds
        elif tag == "emit":
            self.counts["bytes_out"] += len(result)

    def metrics(self, invocations, exit_codes, untraced_s, traced_s):
        """Per-layer metric values of everything traced so far."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.busy_ms"] = self.busy[layer] * 1e3
            out[f"{layer}.self_ms"] = self.self_time[layer] * 1e3
        c, t = self.counts, self.timers
        builds = c["gamma_beta_symbolic"] + c["gamma_beta_pointwise"]
        out.update({
            "geometry.gamma_beta_symbolic.calls": c["gamma_beta_symbolic"],
            "geometry.gamma_beta_symbolic.busy_ms": t["gamma_beta_symbolic"] * 1e3,
            "geometry.gamma_beta_pointwise.calls": c["gamma_beta_pointwise"],
            "geometry.gamma_beta_pointwise.busy_ms": t["gamma_beta_pointwise"] * 1e3,
            "geometry.gamma_beta.builds_per_invocation": builds / max(invocations, 1),
            "geometry.choose_pair.pairs_tried": c["pairs_tried"],
            "involutivity.prolongation_dims.busy_ms": t["prolongation_dims"] * 1e3,
            "involutivity.involutivity_order.busy_ms": t["involutivity_order"] * 1e3,
            "torsion.complex_B.busy_ms": t["complex_B"] * 1e3,
            "torsion.coefficient_tables.calls": c["coefficient_tables"],
            "torsion.coefficient_tables.busy_ms": t["coefficient_tables"] * 1e3,
            "integral_element.search.busy_ms": t["search"] * 1e3,
            "integral_element.candidates_attempted": c["candidates"],
            "integral_element.flag_hit_ratio": c["flags"] / max(c["candidates"], 1),
            "integral_element.dtheta_rows.per_candidate":
                c["dtheta_rows"] / max(c["candidates"], 1),
            "expr.poly_mul.calls": c["poly_mul"],
            "expr.poly_mul.busy_ms": t["poly_mul"] * 1e3,
            "expr.differentiate.calls": c["differentiate"],
            "linalg.eliminations": c["elimination"],
            "jets.rounds": c["rounds"],
            "reports.emit.busy_ms": t["emit"] * 1e3,
            "reports.bytes_out": c["bytes_out"],
            "cli.exit_2": sum(1 for rc in exit_codes if rc == 2),
            "cli.exit_3": sum(1 for rc in exit_codes if rc == 3),
            "trace.untraced_pass_ms": untraced_s * 1e3,
            "trace.traced_pass_ms": traced_s * 1e3,
            "trace.overhead": traced_s / untraced_s,
        })
        return out
