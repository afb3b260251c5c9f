"""Spans around the calls into each hbinom layer, for the traced run.

The child interpreter of a traced op calls `install()` after importing
`hbinom.cli`.  It wraps methods on their classes and rebinds each wrapped
module function in every hbinom module that imported it by name.  Every call
then records a span (name, start, end, parent) in memory; `Recorder.dump`
writes them out when the op ends, and `op_metrics` turns one op's spans into
calls and self times per span name, plus the layer counters.

A span's self time is its duration minus the time its direct child spans
cover.  The wrappers' own bookkeeping, and the probes some of them run
after the call (coefficient sizes, cache bytes), are timed apart as
`trace.tracer_s` and charged to no layer.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array

# (module, attribute path, span name).  The reflected operators are wrapped
# separately from the forward ones; they share the span name.
TARGETS = (
    ("hbinom.ring", "Scalar.__truediv__", "ring.scalar_div"),
    ("hbinom.ring", "Scalar.__mul__", "ring.scalar_mul"),
    ("hbinom.ring", "Scalar.__rmul__", "ring.scalar_mul"),
    ("hbinom.ring", "Scalar.__add__", "ring.scalar_add"),
    ("hbinom.ring", "Scalar.__radd__", "ring.scalar_add"),
    ("hbinom.ring", "Scalar.__pow__", "ring.scalar_pow"),
    ("hbinom.ring", "Scalar.__eq__", "ring.scalar_eq"),
    ("hbinom.ring", "QuadExt.__mul__", "ring.quadext_mul"),
    ("hbinom.ring", "QuadExt.__rmul__", "ring.quadext_mul"),
    ("hbinom.ring", "QuadExt.__pow__", "ring.quadext_pow"),
    ("hbinom.ring", "QuadExt.__truediv__", "ring.quadext_div"),
    ("hbinom.ring", "QuadExt.__rtruediv__", "ring.quadext_div"),
    ("hbinom.sequences", "term", "sequences.term"),
    ("hbinom.sequences", "to_binet", "sequences.to_binet"),
    ("hbinom.sequences", "addition_check", "sequences.addition_check"),
    ("hbinom.sequences", "series_verify", "sequences.series_verify"),
    ("hbinom.binomials", "BinomialTable.binomial", "binomials.binomial"),
    ("hbinom.binomials", "BinomialTable.factorial", "binomials.factorial"),
    ("hbinom.binomials", "table_for", "binomials.table_for"),
    ("hbinom.binomials", "integrality_scan", "binomials.integrality_scan"),
    ("hbinom.binomials", "qstar_transfer", "binomials.qstar_transfer"),
    ("hbinom.recurrences", "verify_pascal", "recurrences.verify_pascal"),
    ("hbinom.recurrences", "family_coeffs", "recurrences.family_coeffs"),
    ("hbinom.recurrences", "vweighted_verify", "recurrences.vweighted_verify"),
    ("hbinom.oracles", "partitions_in_box_gf", "oracles.partitions_in_box_gf"),
    ("hbinom.oracles", "zigzag_area_gf", "oracles.zigzag_area_gf"),
    ("hbinom.oracles", "inversion_gf", "oracles.inversion_gf"),
    ("hbinom.oracles", "gaussian_binomial", "oracles.gaussian_binomial"),
    ("hbinom.oracles", "subspace_count", "oracles.subspace_count"),
    ("hbinom.oracles", "colored_tilings", "oracles.colored_tilings"),
    ("hbinom.oracles", "colored_bracelets", "oracles.colored_bracelets"),
    ("hbinom.oracles", "md_fibonomial", "oracles.md_fibonomial"),
    ("hbinom.oracles", "errata_fibonomial", "oracles.errata_fibonomial"),
    ("hbinom.oracles", "md_ubinomial", "oracles.md_ubinomial"),
    ("hbinom.cli", "load_cache", "cli.load_cache"),
    ("hbinom.cli", "append_cache", "cli.append_cache"),
    ("hbinom.cli", "triangle_rows", "cli.triangle_rows"),
    ("hbinom.cli", "emit_triangle", "cli.emit_triangle"),
    ("hbinom.report", "Report.to_json", "report.to_json"),
)

# Layer of a span name; `report` is counted with the cli layer.
LAYERS = {"ring": "ring", "sequences": "sequences", "binomials": "binomials",
          "recurrences": "recurrences", "oracles": "oracles", "cli": "cli",
          "report": "cli"}

# Per-layer metrics of the traced run: name -> unit.  `<span>.calls` and
# `<span>.self_s` come from the spans, `<layer>.self_s` sums a layer, the rest
# are counters kept by the probes or worked out by the driver.  An op with
# two passes (cold, then warm) sums them; `cli.replay_wall_s` is the untraced
# wall time of the warm pass alone.
PER_LAYER = {}
for _span in ("ring.scalar_div", "ring.scalar_mul", "ring.scalar_add",
              "ring.scalar_pow", "ring.scalar_eq", "ring.quadext_mul",
              "ring.quadext_pow", "ring.quadext_div", "sequences.term",
              "sequences.to_binet", "sequences.addition_check",
              "sequences.series_verify", "binomials.binomial",
              "binomials.factorial", "recurrences.family_coeffs"):
    PER_LAYER[f"{_span}.calls"] = "count"
    PER_LAYER[f"{_span}.self_s"] = "s"
PER_LAYER.update({
    "ring.max_coeff_bits": "bits",
    "ring.max_degree": "count",
    "binomials.table_for.calls": "count",
    "binomials.distinct_cells_ratio": "ratio",
    "binomials.integrality_scan.self_s": "s",
    "binomials.qstar_transfer.self_s": "s",
    "recurrences.verify_pascal.self_s": "s",
    "recurrences.vweighted_verify.self_s": "s",
    "recurrences.cells_checked": "count",
    "oracles.subspace_count.self_s": "s",
    "oracles.gaussian_binomial.self_s": "s",
    "oracles.md_ubinomial.self_s": "s",
    "oracles.md_fibonomial.self_s": "s",
    "cli.load_cache.self_s": "s",
    "cli.append_cache.self_s": "s",
    "cli.triangle_rows.self_s": "s",
    "cli.emit_triangle.self_s": "s",
    "report.to_json.self_s": "s",
    "cli.cache_bytes_written": "bytes",
    "cli.cache_bytes_read": "bytes",
    "cli.cache_hit_ratio": "ratio",
    "cli.replay_wall_s": "s",
})
PER_LAYER.update({f"{layer}.self_s": "s" for layer in
                  ("ring", "sequences", "binomials", "recurrences", "oracles", "cli")})
PER_LAYER.update({
    "trace.spans": "count",
    "trace.tracer_s": "s",
    "trace.driver_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
})

COUNTERS = ("max_coeff_bits", "max_degree", "binomial_calls", "distinct_cells",
            "cells_checked", "bytes_written", "bytes_read", "cells_emitted",
            "cells_appended", "cells_uncached")


class Recorder:
    """Spans of one op, kept in flat arrays, plus the probe counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.extra = array("d")
        self.name = array("l")
        self.parent = array("l")
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._cells: set = set()
        self._tables: dict = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span: str):
        """`fn` recording one span per call.  The wrapper's own bookkeeping
        and the probe for `span` (if any) run outside the span and are timed
        into `extra`, so no layer is charged for them."""
        nid = self._name_id(span)
        start, end, extra = self.start, self.end, self.extra
        names, parents, stack = self.name, self.parent, self._stack
        perf = time.perf_counter
        before, after = PROBES.get(span, (None, None))

        def traced(*args, **kwargs):
            w0 = perf()
            state = before(self, args, kwargs) if before else None
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            extra.append(0.0)
            stack.append(i)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if after:
                after(self, result, args, kwargs, state)
            extra[i] = t0 - w0 + perf() - t1
            return result

        return traced

    def dump(self, path: str, op: str, wall_s: float) -> None:
        """Write the spans (a JSON header line, then the raw arrays)."""
        self.counters["distinct_cells"] = len(self._cells)
        header = {"op": op, "wall_s": wall_s, "names": self.names,
                  "count": len(self.name), "counters": self.counters}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.extra, self.name, self.parent):
                arr.tofile(fh)


def install(recorder: Recorder) -> None:
    """Wrap every target; module functions are rebound wherever imported."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "hbinom" or name.startswith("hbinom.")]
    for module_name, path, span in TARGETS:
        owner = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, attr, recorder.wrap(cls.__dict__[attr], span))
            continue
        original = getattr(owner, path)
        traced = recorder.wrap(original, span)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


# ---------------------------------------------------------------------------
# probes: counters measured where the work happens, outside every span


def _size_probe(rec, result, args, kwargs, state):
    if result is NotImplemented:
        return
    num, den = result.num_coeffs, result.den_coeffs
    c = rec.counters
    degree = max(len(num), len(den)) - 1
    if degree > c["max_degree"]:
        c["max_degree"] = degree
    bits = c["max_coeff_bits"]
    for x in num + den:
        bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    c["max_coeff_bits"] = bits


def _binomial_probe(rec, result, args, kwargs, state):
    table, n, k = args[0], args[1], args[2]
    rec._tables[id(table)] = table   # keeps ids unique while the op runs
    rec._cells.add((id(table), n, k))
    rec.counters["binomial_calls"] += 1


def _cells_probe(rec, result, args, kwargs, state):
    rec.counters["cells_checked"] += len(result.cells)


def _file_size(path) -> int:
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _load_probe(rec, result, args, kwargs, state):
    rec.counters["bytes_read"] += _file_size(args[0])


def _append_before(rec, args, kwargs):
    return _file_size(args[0])


def _append_probe(rec, result, args, kwargs, state):
    rec.counters["bytes_written"] += _file_size(args[0]) - state
    rec.counters["cells_appended"] += len(args[1])


def _rows_probe(rec, result, args, kwargs, state):
    cache_path = kwargs["cache_path"] if "cache_path" in kwargs else args[4]
    rec.counters["cells_emitted"] += len(result)
    if cache_path is None:
        rec.counters["cells_uncached"] += len(result)


PROBES = {
    "ring.scalar_div": (None, _size_probe),
    "ring.scalar_mul": (None, _size_probe),
    "binomials.binomial": (None, _binomial_probe),
    "recurrences.verify_pascal": (None, _cells_probe),
    "recurrences.vweighted_verify": (None, _cells_probe),
    "cli.load_cache": (None, _load_probe),
    "cli.append_cache": (_append_before, _append_probe),
    "cli.triangle_rows": (None, _rows_probe),
}


# ---------------------------------------------------------------------------
# driver side


def load(path: str) -> tuple[dict, dict]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = {}
        for key, code in (("start", "d"), ("end", "d"), ("extra", "d"),
                          ("name", "l"), ("parent", "l")):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays[key] = arr
    return header, arrays


def span_stats(header: dict, arrays: dict) -> dict:
    """{span name: [calls, self_s]} plus the tracer's own and uncovered times."""
    start, end, extra = arrays["start"], arrays["end"], arrays["extra"]
    names, parent = arrays["name"], arrays["parent"]
    n = len(names)
    covered = [0.0] * n          # time of direct children, with their `extra`
    top = 0.0
    for i in range(n):
        d = end[i] - start[i] + extra[i]
        p = parent[i]
        if p >= 0:
            covered[p] += d
        else:
            top += d
    stats = {name: [0, 0.0] for name in header["names"]}
    for i in range(n):
        entry = stats[header["names"][names[i]]]
        entry[0] += 1
        entry[1] += end[i] - start[i] - covered[i]
    return {"spans": stats, "tracer_s": sum(extra),
            "driver_s": header["wall_s"] - top, "count": n}


def op_metrics(dumps: list) -> dict:
    """Per-layer metric values of one traced op, from the (header, arrays)
    dump of each of its passes; the driver adds the overhead and replay time."""
    spans: dict = {}
    tracer_s = driver_s = 0.0
    count = 0
    c = dict.fromkeys(COUNTERS, 0)
    for header, arrays in dumps:
        st = span_stats(header, arrays)
        for name, (calls, self_s) in st["spans"].items():
            entry = spans.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        tracer_s += st["tracer_s"]
        driver_s += st["driver_s"]
        count += st["count"]
        for key, value in header["counters"].items():
            c[key] = max(c[key], value) if key.startswith("max_") else c[key] + value
    out = {}
    layer_self = dict.fromkeys(set(LAYERS.values()), 0.0)
    for name, (calls, self_s) in spans.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        layer_self[LAYERS[name.split(".")[0]]] += self_s
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = value
    out["ring.max_coeff_bits"] = c["max_coeff_bits"]
    out["ring.max_degree"] = c["max_degree"]
    out["binomials.distinct_cells_ratio"] = (
        c["distinct_cells"] / c["binomial_calls"] if c["binomial_calls"] else 0.0)
    out["recurrences.cells_checked"] = c["cells_checked"]
    out["cli.cache_bytes_written"] = c["bytes_written"]
    out["cli.cache_bytes_read"] = c["bytes_read"]
    replayed = c["cells_emitted"] - c["cells_appended"] - c["cells_uncached"]
    out["cli.cache_hit_ratio"] = (replayed / c["cells_emitted"]
                                  if c["cells_emitted"] else 0.0)
    out["trace.spans"] = count
    out["trace.tracer_s"] = tracer_s
    out["trace.driver_s"] = driver_s
    return out
