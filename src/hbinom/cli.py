"""Command-line interface: sequence terms, binomial cells, triangles with a
JSONL cache, identity verification, oracle queries, and the whole suite.

Exit codes: 0 success, 1 verification failure, a coefficient pair that breaks
its scalar identity, or a zero divisor hit during computation, 2 usage or
configuration errors, including a sequence a family cannot be built for
and a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import fcntl
import io
import json
import os
import sys
from fractions import Fraction

from . import oracles
from .binomials import (ZeroTermError, fbinomial, integrality_scan, mirror,
                        qstar_transfer, table_for)
from .recurrences import (FAMILY_TAGS, FamilyRequirementError,
                          ScalarIdentityError, SingularCoefficientError,
                          resolve_family, verify_pascal, vweighted_verify)
from .report import ENGINE_VERSION, Report
from .ring import Scalar, exact_rational
from .sequences import (DegenerateRootsError, HoradamSpec, addition_check,
                        preset, series_verify, term)

CACHE_DIR_ENV = "HBINOM_CACHE_DIR"

VERIFY_FAMILIES = FAMILY_TAGS + ("vweighted",)


class ConfigError(Exception):
    """Bad command-line values or suite configuration."""


# ---------------------------------------------------------------------------
# argument plumbing


def _scalar_from_text(text) -> Scalar:
    """A rational weight: a string, or an int in a suite config."""
    try:
        return Scalar(exact_rational(text))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational value: {text!r}") from exc


def parse_spec_args(args) -> HoradamSpec:
    if args.spec and args.preset:
        raise ConfigError("give either --preset or --spec, not both")
    if args.spec:
        try:
            obj = json.loads(args.spec)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--spec is not valid JSON: {exc}") from exc
        try:
            return HoradamSpec.from_json(obj)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad sequence spec: {exc}") from exc
    if args.preset:
        s = _scalar_from_text(args.s) if args.s is not None else None
        t = _scalar_from_text(args.t) if args.t is not None else None
        try:
            return preset(args.preset, s=s, t=t)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError("a sequence is required: use --preset or --spec")


def _add_spec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", help="named sequence family")
    parser.add_argument("--s", help="rational weight s for presets that take it")
    parser.add_argument("--t", help="rational weight t for presets that take it")
    parser.add_argument("--spec", help='JSON spec {"a":..,"b":..,"s":..,"t":..}')


def _add_format_option(parser: argparse.ArgumentParser,
                       choices=("text", "json", "csv")) -> None:
    parser.add_argument("--format", choices=choices, default="text")


# `json.dumps(obj, sort_keys=True, separators=(",", ":"))`, with the encoder
# made once
_encode_compact = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _render_value(value_json) -> str:
    if isinstance(value_json, str):
        return value_json
    return _encode_compact(value_json)


def _rows_to_stream(rows: list[dict], fmt: str, header: list[str]) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_render_value(row[h]) if h == "value" else row[h]
                             for h in header])
        return buf.getvalue()
    lines = ["  ".join(str(_render_value(row[h]) if h == "value" else row[h])
                       for h in header) for row in rows]
    return "\n".join(lines) + "\n"


TRIANGLE_HEADER = ["n", "k", "value"]


def _triangle_to_stream(cells: list[tuple], fmt: str) -> str:
    """`_rows_to_stream` of (n, k, value) cells, with a text line written as
    an f-string and csv cells handed to `csv.writer` as tuples."""
    if fmt == "json":
        return _rows_to_stream([{"n": n, "k": k, "value": v} for n, k, v in cells],
                               fmt, TRIANGLE_HEADER)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(TRIANGLE_HEADER)
        writer.writerows((n, k, _render_value(v)) for n, k, v in cells)
        return buf.getvalue()
    return "\n".join([f"{n}  {k}  {_render_value(v)}" for n, k, v in cells]) + "\n"


# ---------------------------------------------------------------------------
# triangle cache (JSONL, append-only)


# Version of the cached record layout.  It and ENGINE_VERSION key every
# record, so a file written by another format or engine misses cleanly and
# its cells are recomputed rather than replayed.
CACHE_FORMAT = 1


def triangle_digest(spec: HoradamSpec, kind: str, parts: tuple[int, ...]) -> str:
    # imported here: only a cached triangle needs its digest
    import hashlib
    payload = json.dumps({"cache_format": CACHE_FORMAT, "engine": ENGINE_VERSION,
                          "kind": kind, "parts": list(parts),
                          "spec": spec.to_json()},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def default_cache_path() -> str | None:
    cache_dir = os.environ.get(CACHE_DIR_ENV)
    if not cache_dir:
        return None
    return os.path.join(cache_dir, "triangles.jsonl")


_raw_decode = json.JSONDecoder().raw_decode


def _decode_line(line: str):
    """`json.loads(line)` for a line with no surrounding whitespace, raising
    the same JSONDecodeError texts, through the decoder's `raw_decode`."""
    if line.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)",
                                   line, 0)
    rec, end = _raw_decode(line)
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line,
                                   json.decoder.WHITESPACE.match(line, end).end())
    return rec


def load_cache(path: str) -> dict[tuple[str, int, int], object]:
    """Cached cells by (spec hash, n, k).  A record counts once its newline is
    written: an unterminated last line, left by an interrupted append, is
    skipped.  Any other bad line is a ConfigError, and so is a record whose
    n or k is not an integer, whose spec_hash is not a string, or whose value
    is not a string, a list or an object: none of them is replayed."""
    cache: dict[tuple[str, int, int], object] = {}
    if not os.path.exists(path):
        return cache
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith("\n"):
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = _decode_line(line)
                    spec_hash, n, k = rec["spec_hash"], rec["n"], rec["k"]
                    value = rec["value"]
                    if not (type(n) is int and type(k) is int and type(spec_hash) is str
                            and type(value) in (str, list, dict)):
                        raise ValueError("n and k must be integers, spec_hash a string, "
                                         "and value a string, a list or an object")
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    raise ConfigError(f"bad cache line {lineno} in {path}: {exc}") from exc
                cache[(spec_hash, n, k)] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read cache {path}: {exc}") from exc
    return cache


def _encode_records(records: list[dict]) -> str:
    """One JSON line per record, the bytes of `JSONEncoder(sort_keys=True,
    separators=(",", ":"))`.  A record is {"spec_hash": str, "n": int, "k":
    int, "value": ...}; one with a string value is written by an f-string,
    its value escaped by the encoder's own `encode_basestring_ascii` and its
    spec_hash escaped once for each run of records that share it."""
    esc = json.encoder.encode_basestring_ascii
    lines = []
    spec_hash = middle = None
    for rec in records:
        value = rec["value"]
        if type(value) is not str:
            lines.append(_encode_compact(rec) + "\n")
            continue
        if rec["spec_hash"] != spec_hash:
            spec_hash = rec["spec_hash"]
            middle = f',"spec_hash":{esc(spec_hash)},"value":'
        lines.append(f'{{"k":{rec["k"]},"n":{rec["n"]}{middle}{esc(value)}}}\n')
    return "".join(lines)


def append_cache(path: str, records: list[dict]) -> None:
    """Append one JSON line per record, the whole batch in one write under an
    exclusive `flock`, so concurrent appends never interleave.  An unterminated
    last line, which `load_cache` skips, is cut off first so the batch starts
    on a fresh line."""
    if not records:
        return
    payload = _encode_records(records).encode()
    parent = os.path.dirname(path)
    try:
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "a+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.seek(0)
                    fh.truncate(fh.read().rfind(b"\n") + 1)
            fh.write(payload)
    except OSError as exc:
        raise ConfigError(f"cannot write cache {path}: {exc}") from exc


def _cell_json(value):
    """The JSON form of a held cell: `str` of an int or a Fraction, which is
    its Scalar's `to_json`, and `to_json` of a Scalar."""
    return value.to_json() if isinstance(value, Scalar) else str(value)


def triangle_rows(spec: HoradamSpec, kind: str, parts: tuple[int, ...],
                  max_n: int, cache_path: str | None) -> list[tuple]:
    """Triangle cells (n, k, value), value in JSON form, in lexicographic
    (n, k) order, consulting and updating the JSONL cache when a path is
    given.  Cached values are reused verbatim.  Binomial rows come from
    `BinomialTable.own_row`, and each mirrored pair C(n,k) = C(n,n-k) is
    rendered once."""
    digest = triangle_digest(spec, kind, parts) if cache_path else None
    cache = load_cache(cache_path) if cache_path else {}
    tbl = table_for(spec)
    rows = []
    fresh = []
    for n in range(max_n + 1):
        rendered = None
        for k in range(n + 1):
            value_json = cache.get((digest, n, k))
            if value_json is None:
                if kind == "binomial":
                    if rendered is None:
                        half = tbl.own_row(n)[:n // 2 + 1]
                        rendered = mirror([_cell_json(v) for v in half], n)
                    value_json = rendered[k]
                else:
                    rest = n - k - sum(parts)
                    value_json = tbl.multinomial((k,) + parts + (rest,)).to_json()
                if cache_path:
                    fresh.append({"spec_hash": digest, "n": n, "k": k,
                                  "value": value_json})
            rows.append((n, k, value_json))
    if cache_path:
        append_cache(cache_path, fresh)
    return rows


def _check_destination(path: str, what: str, on_demand: bool) -> None:
    """Refuse, before any work is done, a file path that no run could write:
    a directory or a path under a regular file.  A file that every run writes
    (the report) is also refused for a missing parent directory or a place
    without write permission.  A file written only when there is something new
    for it (`on_demand`, the cache) makes its own parents, and a read-only one
    still serves a run that finds every cell in it, so its permission is left
    to the write.  The file itself is neither opened nor made here, so a run
    that fails later leaves it as it was."""
    parent = os.path.dirname(os.path.abspath(path))
    ancestor = parent
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(ancestor):
        code = errno.ENOTDIR
    elif on_demand:
        return
    elif ancestor != parent:
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ConfigError(f"cannot write {what} {path}: {os.strerror(code)}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_seq(args) -> int:
    spec = parse_spec_args(args)
    if args.max_n < 0:
        raise ConfigError("--max-n must be nonnegative")
    rows = [{"n": n, "value": term(spec, n).to_json()}
            for n in range(args.max_n + 1)]
    sys.stdout.write(_rows_to_stream(rows, args.format, ["n", "value"]))
    return 0


def cmd_binom(args) -> int:
    spec = parse_spec_args(args)
    if args.k < 0 or args.n < 0:
        raise ConfigError("indices must be nonnegative")
    value = fbinomial(spec, args.n, args.k)
    rows = [{"n": args.n, "k": args.k, "value": value.to_json()}]
    sys.stdout.write(_rows_to_stream(rows, args.format, ["n", "k", "value"]))
    return 0


def _parse_parts(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--parts must be comma-separated integers: {text!r}") from exc


def emit_triangle(spec: HoradamSpec, kind: str, max_n: int, fmt: str = "csv",
                  parts: tuple[int, ...] = (),
                  cache_path: str | None = None) -> str:
    """Rendered triangle for `spec`, rows in lexicographic (n, k) order.

    Repeat calls with the same cache are byte-identical: cached cells are
    replayed verbatim, never recomputed."""
    return _triangle_to_stream(triangle_rows(spec, kind, parts, max_n, cache_path),
                               fmt)


def cmd_triangle(args) -> int:
    spec = parse_spec_args(args)
    if args.max_n < 0:
        raise ConfigError("--max-n must be nonnegative")
    parts = _parse_parts(args.parts)
    if args.kind == "binomial" and parts:
        raise ConfigError("--parts only applies to --kind multinomial-slice")
    if any(p < 0 for p in parts):
        raise ConfigError("--parts entries must be nonnegative")
    cache_path = args.cache or default_cache_path()
    if cache_path:
        _check_destination(cache_path, "cache", on_demand=True)
    sys.stdout.write(emit_triangle(spec, args.kind, args.max_n, args.format,
                                   parts, cache_path))
    return 0


def _witness(cell) -> tuple[str, str]:
    """Both exact sides of a failing cell; empty strings for a passing one,
    which the report leaves out."""
    return ("", "") if cell.ok else (str(cell.lhs), str(cell.rhs))


def cmd_verify(args) -> int:
    spec = parse_spec_args(args)
    if args.max_n < 1:
        raise ConfigError("--max-n must be at least 1")
    tag = args.family.strip().lower()
    if tag not in VERIFY_FAMILIES:
        raise ConfigError(f"unknown family {tag!r}; choose from {', '.join(VERIFY_FAMILIES)}")
    report = Report()
    if tag == "vweighted":
        vw = vweighted_verify(spec, args.max_n)
        for cell in vw.cells:
            report.add("vweighted", (cell.r, cell.s), cell.ok,
                       str(cell.lhs), str(cell.rhs))
    else:
        family = resolve_family(tag, spec)
        pascal = verify_pascal(family.seq, family, args.max_n)
        for cell in pascal.cells:
            report.add(f"pascal:{tag}", (cell.r, cell.s), cell.ok, *_witness(cell))
    if args.format == "json":
        sys.stdout.write(report.to_json() + "\n")
    else:
        sys.stdout.write(report.to_text() + "\n")
    return 0 if report.all_ok else 1


# A step is one object an oracle enumerates times the work on it; a step takes
# 0.05-0.45 us on a 2-vCPU x86 host with CPython 3.11 (md_fibonomial at C(20,10)
# is 1.8e6 steps and 0.5 s), so every query under ORACLE_MAX_STEPS answers within
# about 5 s, while queries above it could run for hours.  ORACLE_MAX_DEPTH is
# half of CPython's default recursion limit; the rest is for the caller's frames.
ORACLE_MAX_STEPS = 10 ** 7
ORACLE_MAX_DEPTH = 500


def _choose(n: int, k: int) -> int:
    """C(n, k), 0 outside 0 <= k <= n.  For min(k, n-k) > 40 this is C(n, 40),
    already far above ORACLE_MAX_STEPS, so a huge n stays cheap."""
    from math import comb
    return comb(n, min(k, n - k, 40)) if 0 <= k <= n else 0


def _strip_tilings(length: int) -> int:
    """F(length+1) square-and-domino tilings of a strip, capped at F(40)."""
    a, b = 0, 1
    for _ in range(min(length + 1, 40)):
        a, b = b, a + b
    return a


# name -> (function in `oracles`, looked up at call time; number of integer
# arguments; their cost as (steps, recursion depth)).  md_ubinomial also takes
# --s and --t; on polynomial weights each of its Scalar products costs about
# 60 int products, while rational weights run on plain ints or Fractions.
ORACLES = {
    "box": ("partitions_in_box_gf", 2,
            lambda h, w: (_choose(h + w, h), h if w > 0 else 0)),
    "zigzag": ("zigzag_area_gf", 2, lambda n, k: (_choose(n, k) * k, 0)),
    "inversion": ("inversion_gf", 2, lambda n, k: (_choose(n, k) * n, 0)),
    "gauss": ("gaussian_binomial", 2,
              lambda n, k: (n ** 4 // 8 if 0 <= k <= n else 0, 0)),
    # the oracle itself refuses n > 4 and q > 3
    "subspaces": ("subspace_count", 3, lambda n, k, q: (0, 0)),
    "tilings": ("colored_tilings", 3, lambda n, s, t: (_strip_tilings(n) * n, n)),
    "bracelets": ("colored_bracelets", 3, lambda n, s, t: (_strip_tilings(n) * n, n)),
    "md_fibonomial": ("md_fibonomial", 2, lambda n, k: (_choose(n, k) * k, 0)),
    "errata_fibonomial": ("errata_fibonomial", 2, lambda n, k: (_choose(n, k) * k, 0)),
    "md_ubinomial": ("md_ubinomial", 2, lambda n, k: (_choose(n, k) * k * 64, 0)),
}


def cmd_oracle(args) -> int:
    which = args.which
    vals = args.args
    fn_name, arity, cost = ORACLES[which]
    if len(vals) != arity:
        raise ConfigError(f"oracle {which} takes {arity} integer arguments")
    steps, depth = cost(*vals)
    if steps > ORACLE_MAX_STEPS or depth > ORACLE_MAX_DEPTH:
        raise ConfigError(
            f"oracle {which} is too large at {' '.join(map(str, vals))}: queries are "
            f"limited to {ORACLE_MAX_STEPS} steps and recursion depth {ORACLE_MAX_DEPTH}")
    if which == "md_ubinomial":
        if args.s is None or args.t is None:
            raise ConfigError("md_ubinomial needs --s and --t")
        vals = [*vals, _scalar_from_text(args.s), _scalar_from_text(args.t)]
    try:
        result = getattr(oracles, fn_name)(*vals)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if isinstance(result, Scalar):
        result = result.to_json()
    if args.format == "json":
        sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    else:
        sys.stdout.write(f"{_render_value(result)}\n")
    return 0


# ---------------------------------------------------------------------------
# verification suite


class SuiteConfig:
    """Declarative description of one suite run.  Configs with equal fields
    are equal."""

    def __init__(self, specs: list[tuple[str, HoradamSpec]], families: list[str],
                 max_n: int = 10, oracles: list[str] | None = None,
                 literal_v_addition_strict: bool = False, format: str = "text",
                 cache: str | None = None):
        self.specs = specs
        self.families = families
        self.max_n = max_n
        self.oracles = list(SUITE_ORACLE_GROUPS) if oracles is None else oracles
        self.literal_v_addition_strict = literal_v_addition_strict
        self.format = format
        self.cache = cache

    def __eq__(self, other):
        if type(other) is not SuiteConfig:
            return NotImplemented
        return vars(self) == vars(other)

    @classmethod
    def from_dict(cls, obj: dict) -> "SuiteConfig":
        if not isinstance(obj, dict):
            raise ConfigError("suite config must be a JSON object")
        known = {"specs", "families", "max_n", "oracles",
                 "literal_v_addition_strict", "format", "cache"}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

        for key in ("specs", "families", "oracles"):
            if key in obj and not isinstance(obj[key], list):
                raise ConfigError(f"{key} must be a list")
            if key != "specs" and not all(isinstance(v, str) for v in obj.get(key, ())):
                raise ConfigError(f"each {key} entry must be a string")

        specs = []
        for entry in obj.get("specs", []):
            if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
                raise ConfigError("each spec entry needs a name, a string")
            name = entry["name"]
            if not isinstance(entry.get("preset", ""), str):
                raise ConfigError(f"spec {name!r}: preset must be a string")
            if "preset" in entry:
                s = _scalar_from_text(entry["s"]) if "s" in entry else None
                t = _scalar_from_text(entry["t"]) if "t" in entry else None
                try:
                    specs.append((name, preset(entry["preset"], s=s, t=t)))
                except ValueError as exc:
                    raise ConfigError(str(exc)) from exc
            elif "spec" in entry:
                try:
                    specs.append((name, HoradamSpec.from_json(entry["spec"])))
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"bad spec {name!r}: {exc}") from exc
            else:
                raise ConfigError(f"spec {name!r} needs a preset or spec field")
        if not specs:
            raise ConfigError("suite config needs at least one spec")

        families = obj.get("families", list(VERIFY_FAMILIES))
        for fam in families:
            if fam not in VERIFY_FAMILIES:
                raise ConfigError(f"unknown family {fam!r}")

        oracle_groups = obj.get("oracles", list(SUITE_ORACLE_GROUPS))
        for group in oracle_groups:
            if group not in SUITE_ORACLE_GROUPS:
                raise ConfigError(f"unknown oracle group {group!r}")

        max_n = obj.get("max_n", 10)
        if not isinstance(max_n, int) or isinstance(max_n, bool) or max_n < 1:
            raise ConfigError("max_n must be an integer >= 1")

        fmt = obj.get("format", "text")
        if fmt not in ("text", "json"):
            raise ConfigError("format must be text or json")

        strict = obj.get("literal_v_addition_strict", False)
        if not isinstance(strict, bool):
            raise ConfigError("literal_v_addition_strict must be a boolean")

        cache = obj.get("cache")
        if cache is not None and not isinstance(cache, str):
            raise ConfigError("cache must be a path string")

        return cls(specs, list(families), max_n, list(oracle_groups), strict,
                   fmt, cache)

    def to_dict(self) -> dict:
        """Inverse of from_dict; presets are written out as explicit specs."""
        obj = {
            "specs": [{"name": name, "spec": spec.to_json()}
                      for name, spec in self.specs],
            "families": list(self.families),
            "max_n": self.max_n,
            "oracles": list(self.oracles),
            "literal_v_addition_strict": self.literal_v_addition_strict,
            "format": self.format,
        }
        if self.cache is not None:
            obj["cache"] = self.cache
        return obj


def default_config() -> SuiteConfig:
    return SuiteConfig(
        specs=[("fibonacci", preset("fibonacci")),
               ("pell", preset("pell")),
               ("split_roots", preset("u", s=3, t=-2)),
               ("lucas_numbers", preset("lucas_numbers"))],
        families=list(VERIFY_FAMILIES),
    )


def _suite_families(report: Report, config: SuiteConfig) -> None:
    for name, spec in config.specs:
        for tag in config.families:
            check = f"pascal:{tag}:{name}"
            note = ""
            try:
                if tag == "vweighted":
                    bad = [c for c in vweighted_verify(spec, config.max_n).cells
                           if not c.ok]
                else:
                    family = resolve_family(tag, spec)
                    pascal = verify_pascal(family.seq, family, config.max_n)
                    bad = pascal.failures
                    if pascal.uses_extension:
                        note = "coefficients live in the quadratic extension"
            except (FamilyRequirementError, DegenerateRootsError, ZeroTermError,
                    SingularCoefficientError) as exc:
                report.skip(check, (config.max_n,), str(exc))
                continue
            if bad:
                note = f"first failure at ({bad[0].r},{bad[0].s})"
            report.add(check, (config.max_n,), not bad,
                       *(_witness(bad[0]) if bad else ("", "")), note)


def _suite_addition(report: Report, config: SuiteConfig) -> None:
    bound = min(config.max_n, 8)
    for name, spec in config.specs:
        d = spec.discriminant()
        checks = [addition_check(spec, r, s)
                  for r in range(1, bound + 1) for s in range(1, bound + 1)]
        witness = next((c for c in checks if not c.v_literal_ok), None)
        literal_ok = witness is None
        report.add(f"addition:double_u:{name}", (bound,), all(c.u_ok for c in checks))
        report.add(f"addition:double_v:{name}", (bound,),
                   all(c.v_corrected_ok for c in checks))
        lhs = str(witness.v_literal_lhs) if witness else ""
        rhs = str(witness.v_literal_rhs) if witness else ""
        if config.literal_v_addition_strict:
            report.add(f"addition:double_v_literal:{name}", (bound,),
                       literal_ok, lhs, rhs,
                       "strict mode: no discriminant factor")
        else:
            expected_ok = d.is_one()
            agrees = literal_ok == expected_ok
            report.add(f"addition:double_v_literal_control:{name}", (bound,),
                       agrees, lhs, rhs,
                       "control: variant without the discriminant factor is "
                       "expected to hold only when the discriminant is 1")


def _suite_fourway(report: Report, config: SuiteConfig) -> None:
    ok = True
    witness = ("", "")
    for n in range(min(config.max_n, 8) + 1):
        for k in range(n + 1):
            gauss = [int(c) for c in oracles.gaussian_binomial(n, k).num_coeffs]
            gauss += [0] * (k * (n - k) + 1 - len(gauss))
            box = oracles.partitions_in_box_gf(k, n - k)
            zig = oracles.zigzag_area_gf(n, k)
            inv = oracles.inversion_gf(n, k)
            if not (gauss == box == zig == inv):
                ok = False
                witness = (f"({n},{k})", f"{gauss}/{box}/{zig}/{inv}")
    report.add("oracle:fourway", (min(config.max_n, 8),), ok, *witness)


def _suite_subspaces(report: Report, config: SuiteConfig) -> None:
    gauss = [[oracles.gaussian_binomial(n, k) for k in range(n + 1)] for n in range(5)]
    for q in (2, 3):
        ok = all(oracles.subspace_counts(n, q) == [g.evaluate(q).as_int() for g in row]
                 for n, row in enumerate(gauss))
        report.add(f"oracle:subspaces:q{q}", (4,), ok)


def _suite_tilings(report: Report, config: SuiteConfig) -> None:
    bound = min(config.max_n, 10)
    for s in (1, 2, 3):
        for t in (1, 2, 3):
            u_spec = preset("u", s=s, t=t)
            v_spec = preset("v", s=s, t=t)
            lin_ok = all(oracles.colored_tilings(n, s, t) == term(u_spec, n + 1).as_int()
                         for n in range(bound + 1))
            circ_ok = all(oracles.colored_bracelets(n, s, t) == term(v_spec, n).as_int()
                          for n in range(1, bound + 1))
            report.add(f"oracle:tilings:s{s}t{t}", (bound,), lin_ok)
            report.add(f"oracle:bracelets:s{s}t{t}", (bound,), circ_ok)


def _suite_md_formulas(report: Report, config: SuiteConfig) -> None:
    fib = preset("fibonacci")
    bound = min(config.max_n, 10)
    ok = all(oracles.md_fibonomial(n, k) == fbinomial(fib, n, k).as_int()
             for n in range(bound + 1) for k in range(n + 1))
    report.add("oracle:md_fibonomial", (bound,), ok)
    for s, t in ((1, 1), (3, -2), (2, 1)):
        u_spec = preset("u", s=s, t=t)
        ok = all(oracles.md_ubinomial(n, k, s, t) == fbinomial(u_spec, n, k)
                 for n in range(9) for k in range(n + 1))
        report.add(f"oracle:md_ubinomial:s{s}t{t}", (8,), ok)
    reproduced = oracles.errata_fibonomial(5, 3) == 11
    deviates = any(oracles.errata_fibonomial(n, k) != fbinomial(fib, n, k).as_int()
                   for n in range(2, 9) for k in range(2, n + 1))
    report.add("oracle:errata_control", (5, 3), reproduced and deviates,
               str(oracles.errata_fibonomial(5, 3)),
               str(fbinomial(fib, 5, 3)),
               "control: misprinted variant reproduces the published 11 "
               "and disagrees with the true table")


def _suite_qstar(report: Report, config: SuiteConfig) -> None:
    for p, q in ((2, 1), (1, 2), (3, 2), (1, 1)):
        ok = all(qstar_transfer(p, q, n, k).ok
                 for n in range(7) for k in range(n + 1))
        report.add(f"oracle:qstar:p{p}q{q}", (6,), ok)


def _suite_integrality(report: Report, config: SuiteConfig) -> None:
    for s, t in ((1, 1), (2, 1), (1, 2), (3, -2)):
        u_spec = preset("u", s=s, t=t)
        violations = integrality_scan(u_spec, min(config.max_n * 2, 20))
        report.add(f"integrality:u:s{s}t{t}", (min(config.max_n * 2, 20),),
                   not violations,
                   str(violations[0][2]) if violations else "", "")
    lucas_v = preset("v", s=1, t=1)
    violations = integrality_scan(lucas_v, 4)
    expected = [(4, 2, Scalar(Fraction(28, 3)))]
    report.add("integrality:lucas_v_control", (4,), violations == expected,
               str(violations), str(expected),
               "control: companion-sequence table is not integral")


def _suite_series(report: Report, config: SuiteConfig) -> None:
    for name, spec in config.specs:
        if not spec.is_rational:
            report.skip(f"series:{name}", (config.max_n,),
                        "series checks need rational spec entries")
            continue
        sr = series_verify(spec, min(config.max_n * 2, 20))
        note = ""
        if not sr.egf_checked:
            why = "repeated root" if spec.discriminant().is_zero() else "irrational roots"
            note = f"exponential form skipped: {why}"
        report.add(f"series:{name}", (sr.order,),
                   sr.ogf_ok and (sr.egf_ok or not sr.egf_checked), note=note)


# Suite group -> the function adding its records, in record order; the
# records of the Pascal families come first.
SUITE_ORACLE_GROUPS = {
    "addition": _suite_addition,
    "fourway": _suite_fourway,
    "subspaces": _suite_subspaces,
    "tilings": _suite_tilings,
    "md_formulas": _suite_md_formulas,
    "qstar": _suite_qstar,
    "integrality": _suite_integrality,
    "series": _suite_series,
}


def run_suite(config: SuiteConfig) -> Report:
    report = Report()
    _suite_families(report, config)
    for group, add_records in SUITE_ORACLE_GROUPS.items():
        if group in config.oracles:
            add_records(report, config)
    if config.cache:
        for name, spec in config.specs:
            try:
                triangle_rows(spec, "binomial", (), config.max_n, config.cache)
            except ZeroTermError:
                pass
    return report


def cmd_suite(args) -> int:
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        config = SuiteConfig.from_dict(obj)
    else:
        config = default_config()
    if args.max_n is not None:
        if args.max_n < 1:
            raise ConfigError("--max-n must be at least 1")
        config.max_n = args.max_n
    if args.format is not None:
        config.format = args.format
    if args.cache is not None:
        config.cache = args.cache
    if args.out:
        _check_destination(args.out, "report", on_demand=False)
    if config.cache:
        _check_destination(config.cache, "cache", on_demand=True)

    report = run_suite(config)
    out = report.to_json() + "\n" if config.format == "json" else report.to_text() + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(out)
    return 0 if report.all_ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbinom",
        description="Exact generalized binomial triangles over two-term "
                    "recurrence sequences, with verification and oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="print sequence terms")
    _add_spec_options(p_seq)
    p_seq.add_argument("--max-n", type=int, default=10)
    _add_format_option(p_seq)
    p_seq.set_defaults(func=cmd_seq)

    p_binom = sub.add_parser("binom", help="one binomial cell")
    _add_spec_options(p_binom)
    p_binom.add_argument("-n", type=int, required=True)
    p_binom.add_argument("-k", type=int, required=True)
    _add_format_option(p_binom)
    p_binom.set_defaults(func=cmd_binom)

    p_tri = sub.add_parser("triangle", help="emit triangle rows, optionally cached")
    _add_spec_options(p_tri)
    p_tri.add_argument("--max-n", type=int, default=10)
    p_tri.add_argument("--kind", choices=("binomial", "multinomial-slice"),
                       default="binomial")
    p_tri.add_argument("--parts", help="fixed middle parts for multinomial-slice")
    p_tri.add_argument("--cache", help="JSONL cache path "
                                       f"(default from ${CACHE_DIR_ENV})")
    _add_format_option(p_tri)
    p_tri.set_defaults(func=cmd_triangle)

    p_verify = sub.add_parser("verify", help="verify a recurrence family on a table")
    _add_spec_options(p_verify)
    p_verify.add_argument("--family", required=True,
                          help=f"one of {', '.join(VERIFY_FAMILIES)}")
    p_verify.add_argument("--max-n", type=int, default=10)
    _add_format_option(p_verify, choices=("text", "json"))
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="query an independent oracle")
    p_oracle.add_argument("--which", choices=ORACLES, required=True)
    p_oracle.add_argument("--args", type=int, nargs="*", default=[])
    p_oracle.add_argument("--s", help="rational s for md_ubinomial")
    p_oracle.add_argument("--t", help="rational t for md_ubinomial")
    _add_format_option(p_oracle, choices=("text", "json"))
    p_oracle.set_defaults(func=cmd_oracle)

    p_suite = sub.add_parser("suite", help="run the verification suite")
    p_suite.add_argument("--config", help="JSON suite configuration")
    p_suite.add_argument("--out", help="write the report here instead of stdout")
    p_suite.add_argument("--max-n", type=int)
    p_suite.add_argument("--format", choices=("text", "json"))
    p_suite.add_argument("--cache", help="triangle cache path to warm")
    p_suite.set_defaults(func=cmd_suite)

    return parser


@contextlib.contextmanager
def _unlimited_int_str():
    """Lift CPython's cap on int <-> str conversion (4300 digits by default,
    from 3.10.7 on): exact cells of large triangles run past it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _unlimited_int_str():
            return args.func(args)
    except (ConfigError, DegenerateRootsError, FamilyRequirementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ZeroTermError, SingularCoefficientError, ScalarIdentityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
