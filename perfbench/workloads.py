"""Seeded inputs, argv lists and the correctness gate of each workload.

Nothing here imports hbinom.  The references are plain Python over ints and
Fractions, rendered the way the CLI renders values, so agreement with the CLI
output is an independent check.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFINITIONS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "workloads.json")

# Records a suite report holds per spec (seven Pascal families, vweighted,
# three addition checks, one series check) and in total for the oracle
# groups, which do not depend on the specs.
SUITE_RECORDS_PER_SPEC = 12
SUITE_FIXED_RECORDS = 35
# The two corcino families need rational roots and skip otherwise.
SUITE_SKIPS_PER_IRRATIONAL_SPEC = 2


class GeneratorError(RuntimeError):
    """The generator could not draw a valid case."""


def load_definitions() -> dict:
    with open(DEFINITIONS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def workload_definition(name: str) -> dict:
    for wl in load_definitions()["workloads"]:
        if wl["name"] == name:
            return wl
    raise KeyError(f"unknown workload {name!r}")


@dataclass(frozen=True)
class Case:
    """One generated input: the spec(s), the CLI argv (with "{tmp}" left for
    the op's directory), files to write there first, the number of work items
    one pass completes, and what a correct pass must produce."""

    label: str
    spec: object
    argv: tuple
    items: int
    expected: object
    files: tuple = ()


@dataclass
class Plan:
    workload: str
    seed: int
    sizes: dict
    passes: tuple = ("run",)
    cases: list = field(default_factory=list)

    def record(self) -> dict:
        """The seed with the generated specs and argv lists."""
        return {"workload": self.workload, "seed": self.seed, "sizes": self.sizes,
                "passes": list(self.passes),
                "cases": [{"label": c.label, "spec": c.spec, "argv": list(c.argv)}
                          for c in self.cases]}


# ---------------------------------------------------------------------------
# plain references


def horadam_terms(a, b, s, t, max_n: int) -> list:
    """H(0..max_n) with H(n+2) = s*H(n+1) + t*H(n), on ints or Fractions."""
    terms = [a, b]
    while len(terms) <= max_n:
        terms.append(s * terms[-1] + t * terms[-2])
    return terms[:max_n + 1]


def has_zero_term(a, b, s, t, max_n: int) -> bool:
    return any(h == 0 for h in horadam_terms(a, b, s, t, max_n)[1:])


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _render_rows(rows: list, fmt: str) -> str:
    """Rows of (n, k, value text) the way `hbinom triangle` prints them."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "k", "value"])
        writer.writerows(rows)
        return buf.getvalue()
    return "\n".join("  ".join(str(x) for x in row) for row in rows) + "\n"


def int_triangle_text(a: int, b: int, s: int, t: int, max_n: int) -> str:
    """Factorial-ratio triangle over an integer spec, in the text format."""
    terms = horadam_terms(a, b, s, t, max_n)
    fact = [1]
    for i in range(1, max_n + 1):
        fact.append(fact[-1] * terms[i])
    rows = [(n, k, str(Fraction(fact[n], fact[k] * fact[n - k])))
            for n in range(max_n + 1) for k in range(n + 1)]
    return _render_rows(rows, "text")


def _padd(p: list, q: list) -> list:
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _pmul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] += c * d
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_value_text(p: list) -> str:
    if len(p) <= 1:
        return str(p[0] if p else Fraction(0))
    return json.dumps([str(c) for c in p], sort_keys=True, separators=(",", ":"))


def poly_triangle_csv(t: Fraction, max_n: int) -> str:
    """Triangle over U(x, t), built by C(n,k) = U(n-k+1)*C(n-1,k-1)
    + t*U(k-1)*C(n-1,k) on coefficient lists, in the CSV format."""
    u = [[], [Fraction(1)]]
    while len(u) <= max_n + 1:
        u.append(_padd([Fraction(0)] + u[-1], [t * c for c in u[-2]]))
    one = [Fraction(1)]
    prev: list = []
    rows = []
    for n in range(max_n + 1):
        row = []
        for k in range(n + 1):
            if k in (0, n):
                cell = one
            else:
                left = _pmul(u[n - k + 1], prev[k - 1])
                right = _pmul([t * c for c in u[k - 1]], prev[k])
                cell = _padd(left, right)
            row.append(cell)
            rows.append((n, k, _poly_value_text(cell)))
        prev = row
    return _render_rows(rows, "csv")


def suite_expectation(specs: list) -> dict:
    """Pass/skip/fail counts a correct suite run gives on these specs."""
    skip = sum(SUITE_SKIPS_PER_IRRATIONAL_SPEC for sp in specs
               if not is_square(sp["s"] ** 2 + 4 * sp["t"]))
    total = SUITE_RECORDS_PER_SPEC * len(specs) + SUITE_FIXED_RECORDS
    return {"pass": total - skip, "fail": 0, "skip": skip}


# ---------------------------------------------------------------------------
# generators


def _spec(a, b, s, t) -> dict:
    """The CLI's JSON spec; a list stands for polynomial coefficients."""
    return {k: v if isinstance(v, list) else str(v)
            for k, v in (("a", a), ("b", b), ("s", s), ("t", t))}


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _usable(a, b, s, t, max_n: int) -> bool:
    """No repeated root and no zero term in 1..max_n, for the spec and for
    the fundamental U(s, t) whose table the root families certify."""
    return (s * s + 4 * t != 0
            and not has_zero_term(a, b, s, t, max_n)
            and not has_zero_term(0, 1, s, t, max_n))


def _draw(rng: random.Random, draw, max_n: int) -> tuple:
    for _ in range(1000):
        spec = draw(rng)
        if spec is not None and _usable(*spec, max_n):
            return spec
    raise GeneratorError("no usable spec drawn")


# Suite slots keep the default config's shapes (Fibonacci, Pell, split roots,
# Lucas numbers) with small integer weights, so every seed costs about the
# same.  A draw returns None to be drawn again.
def _fib_like(rng):
    s, t = rng.choice((1, 3)), rng.randint(1, 4)
    return None if is_square(s * s + 4 * t) else (0, 1, s, t)


def _pell_like(rng):
    s, t = rng.choice((2, 4)), rng.randint(1, 4)
    return None if is_square(s * s + 4 * t) else (0, 1, s, t)


def _split_roots(rng):
    p, q = rng.choice((2, 3)), rng.choice((1, -1))
    return 0, 1, p + q, -p * q


def _lucas_like(rng):
    u = _fib_like(rng)
    return None if u is None else (rng.randint(1, 3), rng.randint(-3, 3)) + u[2:]


SUITE_SLOTS = (("fibonacci_like", _fib_like), ("pell_like", _pell_like),
               ("split_roots", _split_roots), ("lucas_like", _lucas_like))

# Integer triangle weights: every pair has a dominant root of modulus 2
# (real roots {2, -1} or {2, 1}, or complex roots of modulus 2), so the
# coefficient sizes, and the cost, are the same class for every seed.
INT_WEIGHTS = ((1, 2), (-1, 2), (3, -2), (-3, -2), (1, -4), (-1, -4),
               (3, -4), (-3, -4))


def _int_u(rng):
    return (0, 1) + rng.choice(INT_WEIGHTS)


def _int_general(rng):
    a = rng.choice((1, -1)) * rng.randint(1, 3)
    return (a, rng.randint(-3, 3)) + rng.choice(INT_WEIGHTS)


@functools.lru_cache(maxsize=None)
def _u_text_len(max_n: int) -> int:
    """Reference length of a U triangle; every U of INT_WEIGHTS is within 0.3 %."""
    return len(int_triangle_text(0, 1, *INT_WEIGHTS[0], max_n))


def _fill(template, **values) -> tuple:
    return tuple(str(values[arg[1:-1]]) if arg[1:-1] in values else arg
                 for arg in template)


def _suite_case(rng: random.Random, sizes: dict, index: int, template) -> Case:
    max_n = sizes["max_n"]
    specs = []
    for name, draw in SUITE_SLOTS:
        a, b, s, t = _draw(rng, draw, max_n)
        specs.append({"name": name, "a": a, "b": b, "s": s, "t": t})
    config = {"specs": [{"name": sp["name"],
                         "spec": _spec(sp["a"], sp["b"], sp["s"], sp["t"])}
                        for sp in specs],
              "max_n": max_n}
    expected = suite_expectation(specs)
    return Case(f"config{index}", specs, _fill(template), sum(expected.values()),
                expected, (("config.json", json.dumps(config, sort_keys=True)),))


def _poly_case(rng: random.Random, sizes: dict, index: int, template) -> Case:
    max_n = sizes["max_n"]
    while True:   # t = p/q with 5-bit p and q: the cell sizes stay within a few %
        p, q = rng.randint(16, 31), rng.randint(16, 31)
        if p != q and math.gcd(p, q) == 1:
            break
    t = Fraction(rng.choice((1, -1)) * p, q)
    spec = _spec(0, 1, ["0", "1"], t)
    cells = (max_n + 1) * (max_n + 2) // 2
    return Case(f"t={t}", spec, _fill(template, spec=_compact(spec), max_n=max_n),
                cells, poly_triangle_csv(t, max_n))


def _int_case(rng: random.Random, sizes: dict, index: int, template) -> Case:
    max_n = sizes["max_n"]
    # The first case of a pool is a fundamental U(s, t) with integral cells.
    # The others have H(0) != 0, so some cells are non-integral.  Their output
    # sizes fall into clusters between 1 and 1.47 times that of a U; only
    # specs inside the `size_ratio` band are kept, so every pool costs alike.
    lo, hi = sizes["size_ratio"]
    for _ in range(1000):
        a, b, s, t = _draw(rng, _int_u if index == 0 else _int_general, max_n)
        expected = int_triangle_text(a, b, s, t, max_n)
        if index == 0 or lo <= len(expected) / _u_text_len(max_n) <= hi:
            break
    else:
        raise GeneratorError("no spec of the size class drawn")
    spec = _spec(a, b, s, t)
    cells = (max_n + 1) * (max_n + 2) // 2
    return Case(f"({a},{b},{s},{t})", spec,
                _fill(template, spec=_compact(spec), max_n=max_n), cells, expected)


GENERATORS = {"suite": _suite_case, "poly_triangle": _poly_case,
              "int_triangle_cache": _int_case}


def make_plan(workload: str, seed: int, sizes: dict | None = None) -> Plan:
    """Draw the pool of cases for one run.  `sizes` overrides entries of the
    workload's recorded sizes (the tests use it to make small ops)."""
    wl = workload_definition(workload)
    sizes = {**wl["sizes"], **(sizes or {})}
    rng = random.Random(f"{workload}:{seed}")
    gen = GENERATORS[workload]
    plan = Plan(workload, seed, sizes, tuple(wl.get("passes", Plan.passes)))
    while len(plan.cases) < sizes["pool"]:
        case = gen(rng, sizes, len(plan.cases), wl["argv"])
        if all(case.label != c.label for c in plan.cases):
            plan.cases.append(case)
    return plan


# ---------------------------------------------------------------------------
# correctness gate


def check_output(plan: Plan, case: Case, stdout: str, tmp: str) -> str | None:
    """None when the op's output is correct, else a one-line reason."""
    if plan.workload == "suite":
        try:
            with open(os.path.join(tmp, "report.json"), "r", encoding="utf-8") as fh:
                summary = json.load(fh)["summary"]
        except (OSError, ValueError, KeyError) as exc:
            return f"no readable suite report: {exc}"
        if summary != case.expected:
            return f"suite summary {summary} != predicted {case.expected}"
        return None
    if stdout != case.expected:
        got, want = stdout.splitlines(), case.expected.splitlines()
        for lineno, (g, w) in enumerate(zip(got, want), start=1):
            if g != w:
                return f"line {lineno}: got {g[:80]!r}, reference {w[:80]!r}"
        return f"got {len(got)} lines, reference has {len(want)}"
    return None
