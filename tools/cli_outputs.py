"""Digests of CLI outputs that must be the same bytes on every Python version.

Standard library only, so it runs where pytest is not installed:

    PYTHONPATH=src python tools/cli_outputs.py > digests.json

prints, for each case, the exit code, the sha256 of stdout (a JSON report
without its `generated_at`) and stderr, as sorted JSON, and the sha256 of each
triangle cache file that the cached cases write in a temporary directory.
Two versions agree when their files are byte-identical.  The cases mix int
and Fraction values (rational specs with integral and non-integral entries),
polynomial cells (some with fractional contents), rational-function cells,
closed-form pairs on split fractional and polynomial roots, Pascal checks
on polynomial cells and on cells that cancel a polynomial gcd, a check
stopped by a zero term, and the default suite.  A cached
Fibonacci triangle spans several chunks of the triangle and cache writers,
and its cache file carries a `spec_hash` from the builtin sha256 module of
the version that ran (`_sha256` before CPython 3.12, `_sha2` from 3.12 on).
The cached cases write cache records of every value type (strings, lists
and {num, den} objects), for binomial triangles and multinomial slices.
Every oracle is queried in text and json, and a strict suite whose literal
V addition check fails must exit 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from hbinom.cli import VERIFY_FAMILIES, main

FRACTIONAL = json.dumps({"a": "1/2", "b": "-3", "s": "3/7", "t": "-5/11"})
SPECS = {
    "fibonacci": ("--preset", "fibonacci"),
    "split": ("--preset", "u", "--s", "3", "--t", "-2"),
    "fractional": ("--spec", FRACTIONAL),
}
# roots 1/2 and 1/3, held natively; polynomial roots (x +/- sqrt(x^2 + 4))/2
CLOSED_FORM_SPECS = {
    "split_fractional": (("--spec", json.dumps({"a": "1/2", "b": "3", "s": "5/6",
                                                "t": "-1/6"})), "10"),
    "cigler_qfib": (("--preset", "cigler_qfib"), "8"),
}

# U(x, -17/28): polynomial cells whose contents have denominators
U_X_FRACTIONAL_T = json.dumps({"a": "0", "b": "1", "s": ["0", "1"], "t": "-17/28"})

# triangles whose cache a cold and a warm pass share: Fraction cells, and
# polynomial and rational-function cells, whose records hold lists and dicts
CACHED = {
    "fractional": ("--spec", FRACTIONAL, "--max-n", "12"),
    "cigler_qlucas": ("--preset", "cigler_qlucas", "--max-n", "8"),
    "cigler_qlucas_fractional_t": ("--preset", "cigler_qlucas", "--t=-17/28", "--max-n", "8"),
    "cigler_qlucas_fractional_t_csv": ("--preset", "cigler_qlucas", "--t=-17/28",
                                       "--max-n", "8", "--format", "csv"),
    # multinomial slices: Fraction cells, and rational-function cells with
    # fractional contents
    **{f"{name}_slice": (*args, "--max-n", "10", "--kind", "multinomial-slice",
                         "--parts", "1,2")
       for name, args in (("fractional", ("--spec", FRACTIONAL)),
                          ("cigler_qlucas_fractional_t", ("--preset", "cigler_qlucas",
                                                          "--t=-17/28")))},
    # several output chunks and cache writes (3,321 cells against
    # `cli.CHUNK_CELLS`), in both chunked formats
    **{f"fibonacci_{fmt}": ("--preset", "fibonacci", "--max-n", "80", "--format", fmt)
       for fmt in ("text", "csv")},
}

# every oracle, with the arguments of tests/test_golden_cli.py
ORACLE_ARGS = {
    "box": ("3", "2"),
    "zigzag": ("5", "2"),
    "inversion": ("5", "2"),
    "gauss": ("5", "2"),
    "subspaces": ("3", "1", "2"),
    "tilings": ("6", "2", "3"),
    "bracelets": ("6", "2", "3"),
    "md_fibonomial": ("7", "3"),
    "errata_fibonomial": ("7", "3"),
    "md_ubinomial": ("6", "3", "--s", "3", "--t", "-2"),
}

STRICT_SUITE = {"specs": [{"name": "fibonacci", "preset": "fibonacci"}],
                "families": ["hu_sun"], "max_n": 5, "oracles": ["addition"],
                "literal_v_addition_strict": True}

CASES = {
    "suite_default_text": ("suite",),
    "suite_default_json": ("suite", "--format", "json"),
    "triangle_lucas_numbers": ("triangle", "--preset", "lucas_numbers", "--max-n", "40",
                               "--format", "csv"),
    "triangle_fractional": ("triangle", "--spec", FRACTIONAL, "--max-n", "12"),
    "seq_fractional": ("seq", "--spec", FRACTIONAL, "--max-n", "30"),
    "binom_fractional": ("binom", "--spec", FRACTIONAL, "-n", "12", "-k", "5"),
    "triangle_fractional_slice": ("triangle", "--spec", FRACTIONAL, "--max-n", "10",
                                  "--kind", "multinomial-slice", "--parts", "1,2",
                                  "--format", "csv"),
    # the same cache twice: a cold pass writes it, a warm pass replays it
    **{f"triangle_{name}_cache_{pass_}": ("triangle", *args, "--cache",
                                          f"{{tmp}}/{name}.jsonl")
       for name, args in CACHED.items() for pass_ in ("cold", "warm")},
    "triangle_cigler_qfib": ("triangle", "--preset", "cigler_qfib", "--max-n", "10"),
    "triangle_u_x_fractional_t": ("triangle", "--spec", U_X_FRACTIONAL_T, "--max-n", "18",
                                  "--format", "csv"),
    **{f"triangle_cigler_qlucas_{fmt}": ("triangle", "--preset", "cigler_qlucas",
                                         "--max-n", "8", "--format", fmt)
       for fmt in ("text", "json")},
    **{f"verify_{family}_{name}": ("verify", *args, "--family", family, "--max-n", "10",
                                   "--format", "json")
       for name, args in SPECS.items() for family in VERIFY_FAMILIES},
    **{f"verify_{family}_{name}": ("verify", *args, "--family", family, "--max-n", max_n,
                                   "--format", "json")
       for name, (args, max_n) in CLOSED_FORM_SPECS.items()
       for family in ("binet", "alternating")},
    # the Pascal checks on polynomial cells, read from the held rows
    **{f"verify_{family}_cigler_qfib": ("verify", "--preset", "cigler_qfib", "--family",
                                        family, "--max-n", "12", "--format", "json")
       for family in ("gould", "gould_symmetric", "hu_sun", "vweighted")},
    # U(1, -1) has U(3) = 0: exit 1, naming index 3
    "verify_hu_sun_zero_term": ("verify", "--preset", "u", "--s", "1", "--t=-1",
                                "--family", "hu_sun", "--max-n", "6"),
    # rational-function cells with fractional contents: each check cancels
    # the Euclidean gcd of a cell's held int tuples
    **{f"verify_{family}_cigler_qlucas_fractional_t": (
        "verify", *CACHED["cigler_qlucas_fractional_t"], "--family", family,
        "--format", "json")
       for family in ("gould", "binet")},
    **{f"oracle_{name}_{fmt}": ("oracle", "--which", name, "--args", *args, "--format", fmt)
       for name, args in ORACLE_ARGS.items() for fmt in ("text", "json")},
    "suite_strict_json": ("suite", "--config", "{tmp}/strict.json", "--format", "json"),
}


def run(argv) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = out.getvalue()
    if text and "--format" in argv and argv[argv.index("--format") + 1] == "json":
        doc = json.loads(text)
        if isinstance(doc, dict):   # a report; a json triangle is a list
            doc.pop("generated_at")
            text = json.dumps(doc, indent=2, sort_keys=True)
    return [code, hashlib.sha256(text.encode()).hexdigest(), err.getvalue()]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "strict.json"), "w", encoding="utf-8") as fh:
            json.dump(STRICT_SUITE, fh)
        digests = {name: run([arg.replace("{tmp}", tmp) for arg in argv])
                   for name, argv in CASES.items()}
        for name in CACHED:
            with open(os.path.join(tmp, f"{name}.jsonl"), "rb") as fh:
                digests[f"triangle_{name}_cache_file"] = hashlib.sha256(fh.read()).hexdigest()
    sys.stdout.write(json.dumps(digests, indent=1, sort_keys=True) + "\n")
