"""Digests of CLI outputs that must be the same bytes on every Python version.

Standard library only, so it runs where pytest is not installed:

    PYTHONPATH=src python tools/cli_outputs.py > digests.json

prints, for each case, the exit code, the sha256 of stdout (a JSON report
without its `generated_at`) and stderr, as sorted JSON, and the sha256 of the
triangle cache file that the cached cases write in a temporary directory.
Two versions agree when their files are byte-identical.  The cases mix int
and Fraction values (rational specs with integral and non-integral entries),
polynomial cells, closed-form pairs on split fractional and polynomial roots,
and the default suite.
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
    **{f"triangle_fractional_cache_{pass_}": ("triangle", "--spec", FRACTIONAL,
                                              "--max-n", "12", "--cache", "{tmp}/t.jsonl")
       for pass_ in ("cold", "warm")},
    "triangle_cigler_qfib": ("triangle", "--preset", "cigler_qfib", "--max-n", "10"),
    **{f"verify_{family}_{name}": ("verify", *args, "--family", family, "--max-n", "10",
                                   "--format", "json")
       for name, args in SPECS.items() for family in VERIFY_FAMILIES},
    **{f"verify_{family}_{name}": ("verify", *args, "--family", family, "--max-n", max_n,
                                   "--format", "json")
       for name, (args, max_n) in CLOSED_FORM_SPECS.items()
       for family in ("binet", "alternating")},
}


def run(argv) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = out.getvalue()
    if text and "--format" in argv and argv[argv.index("--format") + 1] == "json":
        doc = json.loads(text)
        doc.pop("generated_at")
        text = json.dumps(doc, indent=2, sort_keys=True)
    return [code, hashlib.sha256(text.encode()).hexdigest(), err.getvalue()]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: run([arg.replace("{tmp}", tmp) for arg in argv])
                   for name, argv in CASES.items()}
        with open(os.path.join(tmp, "t.jsonl"), "rb") as fh:
            digests["triangle_fractional_cache_file"] = hashlib.sha256(fh.read()).hexdigest()
    sys.stdout.write(json.dumps(digests, indent=1, sort_keys=True) + "\n")
