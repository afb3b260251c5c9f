"""Golden CLI output: sha256 of whole triangles, pinned from the Fraction-only
ring, so any change to the arithmetic kernels that moves a byte shows here."""

import hashlib
import json

import pytest

from hbinom.cli import main

POLY_SPEC = json.dumps({"a": "0", "b": "1", "s": ["0", "1"], "t": "-23/19"})

GOLDEN = [
    (("--preset", "cigler_qfib", "--max-n", "14"),
     "30775d146822ff74a3a9802ee69f444b24efbffa24e0493209e5b8c213ebd3e0"),
    # a = 2, b = x: many cells are rational functions with a non-constant denominator
    (("--preset", "cigler_qlucas", "--max-n", "10"),
     "ee222b11d870822584f4cb6635949e0d20e1170cadc5c2e3a93ac1a5dc63e4fc"),
    (("--preset", "lucas_numbers", "--max-n", "80"),
     "1ad8fb8ac41440074b2ffac43acf12bf47e385cb003c20d3582f45e79c8bb731"),
    (("--spec", POLY_SPEC, "--max-n", "12"),
     "d7ccdf37ceeda45ea98f46a0e873a28e0a6151a082be2bc92b0410eeb86e71ad"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN,
                         ids=["cigler_qfib", "cigler_qlucas", "lucas_numbers", "poly_t"])
def test_triangle_csv_golden(capsys, argv, digest):
    code = main(["triangle", *argv, "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
