"""Golden closed-form output on polynomial and split-root specs: the sha256 of
stdout, the exit code and stderr of `verify --family binet|alternating
--max-n 9`, in text and in json (json hashed without `generated_at`), and the
sha256 of every coefficient pair with r + s <= 9 as JSON strings.  The digests
were taken while the closed form still read its pairs from root-power ladders,
so any byte that reading them from sequence terms changes shows here.

The specs cover both ways the square root of the discriminant is held:
irrational over polynomial weights (cigler_qfib, cigler_qlucas with t = -2),
and rational, folded into the base field, on Scalar values (U(x+1, -x), whose
discriminant (x - 1)^2 is a square) and on native values (a fractional spec
with roots 1/2 and 1/3)."""

import hashlib
import json

import pytest

from hbinom.cli import main
from hbinom.recurrences import (NATIVE, SingularCoefficientError, coeffs_alternating,
                                coeffs_binet, family_coeffs, resolve_family)
from hbinom.ring import lift
from hbinom.sequences import HoradamSpec, preset, to_binet

U_X1_MX = {"a": "0", "b": "1", "s": ["1", "1"], "t": ["0", "-1"]}
SPLIT_FRACTIONAL = {"a": "1/2", "b": "3", "s": "5/6", "t": "-1/6"}

SPECS = {
    "cigler_qfib": ("--preset", "cigler_qfib"),
    "cigler_qlucas_m2": ("--preset", "cigler_qlucas", "--t", "-2"),
    "u_x1_mx": ("--spec", json.dumps(U_X1_MX)),
    "split_fractional": ("--spec", json.dumps(SPLIT_FRACTIONAL)),
}
SPEC_VALUES = {
    "cigler_qfib": preset("cigler_qfib"),
    "cigler_qlucas_m2": preset("cigler_qlucas", t=-2),
    "u_x1_mx": HoradamSpec.from_json(U_X1_MX),
    "split_fractional": HoradamSpec.from_json(SPLIT_FRACTIONAL),
}

# every cell passes, so the printed bytes do not depend on the spec
_PASS_JSON = (0, "a32895e0055eba822580a5c1b09dfd465f96c6652f68c3b587114bae1dd8f797", "")
_PASS_TEXT = (0, "adceff9d59c22d0eb9ebeb1662f08aa4a3018f193b9f985ce070a36050618ef4", "")
_BINET_JSON = (0, "f9c7fa3fb2c7a008f47febc308d0d683037f3d67679a6934cfd30a0c74ce36a7", "")
_BINET_TEXT = (0, "6ade09839798cdcf46ec8a38366c5094b2ad0a48139772f7fd338f9508fcebc7", "")

GOLDEN = {
    **{f"{spec}:alternating:json": _PASS_JSON for spec in SPECS},
    **{f"{spec}:alternating:text": _PASS_TEXT for spec in SPECS},
    **{f"{spec}:binet:json": _BINET_JSON for spec in SPECS},
    **{f"{spec}:binet:text": _BINET_TEXT for spec in SPECS},
}

PAIRS = {
    "cigler_qfib:alternating": "e551d7911144be1faa1fda236fa6f8016b6b0d3ed0eee85f80978b6f1ce81ea9",
    "cigler_qfib:binet": "692f008a2e9193c64376f2e8ca465ea2004a2ad7686544df1f0dc09c4670487e",
    "cigler_qlucas_m2:alternating": "abc7ffe7e31ebb71e917f142aef5c18a68f6ca4814ca979afb30529d6215b058",
    "cigler_qlucas_m2:binet": "64c4bc7cab1897c17e16dcf2bd102970a0d45fc3d901cb3ea656c97bad85da99",
    "split_fractional:alternating": "862ae29a8543afbba1f5a9a64b45e0f05b78b40ccd7845bb50dc497ffde052b8",
    "split_fractional:binet": "7f8ea63a83fb72ba6708542a0347b346f13cfd6ebda402b8a7e45ad8fb51f329",
    "u_x1_mx:alternating": "799c124bbdbc3dd6c98124afabbfa4bfb9817c64267bc2fe5b0dac10793fd39d",
    "u_x1_mx:binet": "a45b7eeac61a59023a96e84b94bc30ebc6b3d70da3352f4dd60f4b51e96b6dd0",
}


def _digest(fmt: str, out: str) -> str:
    if fmt == "json" and out:
        doc = json.loads(out)
        doc.pop("generated_at")
        out = json.dumps(doc, indent=2, sort_keys=True)
    return hashlib.sha256(out.encode()).hexdigest()


def _parts(value):
    value = lift(value)
    if hasattr(value, "alpha"):
        return [value.alpha.to_json(), value.beta.to_json()]
    return value.to_json()


def _pairs_digest(rule, max_n: int = 9) -> str:
    out = []
    for total in range(2, max_n + 1):
        for r in range(1, total):
            try:
                pair = rule(r, total - r)
            except SingularCoefficientError:
                out.append("singular")
                continue
            out.append([_parts(pair.h1), _parts(pair.h2)])
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_verify_closed_form_golden(capsys, key):
    spec, family, fmt = key.split(":")
    code = main(["verify", *SPECS[spec], "--family", family, "--max-n", "9",
                 "--format", fmt])
    captured = capsys.readouterr()
    assert (code, _digest(fmt, captured.out), captured.err) == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(PAIRS))
def test_closed_form_pairs_golden(key):
    name, tag = key.split(":")
    spec = SPEC_VALUES[name]
    binet = to_binet(spec)
    rule = {"binet": coeffs_binet, "alternating": coeffs_alternating}[tag]
    assert _pairs_digest(lambda r, s: rule(binet, r, s)) == PAIRS[key]
    if spec.is_rational:
        # the native route, as `verify_pascal` runs it, gives the same values
        family = resolve_family(tag, spec).with_numbers(NATIVE)
        assert _pairs_digest(lambda r, s: family_coeffs(family, r, s)) == PAIRS[key]


def test_every_closed_form_case_is_pinned():
    assert set(GOLDEN) == {f"{spec}:{family}:{fmt}" for spec in SPECS
                           for family in ("binet", "alternating")
                           for fmt in ("text", "json")}
    assert set(PAIRS) == {f"{spec}:{family}" for spec in SPECS
                          for family in ("binet", "alternating")}
