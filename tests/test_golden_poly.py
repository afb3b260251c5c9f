"""Golden output on polynomial specs: the exit code, the sha256 of stdout and
stderr of
- `verify --family F --max-n 9` for every family, in text and json (json
  hashed without `generated_at`), on cigler_qfib and cigler_qlucas.  A
  passing record names only its check and indices, so the two specs share
  digests; a failing one would print both exact sides;
- `triangle --format csv --max-n 18` on U(x, 22/23) and U(x, -17/28), whose
  polynomial cells have contents with denominators;
- `triangle --preset cigler_qlucas --t=-17/28 --max-n 8` in text and json,
  whose cells are rational functions.
The digests were taken while every polynomial `Scalar` held its coefficients
as a tuple of Fractions, so any byte that holding them as a content times a
primitive int tuple changes shows here."""

import hashlib
import json

import pytest

from hbinom.cli import VERIFY_FAMILIES, main


def _u_of_x(t: str) -> str:
    return json.dumps({"a": "0", "b": "1", "s": ["0", "1"], "t": t})


VERIFY_SPECS = {
    "cigler_qfib": ("--preset", "cigler_qfib"),
    "cigler_qlucas": ("--preset", "cigler_qlucas"),
}

TRIANGLES = {
    "u_x_22_23:csv": ("--spec", _u_of_x("22/23"), "--max-n", "18"),
    "u_x_m17_28:csv": ("--spec", _u_of_x("-17/28"), "--max-n", "18"),
    "cigler_qlucas_m17_28:text": ("--preset", "cigler_qlucas", "--t=-17/28", "--max-n", "8"),
    "cigler_qlucas_m17_28:json": ("--preset", "cigler_qlucas", "--t=-17/28", "--max-n", "8"),
}

VERIFY_GOLDEN = {
    "cigler_qfib:alternating:json": (0, "a32895e0055eba822580a5c1b09dfd465f96c6652f68c3b587114bae1dd8f797",
        ""),
    "cigler_qfib:alternating:text": (0, "adceff9d59c22d0eb9ebeb1662f08aa4a3018f193b9f985ce070a36050618ef4",
        ""),
    "cigler_qfib:binet:json": (0, "f9c7fa3fb2c7a008f47febc308d0d683037f3d67679a6934cfd30a0c74ce36a7",
        ""),
    "cigler_qfib:binet:text": (0, "6ade09839798cdcf46ec8a38366c5094b2ad0a48139772f7fd338f9508fcebc7",
        ""),
    "cigler_qfib:corcino_a:json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: family corcino_a needs rational characteristic roots; discriminant 4 + x^2 is not a perfect square\n"),
    "cigler_qfib:corcino_a:text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: family corcino_a needs rational characteristic roots; discriminant 4 + x^2 is not a perfect square\n"),
    "cigler_qfib:corcino_b:json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: family corcino_b needs rational characteristic roots; discriminant 4 + x^2 is not a perfect square\n"),
    "cigler_qfib:corcino_b:text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: family corcino_b needs rational characteristic roots; discriminant 4 + x^2 is not a perfect square\n"),
    "cigler_qfib:gould:json": (0, "c97c1ef6f2ab0698941e7a08921a9afa1c96a466216a5c66ee613a4337f25f08",
        ""),
    "cigler_qfib:gould:text": (0, "e7eb0fab681674d822051e3bd0411a4266aee7ce57e3124d5b4b484ad76d6aa4",
        ""),
    "cigler_qfib:gould_symmetric:json": (0, "32755f08f6b0dd83c7f9ba08ff10cf5a55ac63e0a4d57c0fc8c3f484db046de3",
        ""),
    "cigler_qfib:gould_symmetric:text": (0, "0feeb87c97f33d4477ecdd2dd6577eb86d160b9977bd139023ae770f83465588",
        ""),
    "cigler_qfib:hu_sun:json": (0, "27462596452438efe3627e90157f445fc1656257a1445e946cebe16117a0489b",
        ""),
    "cigler_qfib:hu_sun:text": (0, "f6f241a82f2fd13f1de7f1436d180974e6948fb45b1cb0743d9bf48295348494",
        ""),
    "cigler_qfib:vweighted:json": (0, "182c466c34b5ec4599efe9a012926385229e14e7f6adb17094058b0a4474ca94",
        ""),
    "cigler_qfib:vweighted:text": (0, "0b55f42888a8718b964b3e3278d937c4d6b4f0c234766521d34b9ea0369f9608",
        ""),
    "cigler_qlucas:alternating:json": (0, "a32895e0055eba822580a5c1b09dfd465f96c6652f68c3b587114bae1dd8f797",
        ""),
    "cigler_qlucas:alternating:text": (0, "adceff9d59c22d0eb9ebeb1662f08aa4a3018f193b9f985ce070a36050618ef4",
        ""),
    "cigler_qlucas:binet:json": (0, "f9c7fa3fb2c7a008f47febc308d0d683037f3d67679a6934cfd30a0c74ce36a7",
        ""),
    "cigler_qlucas:binet:text": (0, "6ade09839798cdcf46ec8a38366c5094b2ad0a48139772f7fd338f9508fcebc7",
        ""),
    "cigler_qlucas:corcino_a:json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: family corcino_a needs rational characteristic roots; discriminant 4 + x^2 is not a perfect square\n"),
    "cigler_qlucas:corcino_a:text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: family corcino_a needs rational characteristic roots; discriminant 4 + x^2 is not a perfect square\n"),
    "cigler_qlucas:corcino_b:json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: family corcino_b needs rational characteristic roots; discriminant 4 + x^2 is not a perfect square\n"),
    "cigler_qlucas:corcino_b:text": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: family corcino_b needs rational characteristic roots; discriminant 4 + x^2 is not a perfect square\n"),
    "cigler_qlucas:gould:json": (0, "c97c1ef6f2ab0698941e7a08921a9afa1c96a466216a5c66ee613a4337f25f08",
        ""),
    "cigler_qlucas:gould:text": (0, "e7eb0fab681674d822051e3bd0411a4266aee7ce57e3124d5b4b484ad76d6aa4",
        ""),
    "cigler_qlucas:gould_symmetric:json": (0, "32755f08f6b0dd83c7f9ba08ff10cf5a55ac63e0a4d57c0fc8c3f484db046de3",
        ""),
    "cigler_qlucas:gould_symmetric:text": (0, "0feeb87c97f33d4477ecdd2dd6577eb86d160b9977bd139023ae770f83465588",
        ""),
    "cigler_qlucas:hu_sun:json": (0, "27462596452438efe3627e90157f445fc1656257a1445e946cebe16117a0489b",
        ""),
    "cigler_qlucas:hu_sun:text": (0, "f6f241a82f2fd13f1de7f1436d180974e6948fb45b1cb0743d9bf48295348494",
        ""),
    "cigler_qlucas:vweighted:json": (0, "182c466c34b5ec4599efe9a012926385229e14e7f6adb17094058b0a4474ca94",
        ""),
    "cigler_qlucas:vweighted:text": (0, "0b55f42888a8718b964b3e3278d937c4d6b4f0c234766521d34b9ea0369f9608",
        ""),
}

TRIANGLE_GOLDEN = {
    "cigler_qlucas_m17_28:json": (0, "18b387498ea6f4087f58b0094d04a455484a062a6a969fc1c782f7fc6e37c646",
        ""),
    "cigler_qlucas_m17_28:text": (0, "a70650c2e7c8b560d543834fadceb38a51fc50569ae79967cf5fafd38fef82a8",
        ""),
    "u_x_22_23:csv": (0, "70cdb6127568c3c72a38fe25646750ea2148198830c638b03d02bc2d8d45db95",
        ""),
    "u_x_m17_28:csv": (0, "e7ae1006e3361b4f5aadd369b86625742e89b7c003cbf9796966d8f4a47d3496",
        ""),
}


def _digest(fmt: str, out: str) -> str:
    if fmt == "json" and out:
        doc = json.loads(out)
        if isinstance(doc, dict):   # a report; a json triangle is a list
            doc.pop("generated_at")
            out = json.dumps(doc, indent=2, sort_keys=True)
    return hashlib.sha256(out.encode()).hexdigest()


def _run(capsys, fmt, argv):
    code = main([*argv, "--format", fmt])
    captured = capsys.readouterr()
    return code, _digest(fmt, captured.out), captured.err


@pytest.mark.parametrize("key", sorted(VERIFY_GOLDEN))
def test_verify_golden(capsys, key):
    spec, family, fmt = key.split(":")
    argv = ("verify", *VERIFY_SPECS[spec], "--family", family, "--max-n", "9")
    assert _run(capsys, fmt, argv) == VERIFY_GOLDEN[key]


@pytest.mark.parametrize("key", sorted(TRIANGLE_GOLDEN))
def test_triangle_golden(capsys, key):
    fmt = key.split(":")[1]
    assert _run(capsys, fmt, ("triangle", *TRIANGLES[key])) == TRIANGLE_GOLDEN[key]


def test_every_case_is_pinned():
    assert set(VERIFY_GOLDEN) == {f"{spec}:{family}:{fmt}" for spec in VERIFY_SPECS
                                  for family in VERIFY_FAMILIES
                                  for fmt in ("text", "json")}
    assert set(TRIANGLE_GOLDEN) == set(TRIANGLES)
