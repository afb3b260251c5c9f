"""Golden coefficient pairs of the term-based and root-based families: the
sha256 of every `family_coeffs` pair with r + s <= 9 for gould,
gould_symmetric, hu_sun, corcino_a and corcino_b, as JSON strings.  `hbinom
verify` prints no coefficient values, and a changed pair that still satisfies
its identity passes every verify digest, so these pin the values themselves.

The specs are those of `tests/test_golden_closed_form.py`; corcino needs
rational roots, so it runs on U(x+1, -x) and the split fractional spec only.
On a rational spec the native route, as `verify_pascal` runs it, must give
the same digest."""

import hashlib
import json

import pytest

from hbinom.recurrences import NATIVE, family_coeffs, resolve_family
from hbinom.ring import lift
from hbinom.sequences import HoradamSpec, preset

SPECS = {
    "cigler_qfib": preset("cigler_qfib"),
    "cigler_qlucas_m2": preset("cigler_qlucas", t=-2),
    "u_x1_mx": HoradamSpec.from_json({"a": "0", "b": "1", "s": ["1", "1"],
                                      "t": ["0", "-1"]}),
    "split_fractional": HoradamSpec.from_json({"a": "1/2", "b": "3", "s": "5/6",
                                               "t": "-1/6"}),
}
TERM_FAMILIES = ("gould", "gould_symmetric", "hu_sun")
ROOT_FAMILIES = ("corcino_a", "corcino_b")
RATIONAL_ROOTS = ("u_x1_mx", "split_fractional")

# On U(x+1, -x), with roots x and 1, corcino_b is gould's pair (1, x^r) and
# corcino_a is gould_symmetric's (x^s, 1), so their digests agree.
PAIRS = {
    "cigler_qfib:gould": "2f258339e6dc6e9e6a1575d62d39e3e6435a966d2f015e10a87d28ab9424895f",
    "cigler_qfib:gould_symmetric": "af4b3f663d0f6cc80dbe71cc4ab2a2cf459de7437d792cfb1353d3087a8be289",
    "cigler_qfib:hu_sun": "3bb3bb7dfa35ba05a0b22dd824ac7ae0e524a35fc014793b33b2aa366f8075e8",
    "cigler_qlucas_m2:gould": "96ca91867108f2840b2e2b20605e4d6b5d2a04e4f2c282733ab9cf5f45bd9b53",
    "cigler_qlucas_m2:gould_symmetric": "878430d4ecbfdd49eee77bfab83ff39eb0696ba2051b2ba949f8927327021dc1",
    "cigler_qlucas_m2:hu_sun": "1f06621693dc9aa2b3b97559b77a6bd52b7a6aa6d41783fee2f976cd44c63c7d",
    "u_x1_mx:gould": "8f336c7c7ed31d57b1de066eb24888f1068bc2d9738702e583f36be4bf06ee6b",
    "u_x1_mx:gould_symmetric": "6d5c12787c1770db01b4599ef27d80c92ca3c008d4dcb3d0cbee90958b0b4bc2",
    "u_x1_mx:hu_sun": "5f742e37fd982f31f34a6534507850f0e256ae885ae75f40f4d3fec2b443bb2b",
    "u_x1_mx:corcino_a": "6d5c12787c1770db01b4599ef27d80c92ca3c008d4dcb3d0cbee90958b0b4bc2",
    "u_x1_mx:corcino_b": "8f336c7c7ed31d57b1de066eb24888f1068bc2d9738702e583f36be4bf06ee6b",
    "split_fractional:gould": "167b565d920ddfdde60761d79f9d1b3e3644f328dfe4c79dbc2673d22fa69a89",
    "split_fractional:gould_symmetric": "322f2a54464bfa53906904610345b5fc8508ce82188ec787118609bb624e7a75",
    "split_fractional:hu_sun": "c4cdd671de6796ec8df9539a2415c803579ae5f3f8dbc5c4beb8ae1dedcb85ac",
    "split_fractional:corcino_a": "a7defb1b25e7422944b39fec86eeea77ae08f83c512bebe5e65227ec1ba4e7aa",
    "split_fractional:corcino_b": "118c86a53c64c40783fa2d68919557af4d215e181c4a4e318dca583ed37f5cdc",
}


def _pairs_digest(family, max_n: int = 9) -> str:
    out = []
    for total in range(2, max_n + 1):
        for r in range(1, total):
            pair = family_coeffs(family, r, total - r)
            out.append([lift(pair.h1).to_json(), lift(pair.h2).to_json()])
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(PAIRS))
def test_coeff_pairs_golden(key):
    name, tag = key.split(":")
    spec = SPECS[name]
    family = resolve_family(tag, spec)
    assert _pairs_digest(family) == PAIRS[key]
    if spec.is_rational:
        assert _pairs_digest(family.with_numbers(NATIVE)) == PAIRS[key]


def test_every_pair_case_is_pinned():
    assert set(PAIRS) == ({f"{name}:{tag}" for name in SPECS for tag in TERM_FAMILIES}
                          | {f"{name}:{tag}" for name in RATIONAL_ROOTS
                             for tag in ROOT_FAMILIES})
