"""The family registry: a tag and a spec give the family and the table it
certifies, and a named family over its own table checks each cell's scalar
identity once."""

import pytest

from hbinom import recurrences
from hbinom.recurrences import (FAMILY_TAGS, CoeffFamily, FamilyRequirementError,
                                resolve_family, verify_pascal)
from hbinom.sequences import DegenerateRootsError, HoradamSpec, preset

FIB = preset("fibonacci")
LUCAS_V = preset("v", s=1, t=1)
SPLIT = preset("u", s=3, t=-2)  # roots 2 and 1
SPLIT_V = preset("v", s=3, t=-2)


def test_tags_in_declaration_order():
    assert FAMILY_TAGS == ("binet", "alternating", "corcino_a", "corcino_b",
                           "gould", "gould_symmetric", "hu_sun")


@pytest.mark.parametrize("tag,target", [
    ("binet", SPLIT_V), ("alternating", SPLIT_V), ("gould", SPLIT_V),
    ("gould_symmetric", SPLIT_V), ("hu_sun", SPLIT), ("corcino_a", SPLIT),
    ("corcino_b", SPLIT)])
def test_resolved_family_certifies_its_table(tag, target):
    family = resolve_family(tag, SPLIT_V)
    assert family.tag == tag
    assert family.seq == target
    assert verify_pascal(family.seq, family, 8).all_pass


def test_root_families_match_their_constructors():
    assert resolve_family("corcino_a", SPLIT_V) == CoeffFamily.corcino_a(2, 1)
    assert resolve_family("corcino_b", SPLIT) == CoeffFamily.corcino_b(2, 1)
    assert resolve_family("hu_sun", LUCAS_V) == CoeffFamily.hu_sun(1, 1)


def test_requirements_are_checked_when_the_family_is_built():
    with pytest.raises(FamilyRequirementError, match="discriminant 5 is not"):
        resolve_family("corcino_b", FIB)
    double = HoradamSpec(0, 1, 2, -1)
    for tag in ("binet", "alternating", "corcino_a"):
        with pytest.raises(DegenerateRootsError):
            resolve_family(tag, double)
    assert verify_pascal(double, resolve_family("gould", double), 6).all_pass


def test_unknown_tag_is_refused():
    with pytest.raises(ValueError, match="unknown family tag 'vweighted'"):
        resolve_family("vweighted", FIB)


def test_own_table_evaluates_the_scalar_identity_once(monkeypatch):
    calls = []
    split_sides = recurrences._split_sides

    def counting(pair, *values):
        calls.append(values)
        return split_sides(pair, *values)

    monkeypatch.setattr(recurrences, "_split_sides", counting)
    report = verify_pascal(FIB, CoeffFamily.hu_sun(1, 1), 8)
    # one scalar check inside family_coeffs and one table check per cell
    assert len(calls) == 2 * len(report.cells)
    calls.clear()
    report = verify_pascal(LUCAS_V, CoeffFamily.hu_sun(1, 1), 8)
    assert len(calls) == 3 * len(report.cells)


def test_family_on_another_table_still_gets_the_scalar_check():
    report = verify_pascal(LUCAS_V, CoeffFamily.hu_sun(1, 1), 6)
    first = report.cells[0]
    assert (first.r, first.s, first.scalar_ok) == (1, 1, False)
