"""One route from an identity check to its report line: `verify_family` runs
every check that `verify` and `suite` name, and a record keeps its exact
sides as values, rendered with `str` only when the record is written."""

import contextlib
import hashlib
import io
import json
import re
from fractions import Fraction

import pytest

import hbinom
from hbinom import cli
from hbinom.cli import main
from hbinom.recurrences import (VERIFY_FAMILIES, PascalReport, resolve_family,
                                verify_family, verify_pascal, vweighted_verify)
from hbinom.report import Report
from hbinom.ring import Scalar
from hbinom.sequences import preset

VWEIGHTED_ARGV = ["verify", "--preset", "cigler_qfib", "--family", "vweighted",
                  "--max-n", "8"]
# sha256 of the json report of VWEIGHTED_ARGV without its `generated_at`,
# taken from the code that rendered every side as it was checked
VWEIGHTED_JSON_SHA256 = "d67d9ede4490b7ea0457f6b5d892a3b6a500cc85d1a2e02867d3421315a70ae1"
VWEIGHTED_CELLS = 28   # r, s >= 1 with r + s <= 8


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.fixture
def str_calls(monkeypatch):
    """The number of `Scalar.__str__` calls so far, in a one-item list."""
    calls = [0]
    plain = Scalar.__str__

    def counting(self):
        calls[0] += 1
        return plain(self)

    monkeypatch.setattr(Scalar, "__str__", counting)
    return calls


def test_text_verify_renders_no_passing_side(str_calls):
    code, out = _run(VWEIGHTED_ARGV)
    assert code == 0
    assert out.count("[PASS] vweighted") == VWEIGHTED_CELLS
    assert str_calls[0] == 0


def test_json_verify_writes_every_side(str_calls):
    code, out = _run(VWEIGHTED_ARGV + ["--format", "json"])
    assert code == 0
    assert str_calls[0] == 2 * VWEIGHTED_CELLS
    doc = json.loads(out)
    doc.pop("generated_at")
    assert all(r["lhs"] and r["rhs"] for r in doc["records"])
    text = json.dumps(doc, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == VWEIGHTED_JSON_SHA256


def test_a_missing_side_writes_empty():
    report = Report()
    report.add("integrality:u:s1t1", (4,), False, Scalar(Fraction(28, 3)))
    assert report.to_dict("t")["records"] == [
        {"check": "integrality:u:s1t1", "indices": [4], "status": "fail",
         "lhs": "28/3", "rhs": ""}]
    assert report.to_text().splitlines()[0] == "[FAIL] integrality:u:s1t1 (4,) lhs=28/3 rhs="


def test_no_sides_writes_none():
    report = Report()
    report.add("oracle:qstar", (6,), True)
    report.add("oracle:fourway", (8,), False)
    assert [set(r) for r in report.to_dict("t")["records"]] == [
        {"check", "indices", "status"}] * 2
    assert report.to_text().splitlines()[:2] == ["[PASS] oracle:qstar (6,)",
                                                 "[FAIL] oracle:fourway (8,)"]


def test_a_zero_side_is_still_written():
    zero = Scalar(0)
    assert not zero
    report = Report()
    report.add("passing", (1, 1), True, zero, zero)
    report.add("failing", (1, 2), False, zero, Scalar(1))
    records = report.to_dict("t")["records"]
    assert [(r["lhs"], r["rhs"]) for r in records] == [("0", "0"), ("0", "1")]
    assert report.to_text().splitlines()[:2] == ["[PASS] passing (1, 1)",
                                                 "[FAIL] failing (1, 2) lhs=0 rhs=1"]


def _cells(report: PascalReport) -> list[tuple]:
    return [(c.r, c.s, c.ok, c.lhs, c.rhs) for c in report.cells]


def _direct(tag: str, spec, max_n: int) -> PascalReport:
    if tag == "vweighted":
        return vweighted_verify(spec, max_n)
    family = resolve_family(tag, spec)
    return verify_pascal(family.seq, family, max_n)


@pytest.mark.parametrize("name", ["fibonacci", "cigler_qfib"])
@pytest.mark.parametrize("tag", VERIFY_FAMILIES)
def test_verify_family_matches_the_direct_routes(tag, name):
    spec = preset(name)
    try:
        expected = _direct(tag, spec, 7)
    except ValueError as exc:   # a corcino pair needs rational roots
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            verify_family(tag, spec, 7)
        return
    got = verify_family(tag, spec, 7)
    assert isinstance(got, PascalReport)
    assert (got.family, got.max_n) == (tag, 7)
    assert _cells(got) == _cells(expected)
    assert got.uses_extension == expected.uses_extension
    assert got.failures == [] and got.all_pass


def test_one_list_of_verify_families():
    assert cli.VERIFY_FAMILIES is VERIFY_FAMILIES
    assert VERIFY_FAMILIES[-1] == "vweighted"


def test_vweighted_report_is_gone():
    assert "VWeightedReport" not in hbinom.__all__
    assert not hasattr(hbinom, "VWeightedReport")
