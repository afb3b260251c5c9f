"""The triangle's direct writers and the cache reader against their reference
routes: text and csv lines against `_rows_to_stream` and `csv.writer`, cache
records against `JSONEncoder`, rendered cells against `BinomialTable.row`
and `Scalar.to_json`, and `load_cache`'s `raw_decode` against `json.loads`,
error texts included.  The record shapes `load_cache` refuses are here too."""

import csv
import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbinom.binomials import table_for
from hbinom.cli import (TRIANGLE_HEADER, ConfigError, _encode_records, _rows_to_stream,
                        _triangle_chunks, append_cache, load_cache, main,
                        triangle_digest, triangle_rows)
from hbinom.sequences import HoradamSpec, _PRESET_NAMES, preset

FORMATS = ("text", "csv", "json")

SPECS = {
    **{name: preset(name, s=3, t=-2) if name in ("u", "v") else preset(name)
       for name in _PRESET_NAMES},
    "v_1_1": preset("v", s=1, t=1),   # Fraction cells
    "fractional": HoradamSpec.from_json({"a": "1/2", "b": "-3", "s": "3/7",
                                         "t": "-5/11"}),
    # rational-function cells with a non-constant denominator
    "poly_t": HoradamSpec.from_json({"a": "0", "b": "1", "s": ["0", "1"],
                                     "t": "-23/19"}),
}
POLYNOMIAL = ("cigler_qfib", "cigler_qlucas", "poly_t")


def _max_n(name):
    return 7 if name in POLYNOMIAL else 25


def _reference(cells, fmt):
    return _rows_to_stream([{"n": n, "k": k, "value": v} for n, k, v in cells],
                           fmt, TRIANGLE_HEADER)


def _joined(cells, fmt):
    return "".join(_triangle_chunks(cells, fmt))


# -- rendering cells ----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SPECS))
def test_cells_render_as_their_scalar_rows(name):
    spec = SPECS[name]
    max_n = _max_n(name)
    tbl = table_for(spec)
    expected = [(n, k, v.to_json()) for n in range(max_n + 1)
                for k, v in enumerate(tbl.row(n))]
    assert triangle_rows(spec, "binomial", (), max_n, None) == expected


@pytest.mark.parametrize("kind,parts", [("binomial", ()), ("multinomial-slice", (2, 1))])
@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("fmt", FORMATS)
def test_direct_lines_match_the_reference_writer(name, fmt, kind, parts):
    cells = triangle_rows(SPECS[name], kind, parts, _max_n(name), None)
    assert _joined(cells, fmt) == _reference(cells, fmt)


# replayed values may be any string, list or object a cache file holds
_TRICKY = st.sampled_from(list('",\r\n\\\t \x00\x1f\x7f\u2028\ufeff/-') + ["é", "\U0001f600"])
TEXT = st.text(st.one_of(_TRICKY, st.sampled_from(string.digits), st.characters()),
               max_size=12)
VALUES = st.recursive(TEXT, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(TEXT, inner, max_size=3)), max_leaves=6)


def _written(write, cells, fmt):
    """What a writer gives, or the csv.Error it raises: CPython 3.10's
    `csv.writer` refuses a NUL in a field."""
    try:
        return write(cells, fmt)
    except csv.Error as exc:
        return repr(exc)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), VALUES),
                min_size=1, max_size=6))
def test_direct_lines_match_the_reference_writer_on_any_value(cells):
    for fmt in FORMATS:
        assert _written(_joined, cells, fmt) == _written(_reference, cells, fmt)


# -- cache records --------------------------------------------------------------

_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _encoded(cells, spec_hash):
    """The reference bytes: one `JSONEncoder` record per cell."""
    return "".join(_ENCODE({"spec_hash": spec_hash, "n": n, "k": k, "value": v}) + "\n"
                   for n, k, v in cells)


CELL = st.tuples(st.integers(0, 10 ** 9), st.integers(0, 10 ** 9), VALUES)


@settings(max_examples=120, deadline=None)
@given(st.lists(CELL, max_size=6), TEXT)
def test_direct_records_match_the_encoder(cells, spec_hash):
    assert _encode_records(cells, spec_hash) == _encoded(cells, spec_hash)


# what `triangle_rows` appends: a native value's str, or the coefficient list
# or {num, den} object of a polynomial or rational-function cell
NATIVE_TEXT = st.one_of(st.integers(-10 ** 40, 10 ** 40).map(str),
                        st.fractions(max_denominator=10 ** 12).map(str))
CELL_VALUES = st.one_of(NATIVE_TEXT, st.lists(NATIVE_TEXT, min_size=2, max_size=4),
                        st.fixed_dictionaries({"num": st.lists(NATIVE_TEXT, max_size=3),
                                               "den": st.lists(NATIVE_TEXT, max_size=3)}))


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10 ** 9), st.integers(0, 10 ** 9), CELL_VALUES),
                max_size=8),
       st.sampled_from(["0123456789abcdef", '"\\\u2028é']))
def test_triangle_batches_match_the_encoder(cells, spec_hash):
    # a triangle's batch: one spec_hash, a hex digest or one that needs escaping
    assert _encode_records(cells, spec_hash) == _encoded(cells, spec_hash)


def test_a_cached_triangle_appends_the_encoder_bytes(tmp_path):
    for name in ("v_1_1", "fractional", "cigler_qlucas", "poly_t"):
        path = tmp_path / f"{name}.jsonl"
        cells = triangle_rows(SPECS[name], "binomial", (), _max_n(name), str(path))
        digest = triangle_digest(SPECS[name], "binomial", ())
        assert path.read_text() == "".join(
            _ENCODE({"spec_hash": digest, "n": n, "k": k, "value": v}) + "\n"
            for n, k, v in cells)


@pytest.mark.parametrize("kind,parts", [("binomial", ()), ("multinomial-slice", (1, 2))])
def test_a_cold_cache_of_list_and_object_cells_is_the_encoder_bytes(tmp_path, kind, parts):
    # cigler_qlucas cells are strings, coefficient lists and {num, den} objects
    spec = preset("cigler_qlucas")
    path = tmp_path / "t.jsonl"
    cells = triangle_rows(spec, kind, parts, 12, str(path))
    assert {type(v) for _, _, v in cells} == {str, list, dict}
    assert path.read_text() == _encoded(cells, triangle_digest(spec, kind, parts))


@settings(max_examples=40, deadline=None)
@given(st.lists(CELL, min_size=1, max_size=6), TEXT)
def test_appended_records_load_back(tmp_path_factory, cells, spec_hash):
    path = tmp_path_factory.mktemp("cache") / "t.jsonl"
    append_cache(str(path), cells, spec_hash)
    assert load_cache(str(path)) == {(spec_hash, n, k): v for n, k, v in cells}


# -- reading records --------------------------------------------------------------

_GOOD = '{"k":1,"n":2,"spec_hash":"ab","value":"3"}'


@pytest.mark.parametrize("line", [
    _GOOD[:25],                       # truncated
    _GOOD[:-1],                       # unclosed object
    _GOOD + "{}",                     # extra data
    _GOOD + " x",
    "\ufeff" + _GOOD,                 # a UTF-8 BOM
    "nul",
    '{"k":1,"n":2,"spec_hash":"ab","value":"3",}',
], ids=["truncated", "unclosed", "extra", "extra_after_space", "bom", "bad_literal",
        "trailing_comma"])
def test_decode_errors_read_as_json_loads_reports_them(tmp_path, line):
    path = tmp_path / "t.jsonl"
    path.write_text(_GOOD + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as ref:
        json.loads(line)
    with pytest.raises(ConfigError) as got:
        load_cache(str(path))
    assert str(got.value) == f"bad cache line 2 in {path}: {ref.value}"


def test_surrounding_whitespace_is_not_data(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(" \t" + _GOOD + " \r\n\n", encoding="utf-8")
    assert load_cache(str(path)) == {("ab", 2, 1): "3"}


@pytest.mark.parametrize("fields", [
    {"n": 2.2, "k": 1.9},
    {"n": 2.0, "k": 1.0},
    {"n": "2"},
    {"k": True},
    {"n": None},
    {"spec_hash": None},
    {"spec_hash": 7},
    {"value": 777},
    {"value": 7.5},
    {"value": None},
    {"value": True},
], ids=["float_keys", "integral_float_keys", "string_n", "bool_k", "null_n",
        "null_spec_hash", "int_spec_hash", "int_value", "float_value", "null_value",
        "bool_value"])
def test_records_of_the_wrong_shape_are_refused(tmp_path, capsys, fields):
    """Such a record used to be replayed (n and k truncated by int()) or
    silently dropped; now the command exits 2 and prints no cells."""
    spec = preset("fibonacci")
    record = {"spec_hash": triangle_digest(spec, "binomial", ()), "n": 2, "k": 1,
              "value": "777", **fields}
    cache = tmp_path / "t.jsonl"
    cache.write_text(json.dumps(record) + "\n")
    code = main(["triangle", "--preset", "fibonacci", "--max-n", "3",
                 "--cache", str(cache)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad cache line 1 in {cache}: ")


def test_well_formed_records_are_replayed(tmp_path, capsys):
    spec = preset("fibonacci")
    digest = triangle_digest(spec, "binomial", ())
    cache = tmp_path / "t.jsonl"
    cache.write_text("".join(json.dumps({"spec_hash": digest, "n": n, "k": k,
                                         "value": value}) + "\n"
                             for n, k, value in ((0, 0, "1"), (1, 0, ["1", "2"]),
                                                 (1, 1, {"num": ["3"], "den": ["4"]}))))
    code = main(["triangle", "--preset", "fibonacci", "--max-n", "1",
                 "--cache", str(cache)])
    assert code == 0
    assert capsys.readouterr().out == ('0  0  1\n1  0  ["1","2"]\n'
                                       '1  1  {"den":["4"],"num":["3"]}\n')
