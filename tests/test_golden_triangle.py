"""Golden `hbinom triangle` output in text and json, and the JSONL cache it
writes: the exit code, the sha256 of stdout and stderr of each triangle, and
for a cold pass over an empty cache then a warm pass over the same file, the
sha256 of both passes' stdout and of the cache file.  The digests were taken
while every cell was lifted to `Scalar` and rendered by `to_json`, and every
cache record went through `json.JSONEncoder` and back through `json.loads`,
so any byte that writing them directly changes shows here.

The specs cover int cells (fibonacci), Fraction cells (a fractional spec),
polynomial cells (cigler_qfib), rational-function cells (cigler_qlucas) and a
multinomial slice; `tests/test_golden_cli.py` pins csv."""

import hashlib
import json

import pytest

from hbinom.cli import main

FRACTIONAL = json.dumps({"a": "1/2", "b": "-3", "s": "3/7", "t": "-5/11"})

SPECS = {
    "fibonacci": ("--preset", "fibonacci", "--max-n", "40"),
    "fractional": ("--spec", FRACTIONAL, "--max-n", "16"),
    "cigler_qfib": ("--preset", "cigler_qfib", "--max-n", "10"),
    "cigler_qlucas": ("--preset", "cigler_qlucas", "--max-n", "8"),
    "fractional_slice": ("--spec", FRACTIONAL, "--max-n", "12",
                         "--kind", "multinomial-slice", "--parts", "2,1"),
}

GOLDEN = {
    "fibonacci:text": (0, "12f651fa2c3e7217f955a29d5c87ff1d9c37a861bd74d74363741bb39c58fd88", ""),
    "fibonacci:json": (0, "a3534ae5a53094f4702bee3f4edcc511fdc6db6d768a4c0ce129574a8654746c", ""),
    "fractional:text": (0, "eb1f434bcf8a3bedbcd3e6a0885e9e0ee7bd10264238ab69044c5137c89ee7bd", ""),
    "fractional:json": (0, "70bb31d689d67c9cfe08385586e5c9f1e7beb09fbf1c40baf3e248b7fb0c5e01", ""),
    "cigler_qfib:text": (0, "05c1edcd4d8cf05c7a371e6dee2c19eedf9d9f7e2a8ebb22d51fb460be6fb5e3", ""),
    "cigler_qfib:json": (0, "25128f55b2ff17df13d0832f845b583a297bb3308df53607c8f90323ca59e998", ""),
    "cigler_qlucas:text": (0, "7808a2af9c0b5b2e2afa062b44508c5c2a251acccda043bb0302c5ff815b88fb", ""),
    "cigler_qlucas:json": (0, "b5b0134d83eedd24fd4c458fbe7e0985ccc5b5b6e366a32a57e7e4bc01fe91ad", ""),
    "fractional_slice:text": (0, "d0ad99c67f68ed87ab9c2412ffbc05e3af7cbf488efb928f412a716595fd4502", ""),
    "fractional_slice:json": (0, "a260d0e9982bc73d071afbad9af4a591270465db4699655ebe6229879538b992", ""),
}

# name -> sha256 of the cache file after a cold pass in text; the cold and the
# warm pass both print the "<name>:text" bytes
CACHE_GOLDEN = {
    "fibonacci": "35be6b1b50a1332ad95b6ed0c9d9ff30d4b78a1de0d6b0584dabcb89a536a767",
    "fractional": "a6e6a02484b9c0c53893c94659d548b5cf61199c9bf5299b4fbc7f352265cb1c",
    "cigler_qfib": "623abe2e0d9083ca03b48c6d23170abc227e5bfdf551005e2e4ae5f88b1078b7",
    "cigler_qlucas": "6f7e8ecf4234719d5c5a0acf6c4af714adfa9fa08d33416d451a6d1a7dd170eb",
    "fractional_slice": "b48963123f4c6fe86e7fc5f5208dd781b4d1b96be60ed9c9cc22003e199797c6",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _triangle(capsys, *argv):
    code = main(["triangle", *argv])
    captured = capsys.readouterr()
    return code, _sha(captured.out.encode()), captured.err


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_triangle_golden(capsys, key):
    name, fmt = key.split(":")
    assert _triangle(capsys, *SPECS[name], "--format", fmt) == GOLDEN[key]


@pytest.mark.parametrize("name", sorted(CACHE_GOLDEN))
def test_triangle_cache_golden(tmp_path, capsys, name):
    cache = tmp_path / "t.jsonl"
    argv = (*SPECS[name], "--cache", str(cache))
    assert _triangle(capsys, *argv) == GOLDEN[f"{name}:text"]
    written = cache.read_bytes()
    assert _sha(written) == CACHE_GOLDEN[name]
    assert _triangle(capsys, *argv) == GOLDEN[f"{name}:text"]
    # the warm pass replays every cell and appends nothing
    assert cache.read_bytes() == written


def test_every_triangle_case_is_pinned():
    assert set(GOLDEN) == {f"{name}:{fmt}" for name in SPECS for fmt in ("text", "json")}
    assert set(CACHE_GOLDEN) == set(SPECS)
