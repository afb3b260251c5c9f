"""The triangle and its cache batch are written in pieces of `CHUNK_CELLS`
cells, only after every cell is computed: the pieces join to the reference
bytes, no piece holds more than one chunk, concurrent batches of several
pieces stay whole, a cache that cannot be written leaves stdout empty, and
a reader that closes stdout early ends the run with exit 0 and a whole cache,
and every other command ends as quietly, with its own exit code.
The cache key's sha256 from the builtin module matches `hashlib`'s."""

import errno
import hashlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys
import time

import pytest

from hbinom import cli
from hbinom.cli import (CHUNK_CELLS, TRIANGLE_HEADER, _encode_records, _rows_to_stream,
                        append_cache, main, triangle_rows)
from hbinom.sequences import preset


class Recorder:
    """A stdout that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("name,max_n,fmt,chunk", [
    ("fibonacci", 80, "text", CHUNK_CELLS),
    ("fibonacci", 80, "csv", CHUNK_CELLS),
    # 91 cells of quoted coefficient lists, over a smaller chunk
    ("cigler_qlucas", 12, "csv", 32),
])
def test_a_triangle_is_written_one_chunk_at_a_time(monkeypatch, name, max_n, fmt, chunk):
    monkeypatch.setattr(cli, "CHUNK_CELLS", chunk)
    cells = triangle_rows(preset(name), "binomial", (), max_n, None)
    assert len(cells) > 2 * chunk
    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["triangle", "--preset", name, "--max-n", str(max_n), "--format", fmt]) == 0
    assert len(out.writes) == -(-len(cells) // chunk)
    header = 1 if fmt == "csv" else 0
    assert all(text.count("\n") <= chunk + (header if i == 0 else 0)
               for i, text in enumerate(out.writes))
    reference = _rows_to_stream([{"n": n, "k": k, "value": v} for n, k, v in cells],
                                fmt, TRIANGLE_HEADER)
    assert "".join(out.writes) == reference


def _cells(count):
    """A batch of string, list and object values."""
    values = ["-12/7", ["1", "-2/3"], {"den": ["5"], "num": ["1", "1"]}, "3" * 90]
    return [(i // 50, i % 50, values[i % len(values)]) for i in range(count)]


def test_a_batch_of_several_slices_appends_the_encoder_bytes(tmp_path, monkeypatch):
    cells = _cells(2 * CHUNK_CELLS + 452)
    encoded = []

    def encode(batch, spec_hash):
        encoded.append(len(batch))
        return _encode_records(batch, spec_hash)

    path = tmp_path / "t.jsonl"
    path.write_bytes(b'{"k":0,"n":0,"spec_hash":"ab","value":"1"}\n{"k":1,"n"')
    monkeypatch.setattr(cli, "_encode_records", encode)
    append_cache(str(path), cells, "0123456789abcdef")
    assert encoded == [CHUNK_CELLS, CHUNK_CELLS, 452]
    assert path.read_bytes() == (b'{"k":0,"n":0,"spec_hash":"ab","value":"1"}\n'
                                 + _encode_records(cells, "0123456789abcdef").encode())


_APPENDER = """
import sys, time
from hbinom.cli import append_cache
path, tag, start = sys.argv[1], sys.argv[2], float(sys.argv[3])
time.sleep(max(0.0, start - time.time()))
for n in range(4):
    append_cache(path, [(n, k, "7" * 60) for k in range(2500)], tag)
"""


def test_concurrent_batches_of_several_slices_stay_whole(tmp_path):
    cache = tmp_path / "tri.jsonl"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    start = str(time.time() + 1.0)
    procs = [subprocess.Popen([sys.executable, "-c", _APPENDER, str(cache), tag, start],
                              env=env) for tag in ("a", "b")]
    for proc in procs:
        assert proc.wait(timeout=120) == 0
    text = cache.read_text()
    assert text.endswith("\n")
    records = [json.loads(line) for line in text.splitlines()]
    batches = [[r["k"] for r in run] for _, run in
               itertools.groupby(records, key=lambda r: (r["spec_hash"], r["n"]))]
    assert len(batches) == 8
    assert all(batch == list(range(2500)) for batch in batches)


def test_a_cache_that_cannot_be_written_prints_no_cells(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "t.jsonl"
    opened = []

    def refuse(path, mode="r", *args, **kwargs):
        opened.append(mode)
        raise OSError(errno.EACCES, os.strerror(errno.EACCES), path)

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    code = main(["triangle", "--preset", "fibonacci", "--max-n", "80", "--cache", str(cache)])
    captured = capsys.readouterr()
    assert (code, captured.out, opened) == (2, "", ["a+b"])
    assert captured.err == (f"error: cannot write cache {cache}: [Errno {errno.EACCES}] "
                            f"{os.strerror(errno.EACCES)}: '{cache}'\n")
    assert not cache.exists()


def _hbinom_to_pipe(argv, stdout, unbuffered=False):
    """`hbinom *argv` in a child whose stdout is buffered, as it is by
    default, or unbuffered as under PYTHONUNBUFFERED=1."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "hbinom.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


def _triangle_to_pipe(max_n, fmt, cache, stdout):
    """`hbinom triangle` on Fibonacci, with a buffered stdout."""
    return _hbinom_to_pipe(["triangle", "--preset", "fibonacci", "--max-n", str(max_n),
                            "--format", fmt, "--cache", str(cache)], stdout)


def _whole_cache(cache, max_n):
    reference = cache.parent / "reference.jsonl"
    triangle_rows(preset("fibonacci"), "binomial", (), max_n, str(reference))
    return cache.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_a_reader_that_closes_the_pipe_early_ends_the_run_quietly(tmp_path, fmt):
    """`hbinom triangle ... | head -c 100`: exit 0, nothing on stderr, and the
    whole cache batch written, since the batch is appended before the first
    write."""
    cache = tmp_path / "t.jsonl"
    proc = _triangle_to_pipe(200, fmt, cache, subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err, len(head)) == (0, b"", 100)
    assert _whole_cache(cache, 200)


@pytest.mark.parametrize("max_n", [5, 200])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_a_pipe_closed_before_the_first_write_ends_the_run_quietly(tmp_path, fmt, max_n):
    """A small triangle stays in stdout's buffer until the flush, which fails
    inside the write loop too, and nothing is left to fail at exit."""
    cache = tmp_path / "t.jsonl"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _triangle_to_pipe(max_n, fmt, cache, write_end)
    finally:
        os.close(write_end)
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (0, b"")
    assert _whole_cache(cache, max_n)


STRICT_SUITE = {"specs": [{"name": "fibonacci", "preset": "fibonacci"}],
                "families": ["hu_sun"], "max_n": 5, "oracles": ["addition"],
                "literal_v_addition_strict": True}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv,code", [
    (["seq", "--preset", "fibonacci", "--max-n", "5"], 0),
    (["binom", "--preset", "fibonacci", "-n", "6", "-k", "3", "--format", "json"], 0),
    (["verify", "--preset", "fibonacci", "--family", "gould", "--max-n", "5"], 0),
    (["verify", "--preset", "fibonacci", "--family", "binet", "--max-n", "5",
      "--format", "json"], 0),
    (["oracle", "--which", "gauss", "--args", "5", "2"], 0),
    (["oracle", "--which", "md_ubinomial", "--args", "6", "3", "--s", "3", "--t", "-2",
      "--format", "json"], 0),
    (["suite", "--max-n", "4"], 0),
    # a failing check still fails when nobody reads the report
    (["suite", "--config", "{tmp}/strict.json", "--format", "json"], 1),
], ids=["seq", "binom", "verify_text", "verify_json", "oracle_text", "oracle_json",
        "suite", "suite_strict"])
def test_every_command_ends_quietly_on_a_pipe_closed_before_the_first_write(
        tmp_path, argv, code, unbuffered):
    """Every command writes stdout through `cli._write_out`, so a closed
    stdout leaves stderr empty and the command's own exit code."""
    (tmp_path / "strict.json").write_text(json.dumps(STRICT_SUITE))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _hbinom_to_pipe([a.replace("{tmp}", str(tmp_path)) for a in argv],
                               write_end, unbuffered)
    finally:
        os.close(write_end)
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (code, b"")


def test_a_reader_that_closes_a_long_sequence_early_ends_the_run_quietly():
    """`hbinom seq --preset fibonacci --max-n 5000 | head -c 10`."""
    proc = _hbinom_to_pipe(["seq", "--preset", "fibonacci", "--max-n", "5000"],
                           subprocess.PIPE)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err, len(head)) == (0, b"", 10)


PAYLOADS = [b"", b"a", b'{"cache_format":1}' * 9, bytes(range(256)) * 40,
            "é\U0001f600".encode()]


def test_the_builtin_sha256_matches_hashlib():
    if not (importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256")):
        pytest.skip("no builtin sha256 module in this interpreter")
    sha256 = cli._sha256()
    assert sha256.__module__ in ("_sha2", "_sha256")
    for payload in PAYLOADS:
        assert sha256(payload).hexdigest() == hashlib.sha256(payload).hexdigest()


def test_the_digest_falls_back_to_hashlib(monkeypatch):
    spec = preset("pell")
    digest = cli.triangle_digest(spec, "binomial", ())
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert cli._sha256() is hashlib.sha256
    assert cli.triangle_digest(spec, "binomial", ()) == digest
