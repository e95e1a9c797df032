import errno
import io
import os
import sys

import pytest

from riordan import cli, oeis
from riordan.families import reference_B20, robbins
from riordan.oeis import (
    BFile,
    CacheMiss,
    NetworkError,
    ParseError,
    align,
    cache_path,
    check_seq_id,
    oeis_fetch,
    parse_bfile,
)


def test_seq_id_validation():
    assert check_seq_id("A005130") == "A005130"
    for bad in ("A5130", "005130", "A0051300", "B005130", ""):
        with pytest.raises(ValueError):
            check_seq_id(bad)


def test_parse_bfile():
    text = "# OEIS b-file\n\n0 1\n1 1\n2 2\n3 7\n"
    bf = parse_bfile(text, "A005130")
    assert bf.indices == [0, 1, 2, 3]
    assert bf.values == [1, 1, 2, 7]
    assert len(bf) == 4


def test_parse_bfile_errors():
    with pytest.raises(ParseError):
        parse_bfile("0 1\n1\n", "A000001")
    with pytest.raises(ParseError):
        parse_bfile("0 1\n1 x\n", "A000001")
    with pytest.raises(ParseError):
        parse_bfile("0 1\n0 2\n", "A000001")  # indices must strictly increase
    with pytest.raises(ParseError):
        parse_bfile("2 1\n1 2\n", "A000001")


def test_parse_bfile_value_past_the_digit_limit():
    # CPython refuses int() of more than 4300 digits by default
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    bf = parse_bfile("0 1\n1 " + "9" * 5000 + "\n", "A000001")
    assert bf.values == [1, 10**5000 - 1]
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    with pytest.raises(ParseError, match="non-integer field"):
        parse_bfile("0 1\n1 " + "9" * 5000 + "x\n", "A000001")


def test_fetch_reads_cache(tmp_path):
    cache = str(tmp_path)
    lines = "\n".join(f"{n} {robbins(n)}" for n in range(12)) + "\n"
    with open(cache_path("A005130", cache), "w") as fh:
        fh.write(lines)
    bf = oeis_fetch("A005130", cache_dir=cache, offline=True)
    assert bf.values == [robbins(n) for n in range(12)]


def test_offline_cache_miss(tmp_path):
    with pytest.raises(CacheMiss):
        oeis_fetch("A005130", cache_dir=str(tmp_path), offline=True)


def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("RIORDAN_OEIS_CACHE", str(tmp_path))
    assert cache_path("A005130") == os.path.join(str(tmp_path), "b005130.txt")


def test_align_offset_zero():
    bf = BFile("A005130", [(n, robbins(n)) for n in range(12)])
    a = align([robbins(n) for n in range(10)], bf)
    assert a.ok and a.offset == 0 and a.matched == 10


def test_align_offset_one():
    # b-file carries one extra leading term relative to the computed values
    bf = BFile("A358069", [(n + 1, v) for n, v in enumerate([99] + reference_B20())])
    a = align(reference_B20(), bf)
    assert a.ok and a.offset == 1 and a.matched == 9


def test_align_mismatch():
    bf = BFile("A000001", [(0, 1), (1, 2), (2, 999)])
    a = align([1, 2, 3], bf)
    assert not a.ok
    assert a.matched == 2


def _serve(monkeypatch, payload: bytes):
    """Answer every b-file request with `payload`, with no network."""
    urls = []

    def fake_urlopen(url, timeout):
        urls.append(url)
        return io.BytesIO(payload)

    monkeypatch.setattr(oeis.urllib.request, "urlopen", fake_urlopen)
    return urls


ROBBINS_BFILE = "# A005130\n" + "".join(f"{n} {robbins(n)}\n" for n in range(12))


def test_fetch_writes_cache_once(tmp_path, monkeypatch):
    urls = _serve(monkeypatch, ROBBINS_BFILE.encode("ascii"))
    cache = str(tmp_path / "oeis")
    bf = oeis_fetch("A005130", cache_dir=cache)
    assert bf.values == [robbins(n) for n in range(12)]
    assert urls == ["https://oeis.org/A005130/b005130.txt"]
    assert os.listdir(cache) == ["b005130.txt"]
    with open(cache_path("A005130", cache), encoding="ascii") as fh:
        assert fh.read() == ROBBINS_BFILE
    assert oeis_fetch("A005130", cache_dir=cache, offline=True).values == bf.values


def test_fetch_failing_midway_leaves_no_cache_file(tmp_path, monkeypatch):
    _serve(monkeypatch, ROBBINS_BFILE.encode("ascii"))

    class HalfWritten:
        """File that writes half of what it is given, then reports a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(oeis, "open", lambda *a, **k: HalfWritten(open(*a, **k)), raising=False)
    cache = str(tmp_path)
    with pytest.raises(NetworkError):
        oeis_fetch("A005130", cache_dir=cache)
    assert not os.path.exists(cache_path("A005130", cache))
    assert os.listdir(cache) == []
    monkeypatch.undo()
    with pytest.raises(CacheMiss):
        oeis_fetch("A005130", cache_dir=cache, offline=True)


def test_non_ascii_comment_is_fetched_cached_and_reread(tmp_path, monkeypatch, capsys):
    # one Latin-1 byte (an accented name) in a comment line
    payload = b"# A005130 Robbins numbers, \xe9dition\n" + ROBBINS_BFILE.encode("ascii")
    urls = _serve(monkeypatch, payload)
    cache = str(tmp_path / "oeis")
    argv = ["oeis", "A005130", "--limit", "12", "--cache-dir", cache]
    assert cli.main(argv) == 0
    fetched = capsys.readouterr().out
    assert fetched.split() == [str(robbins(n)) for n in range(12)]
    assert len(urls) == 1
    assert os.listdir(cache) == ["b005130.txt"]
    with open(cache_path("A005130", cache), "rb") as fh:
        cached = fh.read()
    assert cached.isascii() and cached.endswith(ROBBINS_BFILE.encode("ascii"))
    assert cli.main(argv + ["--offline"]) == 0
    assert capsys.readouterr().out == fetched
    assert len(urls) == 1
