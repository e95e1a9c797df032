"""OEIS b-file client with a local immutable cache.

A b-file is plain text: one ``index value`` pair per line, ``#`` comments,
LF endings.  Fetched files are written to the cache directory once,
atomically, and never rewritten; offline mode reads the cache only.  The
text is ASCII: a byte outside it (say an accented name in a comment) is
replaced on download, on the cache write and on the cache read alike.
"""

from __future__ import annotations

import contextlib
import os
import re
import tempfile
import urllib.error
import urllib.request

from .series import unlimited_int_digits

SEQ_ID_RE = re.compile(r"\AA\d{6}\Z")
CACHE_ENV = "RIORDAN_OEIS_CACHE"
DEFAULT_TIMEOUT = 15.0


class NetworkError(RuntimeError):
    """The b-file could not be retrieved, or not written to the cache."""


class ParseError(ValueError):
    """Malformed b-file line."""


class CacheMiss(LookupError):
    """Offline mode and the sequence is not cached."""


class BFile:
    """Parsed b-file: a sequence id and its (index, value) entries."""

    __slots__ = ("seq_id", "entries")

    def __init__(self, seq_id: str, entries):
        self.seq_id = seq_id
        self.entries = list(entries)

    @property
    def indices(self):
        return [i for i, _ in self.entries]

    @property
    def values(self):
        return [v for _, v in self.entries]

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        return f"BFile({self.seq_id}, {len(self.entries)} entries)"


def check_seq_id(seq_id: str) -> str:
    if not SEQ_ID_RE.match(seq_id or ""):
        raise ValueError(f"bad sequence id {seq_id!r}; expected A followed by six digits")
    return seq_id


def parse_bfile(text: str, seq_id: str) -> BFile:
    entries = []
    last = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{seq_id} line {lineno}: expected 'index value', got {line!r}")
        try:
            with unlimited_int_digits():
                idx, val = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{seq_id} line {lineno}: non-integer field in {line!r}") from None
        if last is not None and idx <= last:
            raise ParseError(f"{seq_id} line {lineno}: indices not strictly increasing")
        last = idx
        entries.append((idx, val))
    return BFile(seq_id, entries)


def default_cache_dir() -> str:
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "riordan", "oeis")


def cache_path(seq_id: str, cache_dir: str | None = None) -> str:
    return os.path.join(cache_dir or default_cache_dir(), f"b{seq_id[1:]}.txt")


def bfile_url(seq_id: str) -> str:
    return f"https://oeis.org/{seq_id}/b{seq_id[1:]}.txt"


def oeis_fetch(
    seq_id: str,
    cache_dir: str | None = None,
    offline: bool = False,
    timeout: float = DEFAULT_TIMEOUT,
) -> BFile:
    """Return the parsed b-file, from cache if present, else the network."""
    check_seq_id(seq_id)
    path = cache_path(seq_id, cache_dir)
    if os.path.exists(path):
        with open(path, encoding="ascii", errors="replace") as fh:
            return parse_bfile(fh.read(), seq_id)
    if offline:
        raise CacheMiss(f"{seq_id} is not cached and offline mode is set")
    try:
        with urllib.request.urlopen(bfile_url(seq_id), timeout=timeout) as resp:
            text = resp.read().decode("ascii", errors="replace")
    except (urllib.error.URLError, OSError) as exc:
        raise NetworkError(f"could not fetch {seq_id}: {exc}") from exc
    bfile = parse_bfile(text, seq_id)
    _cache_once(path, text)
    return bfile


def _cache_once(path: str, text: str) -> None:
    """Write a cache file that does not exist yet, atomically.

    The text goes to a temp file in the cache directory, which is then
    renamed onto ``path`` with ``os.replace``; a write that fails midway
    removes the temp file, so ``path`` never holds a truncated b-file.
    """
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
        if os.path.exists(path):
            return
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".b", suffix=".part")
        try:
            with open(fd, "w", encoding="ascii", errors="replace") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise NetworkError(f"could not write the cache file {path}: {exc}") from exc


class Alignment:
    """How a computed sequence lines up against a b-file."""

    __slots__ = ("offset", "matched", "compared", "ok")

    def __init__(self, offset: int, matched: int, compared: int):
        self.offset = offset
        self.matched = matched
        self.compared = compared
        self.ok = compared > 0 and matched == compared

    def __repr__(self):
        return f"Alignment(offset={self.offset}, matched={self.matched}/{self.compared})"


def align(values, bfile: BFile) -> Alignment:
    """Best alignment of `values` against the b-file, trying offsets 0 and 1.

    Offset o compares values[k] to the (k+o)-th b-file entry; b-file index
    numbering itself varies per sequence, so only positions are used.
    """
    best = None
    for offset in (0, 1):
        w = bfile.values[offset:]
        compared = min(len(values), len(w))
        matched = 0
        for k in range(compared):
            if values[k] != w[k]:
                break
            matched += 1
        cand = Alignment(offset, matched, compared)
        if best is None or (cand.ok, cand.matched) > (best.ok, best.matched):
            best = cand
    return best
