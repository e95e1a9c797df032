"""OEIS b-file client with a local immutable cache.

A b-file is plain text: one ``index value`` pair per line, ``#`` comments,
LF endings.  It parses to its values, a plain list of ints in index order;
the indices are only checked to increase strictly.  Fetched files are
written to the cache directory once, atomically, and never rewritten;
offline mode reads the cache only.  The text is ASCII: a byte outside it
(say an accented name in a comment) is replaced on download, on the cache
write and on the cache read alike.  The network stack and ``tempfile`` are
imported only by a fetch and a cache write, so every other command starts
without them.
"""

from __future__ import annotations

import contextlib
import os
import re
from collections import namedtuple

from .series import unlimited_int_digits

SEQ_ID_RE = re.compile(r"\AA\d{6}\Z")
CACHE_ENV = "RIORDAN_OEIS_CACHE"
DEFAULT_TIMEOUT = 15.0


class NetworkError(RuntimeError):
    """The b-file could not be retrieved, or the cache not read or written."""


class ParseError(ValueError):
    """Malformed b-file line."""


class CacheMiss(LookupError):
    """Offline mode and the sequence is not cached."""


def check_seq_id(seq_id: str) -> str:
    if not SEQ_ID_RE.match(seq_id or ""):
        raise ValueError(f"bad sequence id {seq_id!r}; expected A followed by six digits")
    return seq_id


def parse_bfile(text: str, seq_id: str) -> list:
    """The b-file's values in index order; the indices are only checked."""
    values = []
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
        values.append(val)
    return values


def default_cache_dir() -> str:
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "riordan", "oeis")


def cache_path(seq_id: str, cache_dir: str | None = None) -> str:
    return os.path.join(cache_dir or default_cache_dir(), f"b{seq_id[1:]}.txt")


def bfile_url(seq_id: str) -> str:
    return f"https://oeis.org/{seq_id}/b{seq_id[1:]}.txt"


def oeis_fetch(seq_id: str, cache_dir: str | None = None, offline: bool = False) -> list:
    """Return the b-file's values, from cache if present, else the network."""
    check_seq_id(seq_id)
    path = cache_path(seq_id, cache_dir)
    if os.path.exists(path):
        try:
            with open(path, encoding="ascii", errors="replace") as fh:
                text = fh.read()
        except OSError as exc:
            raise NetworkError(f"could not read the cache file {path}: {exc}") from exc
        return parse_bfile(text, seq_id)
    if offline:
        raise CacheMiss(f"{seq_id} is not cached and offline mode is set")
    import urllib.request
    try:
        with urllib.request.urlopen(bfile_url(seq_id), timeout=DEFAULT_TIMEOUT) as resp:
            text = resp.read().decode("ascii", errors="replace")
    except OSError as exc:  # urllib.error.URLError is an OSError
        raise NetworkError(f"could not fetch {seq_id}: {exc}") from exc
    values = parse_bfile(text, seq_id)
    _cache_once(path, text)
    return values


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
        import tempfile
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


class Alignment(namedtuple("Alignment", "offset matched compared")):
    """How a computed sequence lines up against a b-file."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.compared > 0 and self.matched == self.compared


def align(values, reference) -> Alignment:
    """Best alignment of `values` against the b-file values `reference`, trying offsets 0 and 1.

    Offset o compares values[k] to reference[k + o]; b-file index numbering
    itself varies per sequence, so only positions are used.
    """
    best = None
    for offset in (0, 1):
        w = reference[offset:]
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
