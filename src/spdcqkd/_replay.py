"""The block parser behind `protocol.replay`.

`read_trailer` reads a transcript's checksum line from the end of the file;
`body_reads` streams the bytes before it; `parse_rows` checks every field
of a block of whole lines at once with numpy and returns their row codes,
the codes `protocol` writes and tallies, not records.  The first row a
block check rejects goes to `check_row`, which names its error and line as
a row-by-row parser would.

`protocol` imports this module on first use, so a process that replays no
transcript neither compiles nor loads it.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile

import numpy as np

from .protocol import _CODES, _TAIL, _TAIL_FIELDS, TranscriptError

# Bytes per read of the transcript body, and bytes read to find the checksum
# line (the longest valid one is 72).
READ_BYTES = 1 << 18
TRAILER_BYTES = 128


def seekable(fh):
    """A context manager giving `fh` itself if it can seek, else a temporary
    file holding its bytes: a pipe's end cannot be read before its start."""
    if fh.seekable():
        return contextlib.nullcontext(fh)
    spool = tempfile.TemporaryFile()
    try:
        shutil.copyfileobj(fh, spool, READ_BYTES)
    except BaseException:
        spool.close()
        raise
    return spool


def body_reads(fh, length: int):
    """The file's first `length` bytes, in reads of at most READ_BYTES."""
    fh.seek(0)
    while length > 0:
        chunk = fh.read(min(READ_BYTES, length))
        if not chunk:
            raise TranscriptError("transcript shrank while it was read")
        length -= len(chunk)
        yield chunk


def line_start(fh, end: int) -> int:
    """Offset of the line that ends at `end`: just past the last newline before it."""
    pos, step = end, TRAILER_BYTES
    while pos > 0:
        step = min(step, pos)
        fh.seek(pos - step)
        cut = fh.read(step).rfind(b"\n")
        if cut >= 0:
            return pos - step + cut + 1
        pos -= step
        step = READ_BYTES
    return 0


def read_trailer(fh) -> tuple[str, str, int]:
    """(tag, digest, offset) of the checksum line that ends the file.

    The tag is the format version: '#sha256=' today, '#fnv1a64=' in
    version-1 files, each followed by its digest in lowercase hex.  The
    line is read from the file's tail, so a bad trailer is reported before
    any row error.  A line longer than TRAILER_BYTES is read only that far,
    which cannot change its verdict: the longest checksum line is 72 bytes.
    """
    size = fh.seek(0, os.SEEK_END)
    if size == 0:
        raise TranscriptError("empty transcript", line=1)
    fh.seek(size - 1)
    end = size - (fh.read(1) == b"\n")
    start = line_start(fh, end)
    fh.seek(start)
    trailer = fh.read(min(end - start, TRAILER_BYTES)).decode("ascii", errors="replace")
    tag, _, tok = trailer.partition("=")
    digits = {"#sha256": 64, "#fnv1a64": 16}.get(tag)
    if digits is None:
        message = "missing trailing checksum line"
    elif len(tok) != digits or not set(tok) <= set("0123456789abcdef"):
        message = "malformed checksum line"
    else:
        return tag, tok, start
    lineno = 1 + sum(chunk.count(b"\n") for chunk in body_reads(fh, start))
    raise TranscriptError(message, line=lineno)


def check_row(line: bytes, i: int, tags: list[str]) -> None:
    """Raise the TranscriptError of round i's row, if it has one.

    `tags` are the distinct source tags of the rows before it.  Only run to
    explain a row the block parser rejected.
    """
    lineno = i + 2
    fields = line.decode("ascii", errors="replace").split(",")
    if len(fields) != 9:
        raise TranscriptError(f"expected 9 fields, got {len(fields)}", line=lineno)
    (idx_s, tag, ab, bb, ak, bk, sf, abit, bbit) = fields
    if idx_s != str(i):
        raise TranscriptError(f"round index {idx_s!r}, expected {i}", line=lineno)
    if tag not in tags and len(tags) > 100:
        raise TranscriptError("too many distinct source tags", line=lineno)
    allowed = {col: tokens for col, tokens, _ in _TAIL_FIELDS}
    for col, tok in sorted(zip(allowed, fields[2:])):  # in record-column order
        if tok not in allowed[col]:
            raise TranscriptError(f"bad token {tok!r}", line=lineno)
    if sf == "1" and "-" in (abit, bbit):
        raise TranscriptError("sifted round missing a key bit", line=lineno)


def token_lookups() -> list[np.ndarray]:
    """Per _TAIL_FIELDS entry: int8 table from a token's bytes, read as a
    big-endian integer, to its index; -1 for every other byte string."""
    lookups = []
    for _, tokens, _ in _TAIL_FIELDS:
        table = np.full(256 ** len(tokens[0]), -1, dtype=np.int8)
        for j, tok in enumerate(tokens):
            table[int.from_bytes(tok.encode("ascii"), "big")] = j
        lookups.append(table)
    return lookups


def parse_rows(block: bytes, first: int, tags: list[str], keys: dict[bytes, int],
                lookups: list[np.ndarray]) -> np.ndarray:
    """int32 row codes of the rows in `block`, whole lines from round `first` on.

    Every field of every row is checked at once; the first row that fails
    goes to check_row for its error.  Source tags first seen here are
    appended to `tags`; `keys` maps each tag's bytes to its index.
    """
    a = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(a == 10)
    n = ends.size
    starts = np.zeros(n, dtype=np.int64)
    starts[1:] = ends[:-1] + 1
    nd = np.full(n, len(str(first)), dtype=np.int64)  # digits of each round index
    for d in range(len(str(first)), len(str(first + n - 1))):
        nd[10 ** d - first:] += 1
    # a row too short for its index, a comma and the tail fails, and the rows
    # after the first such row need no check
    long_enough = ends - starts >= nd + 1 + _TAIL
    m = n if long_enough.all() else int(np.argmin(long_enough))
    line_bounds = starts, ends
    starts, ends, nd = starts[:m], ends[:m], nd[:m]
    ok = np.ones(m, dtype=bool)

    # the round index: nd decimal digits of the expected value, then a comma
    value = np.zeros(m, dtype=np.int64)
    for k in range(int(nd.max(initial=0))):
        digit = a[k:][starts] - 48  # uint8: every non-digit byte reads as > 9
        has = nd > k
        ok &= ~has | (digit <= 9)
        value = np.where(has, value * 10 + digit, value)
    ok &= value == np.arange(first, first + m)
    ok &= a[starts + nd] == 44

    # the tail: a comma and a known token per field
    tail = ends - _TAIL
    code = np.zeros(m, dtype=np.int32)
    indices = []
    pos = 1
    for (_, tokens, _), lookup in zip(_TAIL_FIELDS, lookups):
        ok &= a[pos - 1:][tail] == 44
        token = a[pos:][tail]
        if len(tokens[0]) == 2:
            token = (token.astype(np.uint16) << 8) | a[pos + 1:][tail]
        index = lookup[token]
        ok &= index >= 0
        code *= len(tokens)
        code += index
        indices.append(index)
        pos += len(tokens[0]) + 1
    sifted, alice_bit, bob_bit = indices[4:]  # a bit field's token 0 is '-'
    ok &= (sifted == 0) | ((alice_bit > 0) & (bob_bit > 0))  # sifted: both bits
    commas = a[:ends[-1] if m else 0] == 44
    if np.count_nonzero(commas) != 8 * m:  # some tag holds a comma
        ok &= np.add.reduceat(commas, starts, dtype=np.int64) == 8
    bad = m if ok.all() else int(np.argmin(ok))

    # source tags, in order of first appearance, over the rows before `bad`;
    # ASCII decoding reads every non-ASCII byte as U+FFFD, so byte strings
    # that differ only there are one tag
    tag_start = starts[:bad] + nd[:bad] + 1
    tag_len = ends[:bad] - _TAIL - tag_start
    tag_id = np.full(bad, -1, dtype=np.int8)

    def label(key: bytes) -> None:
        rows = np.flatnonzero(tag_len == len(key))
        at = tag_start[rows]
        hit = np.ones(rows.size, dtype=bool)
        for k, ch in enumerate(key):
            hit &= a[k:][at] == ch
        tag_id[rows[hit]] = keys[key]

    for key in keys:
        label(key)
    while True:
        unseen = np.flatnonzero(tag_id < 0)
        if not unseen.size:
            break
        r = int(unseen[0])
        key = block[tag_start[r]:tag_start[r] + tag_len[r]]
        tag = key.decode("ascii", errors="replace")
        if tag not in tags:
            if len(tags) > 100:  # the 102nd distinct tag
                bad = r
                break
            tags.append(tag)
        keys[key] = tags.index(tag)
        label(key)

    if bad < n:
        check_row(block[line_bounds[0][bad]:line_bounds[1][bad]], first + bad, tags)
        raise RuntimeError(f"line {first + bad + 2}: rejected by the block parser "
                           "but not by the row check")
    return tag_id.astype(np.int32) * _CODES + code
