"""The transcript readers behind `protocol.replay`, and the text form.

Version 3: `read_header` reads and checks the two header lines, the
body's length against the header's round count, and the header's tags
against those of its config's cached template (`drawable_codes`);
`check_config` compares the header's config with the caller's;
`code_reads` streams the body's row codes, hashing every read and counting
its codes with one bincount, and rejects a code that template draws with
probability 0 (out of range, a sifted code missing a key bit, or any
other) through a mask over those counts.  `read_counts` adds them up and
checks the trailing digest.  `write_text` prints a version-3 file as the
version-2 CSV of the same rounds.

CSV (version 2): `read_trailer` reads a transcript's '#sha256=' line from
the end of the file; `body_reads` streams the bytes before it;
`parse_rows` checks every field of a block of whole lines at once with
numpy and returns their row codes, the codes `protocol` tallies, not
records.  The first row a block check rejects goes to `check_row`, which
names its error and line as a row-by-row parser would.

`protocol` imports this module on first use, so a process that replays or
converts no transcript neither compiles nor loads it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from .fock import FockError
from .protocol import (_CODES, _TAIL, _TAIL_FIELDS, _TAIL_SHAPE, CODE_DTYPE, DIGEST_BYTES,
                       TRANSCRIPT_HEADER, TRANSCRIPT_MAGIC, ConfigError, SessionConfig,
                       TranscriptError, _session_template, _suffix_table, _transcript_lines,
                       config_from_dict, config_to_dict)

# Bytes per read of the transcript body, and bytes read to find the checksum
# line (the longest valid one is 72).
READ_BYTES = 1 << 18
TRAILER_BYTES = 128

# Version 3: its first line, MAGIC_PREFIX, a space and the version; the
# longest header line read; the most tags whose codes fit CODE_DTYPE.
MAGIC_PREFIX, _, VERSION = TRANSCRIPT_MAGIC.encode("ascii").partition(b" ")
HEADER_LINE_BYTES = 1 << 16
MAX_TAGS = (1 << 8 * CODE_DTYPE.itemsize) // _CODES
_HEADER_FIELDS = ["code_bytes", "config", "tags", "tool_version"]


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


def body_reads(fh, length: int, start: int = 0):
    """`length` bytes of the file from offset `start`, in reads of at most
    READ_BYTES."""
    fh.seek(start)
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


def read_trailer(fh) -> tuple[str, int]:
    """(lowercase hex digest, offset) of the '#sha256=' line that ends the file.

    The line is read from the file's tail, so a bad trailer, or version 1's
    '#fnv1a64=', is reported before any row error.  A line longer than
    TRAILER_BYTES is read only that far, which cannot change its verdict:
    a valid line is 72 bytes.
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
    if tag == "#fnv1a64":
        message = "unsupported transcript version 1 ('#fnv1a64' checksum)"
    elif tag != "#sha256":
        message = "missing trailing checksum line"
    elif len(tok) != 64 or not set(tok) <= set("0123456789abcdef"):
        message = "malformed checksum line"
    else:
        return tok, start
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


# -- version 3 ------------------------------------------------------------------


@dataclass(frozen=True)
class Header:
    """A checked version-3 header, and where the body after it lies."""

    raw: bytes  # the two header lines, as read
    config: SessionConfig
    config_dict: dict  # `config_to_dict(config)`
    tool_version: str
    tags: list[str]
    body_bytes: int  # from the end of the header to the digest
    drawable: np.ndarray  # `drawable_codes(config, tags)`


def _bad_header(message: str) -> TranscriptError:
    return TranscriptError(f"bad version-3 header: {message}")


def drawable_codes(config: SessionConfig, tags: list[str]) -> np.ndarray:
    """bool[len(tags) * _CODES]: whether a round of the config can have
    each row code, kept with its cached template (`_Template.drawable`).

    Raises TranscriptError if the template cannot be built or `tags` are
    not its emission tags.
    """
    try:
        template = _session_template(config)
    except FockError as exc:
        raise _bad_header(f"config: {exc}") from None
    if tuple(tags) != template.tables.emission_tags:
        raise _bad_header(f"tags {tags} are not the config's emission tags "
                          f"{list(template.tables.emission_tags)}")
    return template.drawable


def read_header(fh) -> Header | None:
    """The version-3 header at the start of the file, or None if the first
    line does not begin with MAGIC_PREFIX and a space (a CSV transcript).

    Raises TranscriptError for another version, a header that is not the
    JSON object `protocol._transcript_head` writes, a body that is not
    one whole row code per round the header's config names, or tags that
    are not the emission tags of that config.
    """
    size = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    magic = fh.readline(HEADER_LINE_BYTES)
    if not magic.startswith(MAGIC_PREFIX + b" "):
        return None
    version = magic[len(MAGIC_PREFIX) + 1:].rstrip(b"\n")
    if version != VERSION:
        raise TranscriptError("unsupported transcript version "
                              f"{version[:20].decode('ascii', errors='replace')!r}")
    line = fh.readline(HEADER_LINE_BYTES) if magic.endswith(b"\n") else b""
    if not line.endswith(b"\n"):
        raise _bad_header(f"no JSON line of at most {HEADER_LINE_BYTES} bytes")
    try:
        meta = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise _bad_header(f"not JSON: {exc}") from None
    if not isinstance(meta, dict) or sorted(meta) != _HEADER_FIELDS:
        raise _bad_header(f"expected an object with the fields {', '.join(_HEADER_FIELDS)}")
    width, tags, tool_version = meta["code_bytes"], meta["tags"], meta["tool_version"]
    if type(width) is not int or width != CODE_DTYPE.itemsize:
        raise TranscriptError(f"unsupported row code width {width!r}")
    if (not isinstance(tags, list) or not 1 <= len(tags) <= MAX_TAGS
            or not all(isinstance(t, str) and t and t.isascii() and t.isprintable()
                       and "," not in t for t in tags)
            or len(set(tags)) != len(tags)):
        raise _bad_header(f"tags must be 1 to {MAX_TAGS} distinct printable ASCII "
                          "strings without commas")
    if not isinstance(tool_version, str):
        raise _bad_header("tool_version must be a string")
    try:
        config = config_from_dict(meta["config"])
    except ConfigError as exc:
        raise _bad_header(f"config: {exc}") from None
    raw = magic + line
    body = size - len(raw) - DIGEST_BYTES
    if body < 0:
        raise TranscriptError("transcript ends before its digest")
    if body % CODE_DTYPE.itemsize:
        raise TranscriptError(f"odd body length {body}: not whole row codes")
    if body // CODE_DTYPE.itemsize != config.rounds:
        raise TranscriptError(f"header names {config.rounds} rounds, "
                              f"body holds {body // CODE_DTYPE.itemsize}")
    return Header(raw, config, config_to_dict(config), tool_version, tags, body,
                  drawable_codes(config, tags))


def _fields(d: dict, prefix: str = ""):
    """(dotted name, value) of every leaf of a config dict, in its order."""
    for key, value in d.items():
        if isinstance(value, dict):
            yield from _fields(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def check_config(config: SessionConfig | None, head: Header) -> None:
    """Raise a TranscriptError naming the first field in which `config`
    differs from the header's; nothing if it is None or equal."""
    if config is None or config == head.config:
        return
    try:
        want = dict(_fields(config_to_dict(config)))
    except ConfigError as exc:
        raise TranscriptError(f"config differs from the transcript's: {exc}") from None
    have = dict(_fields(head.config_dict))
    name = next((k for k in [*want, *have] if want.get(k) != have.get(k)), "config")
    raise TranscriptError(f"config differs from the transcript's in {name}: "
                          f"{want.get(name)!r} here, {have.get(name)!r} in the transcript")


def code_reads(fh, head: Header, digest):
    """(first round, codes, counts) per read of the body: its row codes
    (CODE_DTYPE) and how many rounds have each code of the header's tags.

    Every byte read is fed to `digest`.  A code out of range, a sifted
    code missing a key bit, or a code the header's config draws with
    probability 0 raises a TranscriptError naming its round.
    """
    valid = head.drawable
    first, carry = 0, b""
    for chunk in body_reads(fh, head.body_bytes, len(head.raw)):
        digest.update(chunk)
        if carry:  # a read of odd length left half a code
            chunk = carry + chunk
        whole = len(chunk) - len(chunk) % CODE_DTYPE.itemsize
        carry = chunk[whole:]
        codes = np.frombuffer(chunk, dtype=CODE_DTYPE, count=whole // CODE_DTYPE.itemsize)
        counts = np.bincount(codes, minlength=valid.size)
        if counts.size > valid.size or counts[~valid].any():
            ok = np.zeros(counts.size, dtype=bool)
            ok[:valid.size] = valid
            i = int(np.argmin(ok[codes]))
            code = int(codes[i])
            if code >= valid.size:
                raise TranscriptError(f"round {first + i}: row code {code} is out of "
                                      f"range for {len(head.tags)} tag(s)")
            *_, sifted, alice_bit, bob_bit = np.unravel_index(code % _CODES, _TAIL_SHAPE)
            if sifted and not (alice_bit and bob_bit):  # a bit field's token 0 is '-'
                raise TranscriptError(f"round {first + i}: sifted round missing a key bit")
            raise TranscriptError(f"round {first + i}: row code {code} has probability 0 "
                                  "under the header's config")
        yield first, codes, counts
        first += codes.size


def read_counts(fh, head: Header) -> tuple[np.ndarray, bool]:
    """(rounds per row code, whether the trailing digest matches) of a
    version-3 body."""
    digest = hashlib.sha256(head.raw)
    total = np.zeros(len(head.tags) * _CODES, dtype=np.int64)
    for _, _, counts in code_reads(fh, head, digest):
        total += counts
    fh.seek(len(head.raw) + head.body_bytes)
    return total, fh.read(DIGEST_BYTES) == digest.digest()


def write_text(fh, out) -> None:
    """Write the version-3 transcript `fh` to `out` as version-2 CSV bytes,
    after checking all of it; a digest mismatch is a TranscriptError."""
    head = read_header(fh)
    if head is None:
        raise TranscriptError("not a version-3 transcript")
    if not read_counts(fh, head)[1]:
        raise TranscriptError("checksum mismatch: not converted")
    table = _suffix_table(head.tags)
    digest = hashlib.sha256()

    def emit(blob: bytes) -> None:
        out.write(blob)
        digest.update(blob)

    emit((TRANSCRIPT_HEADER + "\n").encode("ascii"))
    for first, codes, _ in code_reads(fh, head, hashlib.sha256()):
        for blob in _transcript_lines(codes, first, table):
            emit(blob)
    out.write(f"#sha256={digest.hexdigest()}\n".encode("ascii"))
