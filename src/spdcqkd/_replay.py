"""The transcript reader behind `protocol.replay`, and the text form.

A transcript is read as version 3 only.  `read_header` reads the two
header lines, parses the config they name, checks the body's length
against its round count and takes its cached template; then the header
must be, byte for byte, the one `protocol._transcript_head` writes for
that config, the template's emission tags and the header's own
tool_version, so the writer is the one definition of the format.  Any
other first line, a version-2 CSV or version 1 included, is a
TranscriptError that names version 3.  The header keeps the template,
whose leak the replayed report takes.  `check_config` compares the
header's config with the caller's; `code_reads` streams the
body's row codes, hashing every read and counting its codes with one
bincount, and rejects a code the template draws with probability 0 (out
of range, a sifted code missing a key bit, or any other) through its
`drawable` mask; `protocol._parse_transcript` adds the counts up and
checks the trailing digest.  `write_text` prints a version-3 file as the
version-2 CSV of the same rounds, a one-way view that is never read back.

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

from .fock import FockError, _cut
from .protocol import (_CODES, _TAIL_SHAPE, CODE_DTYPE, DIGEST_BYTES, TRANSCRIPT_HEADER,
                       TRANSCRIPT_MAGIC, ConfigError, SessionConfig, TranscriptError, _Template,
                       _fields, _parse_transcript, _row_texts, _session_template,
                       _transcript_head, _transcript_lines, config_from_dict, config_to_dict)

# Bytes per read of the transcript body, and rows per write of its text form.
READ_BYTES = 1 << 18
TEXT_SLICE_ROWS = 1 << 13

# Version 3: its first line, MAGIC_PREFIX, a space and the version; the
# longest header line read.
MAGIC_PREFIX, _, VERSION = TRANSCRIPT_MAGIC.encode("ascii").partition(b" ")
HEADER_LINE_BYTES = 1 << 16


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


def body_reads(fh, length: int, start: int):
    """`length` bytes of the file from offset `start`, in reads of at most
    READ_BYTES."""
    fh.seek(start)
    while length > 0:
        chunk = fh.read(min(READ_BYTES, length))
        if not chunk:
            raise TranscriptError("transcript shrank while it was read")
        length -= len(chunk)
        yield chunk


@dataclass(frozen=True)
class Header:
    """A checked version-3 header, and where the body after it lies."""

    raw: bytes  # the two header lines, as read
    config: SessionConfig
    config_dict: dict  # `config_to_dict(config)`, as the header holds it
    tool_version: str
    body_bytes: int  # from the end of the header to the digest
    template: _Template  # the config's cached template, whose emission tags the header names


def _bad_header(message: str) -> TranscriptError:
    return TranscriptError(f"bad version-3 header: {message}")


def read_header(fh) -> Header:
    """The version-3 header at the start of the file.

    Raises TranscriptError for a first line that does not begin with
    MAGIC_PREFIX and a space (a CSV, version 1 or an empty file), another
    version, a JSON line without a config `config_from_dict` takes or a
    string tool_version, a body that is not one whole row code per round
    of that config, a config whose template cannot be built (the build's
    FockError, such as intercept-resend on an SPDC source), or a header
    other than the one `protocol._transcript_head` writes for that config,
    the emission tags of its template and that tool_version, which names
    the first field that differs.
    """
    size = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    magic = fh.readline(HEADER_LINE_BYTES)
    if not magic.startswith(MAGIC_PREFIX + b" "):
        raise TranscriptError(f"not a version-3 transcript: its first line must be "
                              f"'{TRANSCRIPT_MAGIC}'")
    version = magic[len(MAGIC_PREFIX) + 1:].rstrip(b"\n")
    if version != VERSION:
        raise TranscriptError("unsupported transcript version "
                              f"{_cut(repr(version.decode('ascii', errors='replace')))}")
    line = fh.readline(HEADER_LINE_BYTES) if magic.endswith(b"\n") else b""
    if not line.endswith(b"\n"):
        raise _bad_header(f"no JSON line of at most {HEADER_LINE_BYTES} bytes")
    try:
        meta = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise _bad_header(f"not JSON: {exc}") from None
    if not isinstance(meta, dict) or not isinstance(meta.get("tool_version"), str):
        raise _bad_header("expected a JSON object with a string tool_version")
    try:
        config = config_from_dict(meta.get("config"))
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
    try:
        template = _session_template(config)
    except FockError as exc:
        raise _bad_header(f"config: {exc}") from None
    written = _transcript_head(config, template.emission_tags, meta["tool_version"])
    if raw != written:
        want = json.loads(written.partition(b"\n")[2])
        for name, have, value in _fields(meta, want):
            if have != value:
                raise _bad_header(f"{_cut(name)} {_cut(repr(have))} here, "
                                  f"{_cut(repr(value))} for its config")
        raise _bad_header("not byte for byte the JSON its writer writes")
    return Header(raw, config, meta["config"], meta["tool_version"], body, template)


def check_config(config: SessionConfig | None, head: Header) -> None:
    """Raise a TranscriptError naming the first field in which `config`
    differs from the header's; nothing if it is None or equal."""
    if config is None or config == head.config:
        return
    try:
        want = config_to_dict(config)
    except ConfigError as exc:
        raise TranscriptError(f"config differs from the transcript's: {exc}") from None
    name, have, value = next((f for f in _fields(head.config_dict, want) if f[1] != f[2]),
                             ("config", None, None))
    raise TranscriptError(f"config differs from the transcript's in {_cut(name)}: "
                          f"{_cut(repr(value))} here, {_cut(repr(have))} in the transcript")


def code_reads(fh, head: Header, digest):
    """(first round, codes, counts) per read of the body: its row codes
    (CODE_DTYPE) and how many rounds have each code of the template's tags.

    Every byte read is fed to `digest`.  A code out of range, a sifted
    code missing a key bit, or a code the header's config draws with
    probability 0 raises a TranscriptError naming its round.
    """
    valid = head.template.drawable
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
                                      f"range for {len(head.template.emission_tags)} tag(s)")
            *_, sifted, alice_bit, bob_bit = np.unravel_index(code % _CODES, _TAIL_SHAPE)
            if sifted and not (alice_bit and bob_bit):  # a bit field's token 0 is '-'
                raise TranscriptError(f"round {first + i}: sifted round missing a key bit")
            raise TranscriptError(f"round {first + i}: row code {code} has probability 0 "
                                  "under the header's config")
        yield first, codes, counts
        first += codes.size


def write_text(fh, out) -> None:
    """Write the version-3 transcript `fh` to `out` as version-2 CSV bytes,
    one blob per TEXT_SLICE_ROWS rows of a read of its body, and flush
    `out`, after checking all of it; a digest mismatch is a TranscriptError."""
    head = read_header(fh)
    if not _parse_transcript(fh, head)[1]:
        raise TranscriptError("checksum mismatch: not converted")
    texts = _row_texts(head.template.emission_tags)
    digest = hashlib.sha256()

    def emit(text: str) -> None:
        blob = text.encode("ascii")
        out.write(blob)
        digest.update(blob)

    emit(TRANSCRIPT_HEADER + "\n")
    for first, codes, _ in code_reads(fh, head, hashlib.sha256()):
        for i in range(0, codes.size, TEXT_SLICE_ROWS):
            emit("\n".join(_transcript_lines(codes[i:i + TEXT_SLICE_ROWS], first + i, texts)) + "\n")
    out.write(f"#sha256={digest.hexdigest()}\n".encode("ascii"))
    out.flush()
