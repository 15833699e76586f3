"""Transcripts: exact rejection errors, and the block writer and parser
against the row-by-row code they replaced.

Each rejection case edits a transcript written by `run_session` and asserts
the exact `TranscriptError` text, line number included.
"""

import hashlib
import itertools
import os
import threading
import tracemalloc
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from spdcqkd import _kernels, _replay, protocol
from spdcqkd.protocol import (AttackMixture, SessionConfig, SingletSource, SpdcSource,
                              TranscriptError, replay, run_session)
from spdcqkd.source import SpdcParams


def write_transcript(tmp_path, rounds=3000, seed=17, source=AttackMixture(0.7)):
    cfg = SessionConfig(rounds=rounds, seed=seed, source=source)
    path = tmp_path / "session.csv"
    live = run_session(cfg, transcript_path=path)
    return cfg, path, live


def edit_fields(path, lineno, **fields):
    """Replace named fields of one row (line numbers count from 1)."""
    names = ("idx", "tag", "ab", "bb", "ak", "bk", "sf", "abit", "bbit")
    lines = path.read_bytes().split(b"\n")
    row = dict(zip(names, lines[lineno - 1].split(b",")))
    row.update(fields)
    lines[lineno - 1] = b",".join(row[name] for name in names)
    path.write_bytes(b"\n".join(lines))


def assert_rejected(path, message, line):
    with pytest.raises(TranscriptError) as err:
        replay(None, path)
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.line == line


def test_bad_token_after_the_first_block(tmp_path):
    _, path, _ = write_transcript(tmp_path, rounds=30000)
    assert path.stat().st_size > 800_000
    edit_fields(path, 20002, ak=b"b9")
    assert_rejected(path, "bad token 'b9'", 20002)


def test_leading_zero_round_index(tmp_path):
    _, path, _ = write_transcript(tmp_path)
    edit_fields(path, 6, idx=b"04")
    assert_rejected(path, "round index '04', expected 4", 6)


def test_round_index_with_a_non_digit(tmp_path):
    # ':' follows '9' in ASCII: "0:" must not read as 0 * 10 + 10
    _, path, _ = write_transcript(tmp_path)
    edit_fields(path, 12, idx=b"0:")
    assert_rejected(path, "round index '0:', expected 10", 12)


def test_tag_with_a_comma(tmp_path):
    _, path, _ = write_transcript(tmp_path)
    edit_fields(path, 6, tag=b"att,ack")
    assert_rejected(path, "expected 9 fields, got 10", 6)


def test_non_ascii_byte_in_a_token(tmp_path):
    _, path, _ = write_transcript(tmp_path)
    edit_fields(path, 9, bb=b"\xc3V")
    assert_rejected(path, "bad token '�V'", 9)


def test_non_ascii_tag_is_a_tag(tmp_path):
    # each non-ASCII byte reads as U+FFFD, so these two tags are one
    cfg, path, live = write_transcript(tmp_path)
    edit_fields(path, 2, tag=b"x\xc3")
    edit_fields(path, 3, tag=b"x\xff")
    rep = replay(cfg, path)
    assert not rep.checksum_ok
    assert rep.source_counts["x�"] == 2
    assert sum(rep.source_counts.values()) == live.rounds


def test_the_102nd_distinct_tag(tmp_path):
    _, path, _ = write_transcript(tmp_path)
    lines = path.read_bytes().split(b"\n")
    for i in range(1, len(lines) - 2):  # rounds 0..100 get 101 tags, the rest reuse t0
        idx, _, rest = lines[i].split(b",", 2)
        lines[i] = b",".join((idx, b"t%d" % (i - 1 if i <= 101 else 0), rest))
    path.write_bytes(b"\n".join(lines))
    assert len(replay(None, path).source_counts) == 101
    edit_fields(path, 103, tag=b"t101")
    assert_rejected(path, "too many distinct source tags", 103)


def test_sifted_row_with_a_dash_bit(tmp_path):
    _, path, _ = write_transcript(tmp_path)
    edit_fields(path, 1501, sf=b"1", abit=b"0", bbit=b"-")
    assert_rejected(path, "sifted round missing a key bit", 1501)


def test_bit_tokens_are_checked_before_the_sifted_flag(tmp_path):
    _, path, _ = write_transcript(tmp_path)
    edit_fields(path, 40, sf=b"2", abit=b"x")
    assert_rejected(path, "bad token 'x'", 40)


def test_file_cut_inside_a_row(tmp_path):
    _, path, _ = write_transcript(tmp_path)
    data = path.read_bytes()
    cut = data.index(b"\n", len(data) // 2) + 5
    path.write_bytes(data[:cut])
    assert_rejected(path, "missing trailing checksum line", data[:cut].count(b"\n") + 1)


def test_trailer_without_final_newline_verifies(tmp_path):
    cfg, path, live = write_transcript(tmp_path)
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    rep = replay(cfg, path)
    assert rep.checksum_ok
    assert rep == live


def test_trailer_error_wins_over_a_bad_row(tmp_path):
    _, path, _ = write_transcript(tmp_path)
    edit_fields(path, 4, ak=b"zz")
    data = path.read_bytes()
    path.write_bytes(data[:data.rfind(b"#sha256=")] + b"#sha256=" + b"A" * 64 + b"\n")
    assert_rejected(path, "malformed checksum line", 3002)


@pytest.mark.parametrize("data,message", [
    (b"", "empty transcript"),
    (b"\n", "missing trailing checksum line"),
    (b"#sha256=" + hashlib.sha256(b"").hexdigest().encode() + b"\n", "bad or missing header"),
])
def test_degenerate_files(tmp_path, data, message):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    assert_rejected(path, message, 1)


# -- the block writer and parser against the row-by-row reference -------------

_BASIS = ("HV", "DA")
_KIND = ("nc", "b0", "b1", "dc")
_BIT = {-1: "-", 0: "0", 1: "1"}


def reference_lines(rec, start, tags, scen_emission):
    """The row-by-row formatter the block writer replaced."""
    emis = scen_emission[rec[:, 0]]
    return [
        f"{start + r},{tags[emis[r]]},{_BASIS[rec[r, 1]]},{_BASIS[rec[r, 2]]},"
        f"{_KIND[rec[r, 3]]},{_KIND[rec[r, 4]]},{rec[r, 7]},"
        f"{_BIT[int(rec[r, 5])]},{_BIT[int(rec[r, 6])]}"
        for r in range(rec.shape[0])
    ]


def reference_replay(config, path):
    """The whole-file, line-by-line replay the block parser replaced."""
    data = path.read_bytes()
    lines = data.decode("ascii", errors="replace").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise TranscriptError("empty transcript", line=1)
    trailer = lines.pop()
    body = data[:data.rfind(b"\n#") + 1]
    tag, _, tok = trailer.partition("=")
    digits = {"#sha256": 64, "#fnv1a64": 16}.get(tag)
    if digits is None:
        raise TranscriptError("missing trailing checksum line", line=len(lines) + 1)
    if len(tok) != digits or not set(tok) <= set("0123456789abcdef"):
        raise TranscriptError("malformed checksum line", line=len(lines) + 1)
    if tag == "#sha256":
        checksum_ok = tok == hashlib.sha256(body).hexdigest()
    else:
        checksum_ok = int(tok, 16) == _kernels.fnv1a64(body)
    if not lines or lines[0] != protocol.TRANSCRIPT_HEADER:
        raise TranscriptError("bad or missing header", line=1)
    basis_idx = {t: i for i, t in enumerate(_BASIS)}
    kind_idx = {t: i for i, t in enumerate(_KIND)}
    bit_idx = {"-": -1, "0": 0, "1": 1}
    rec = np.empty((len(lines) - 1, _kernels.N_COLS), dtype=np.int8)
    tags, tag_idx = [], {}
    for i, ln in enumerate(lines[1:]):
        fields = ln.split(",")
        lineno = i + 2
        if len(fields) != 9:
            raise TranscriptError(f"expected 9 fields, got {len(fields)}", line=lineno)
        (idx_s, tag, ab, bb, ak, bk, sf, abit, bbit) = fields
        if idx_s != str(i):
            raise TranscriptError(f"round index {idx_s!r}, expected {i}", line=lineno)
        if tag not in tag_idx:
            if len(tags) > 100:
                raise TranscriptError("too many distinct source tags", line=lineno)
            tag_idx[tag] = len(tags)
            tags.append(tag)
        try:
            rec[i, :8] = (tag_idx[tag], basis_idx[ab], basis_idx[bb], kind_idx[ak],
                          kind_idx[bk], bit_idx[abit], bit_idx[bbit], {"0": 0, "1": 1}[sf])
        except KeyError as exc:
            raise TranscriptError(f"bad token {exc.args[0]!r}", line=lineno) from None
        if rec[i, 7] == 1 and (rec[i, 5] < 0 or rec[i, 6] < 0):
            raise TranscriptError("sifted round missing a key bit", line=lineno)
    rec[:, 8:] = -1
    if config is not None and config.rounds != rec.shape[0]:
        raise TranscriptError(
            f"config expects {config.rounds} rounds, transcript has {rec.shape[0]}")
    tally = protocol._Tally()
    if rec.shape[0]:
        tally.update(rec, tags, None)
    return tally.report(checksum_ok=checksum_ok)


# (emission tags, scenario -> tag): one tag, and two tags over four scenarios
TAG_TABLES = [(["spdc"], np.array([0], dtype=np.int8)),
              (["attack", "singlet"], np.array([1, 0, 0, 1], dtype=np.int8))]


def every_code(scen_emission):
    """One record per (scenario, bases, kinds, sifted flag, bits)."""
    rows = itertools.product(range(len(scen_emission)), (0, 1), (0, 1), range(4), range(4),
                             (-1, 0, 1), (-1, 0, 1), (0, 1))
    rec = np.full((2 * 2 * 4 * 4 * 3 * 3 * 2 * len(scen_emission), _kernels.N_COLS), -1,
                  dtype=np.int8)
    rec[:, :8] = np.array(list(rows), dtype=np.int8)
    return rec


@pytest.mark.parametrize("start", [0, 9990, 99995])
@pytest.mark.parametrize("tags,scen_emission", TAG_TABLES, ids=["one-tag", "two-tag"])
def test_block_writer_matches_reference(tags, scen_emission, start):
    rec = every_code(scen_emission)
    blob = protocol._transcript_block(rec, start, protocol._suffix_table(tags), scen_emission)
    assert blob.decode("ascii").split("\n")[:-1] == reference_lines(rec, start, tags,
                                                                     scen_emission)


@pytest.mark.parametrize("tags,scen_emission", TAG_TABLES, ids=["one-tag", "two-tag"])
def test_session_transcript_matches_reference(tmp_path, monkeypatch, tags, scen_emission):
    # every code, repeated past 10**5 rounds: crosses powers of ten, writer
    # blocks and sampling chunks
    codes = every_code(scen_emission)
    rounds = 100_003
    rec = codes[np.arange(rounds) % codes.shape[0]]
    tables = SimpleNamespace(emission_tags=tags, scen_emission=scen_emission)
    chunks = [(lo, rec[lo:lo + protocol.CHUNK_ROUNDS], tables)
              for lo in range(0, rounds, protocol.CHUNK_ROUNDS)]
    monkeypatch.setattr(protocol, "_simulate", lambda config: iter(chunks))
    path = tmp_path / "t.csv"
    run_session(SessionConfig(rounds=rounds, seed=0, source=SingletSource()), path)
    body = "\n".join([protocol.TRANSCRIPT_HEADER]
                     + reference_lines(rec, 0, tags, scen_emission)) + "\n"
    digest = hashlib.sha256(body.encode("ascii")).hexdigest()
    assert path.read_text() == body + f"#sha256={digest}\n"


@pytest.mark.parametrize("source", [SpdcSource(SpdcParams(0.3)), AttackMixture(0.5)],
                         ids=["one-tag", "two-tag"])
def test_replay_of_long_session_gives_live_counts(tmp_path, source):
    cfg, path, live = write_transcript(tmp_path, rounds=100_005, seed=3, source=source)
    rep = replay(cfg, path)
    assert rep == live
    assert rep == reference_replay(cfg, path)


def outcome(replay_fn, path):
    try:
        return replay_fn(None, path)
    except TranscriptError as exc:
        return str(exc), exc.line


@pytest.mark.parametrize("read_bytes", [97, 1000, _replay.READ_BYTES])
def test_replay_agrees_with_reference_on_corrupted_files(tmp_path, monkeypatch, read_bytes):
    # a transcript with one byte replaced, deleted or inserted: replay accepts
    # it with the same report, or rejects it with the same error and line
    monkeypatch.setattr(_replay, "READ_BYTES", read_bytes)
    _, path, _ = write_transcript(tmp_path, rounds=60, seed=5)
    data = path.read_bytes()
    rng = np.random.default_rng(read_bytes)
    alphabet = b"0123456789,-\n#=HVDAncbd\xc3x"
    for _ in range(300):
        pos = int(rng.integers(len(data)))
        byte = alphabet[int(rng.integers(len(alphabet)))].to_bytes(1, "big")
        edit = int(rng.integers(3))
        if edit == 0:
            mutated = data[:pos] + byte + data[pos + 1:]
        elif edit == 1:
            mutated = data[:pos] + data[pos + 1:]
        else:
            mutated = data[:pos] + byte + data[pos:]
        path.write_bytes(mutated)
        assert outcome(replay, path) == outcome(reference_replay, path), (pos, edit, byte)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_replay_reads_a_pipe(tmp_path):
    cfg, path, live = write_transcript(tmp_path)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
    writer.start()
    try:
        assert replay(cfg, fifo) == live
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()


def replay_peaks(tmp_path, rewrite=lambda path: None):
    """tracemalloc peaks of replay at 2·10⁴ and 2·10⁵ rounds."""
    peaks = []
    for rounds in (20_000, 200_000):
        _, path, live = write_transcript(tmp_path, rounds=rounds, seed=9)
        rewrite(path)
        tracemalloc.start()
        rep = replay(None, path)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert rep == live
    return peaks


def test_replay_memory_does_not_grow_with_the_file(tmp_path):
    peaks = replay_peaks(tmp_path)
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_v1_replay_memory_does_not_grow_with_the_file(tmp_path, monkeypatch):
    # Under tracemalloc the pure-Python FNV-1a takes about 15 s over the larger
    # file, so a chained CRC-32 stands in for it: the test measures what replay
    # holds, and the checksum still verifies only if replay chains the hash
    # over its reads.  The real hash's chaining is tested in test_protocol.
    monkeypatch.setattr(_kernels, "fnv1a64", lambda data, h=0: zlib.crc32(data, h))

    def as_v1(path):
        data = path.read_bytes()
        body = data[:data.rfind(b"#sha256=")]
        path.write_bytes(body + b"#fnv1a64=%016x\n" % _kernels.fnv1a64(body))

    peaks = replay_peaks(tmp_path, as_v1)
    assert peaks[1] < 1.5 * peaks[0], peaks
