"""Transcripts: exact rejection errors, and the block writer and parser
against the row-by-row code they replaced.

Each CSV rejection case edits the version-2 text form (`transcript --text`)
of a transcript written by `run_session` and asserts the exact
`TranscriptError` text, line number included.  Each version-3 case edits
the file `run_session` writes.
"""

import dataclasses
import hashlib
import itertools
import json
import os
import threading
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from spdcqkd import _kernels, _replay, protocol
from spdcqkd.cli import main
from spdcqkd.fock import FockError
from spdcqkd.protocol import (AttackMixture, SessionConfig, SingletSource, SpdcSource,
                              TranscriptError, replay, run_session)
from spdcqkd.source import SpdcParams

from test_golden import text_form
from test_protocol import ReferenceTally, reference_tally_update


def write_v3(tmp_path, rounds=3000, seed=17, source=AttackMixture(0.7)):
    cfg = SessionConfig(rounds=rounds, seed=seed, source=source)
    path = tmp_path / "session.v3"
    live = run_session(cfg, transcript_path=path)
    return cfg, path, live


def write_transcript(tmp_path, rounds=3000, seed=17, source=AttackMixture(0.7)):
    """A session's version-3 transcript turned into its CSV text form."""
    cfg, v3, live = write_v3(tmp_path, rounds, seed, source)
    path = tmp_path / "session.csv"
    path.write_bytes(text_form(v3))
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
    if tag == "#fnv1a64":
        raise TranscriptError("unsupported transcript version 1 ('#fnv1a64' checksum)",
                              line=len(lines) + 1)
    if tag != "#sha256":
        raise TranscriptError("missing trailing checksum line", line=len(lines) + 1)
    if len(tok) != 64 or not set(tok) <= set("0123456789abcdef"):
        raise TranscriptError("malformed checksum line", line=len(lines) + 1)
    checksum_ok = tok == hashlib.sha256(body).hexdigest()
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
    tally = ReferenceTally()
    reference_tally_update(tally, rec, tags, np.arange(len(tags)))
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
    blob = protocol._transcript_block(protocol._row_codes(rec, scen_emission), start,
                                      protocol._suffix_table(tags))
    assert blob.decode("ascii").split("\n")[:-1] == reference_lines(rec, start, tags,
                                                                     scen_emission)


@pytest.mark.parametrize("start", [0, 99995])
def test_writer_and_reader_agree_on_the_row_code(start):
    # three tags, every code of each: what the writer writes for a code, the
    # parser reads back as that code, except a sifted row missing a bit
    tags = ["singlet", "attack", "spdc"]
    scen_emission = np.arange(3, dtype=np.int8)
    rec = every_code(scen_emission)
    codes = protocol._row_codes(rec, scen_emission)
    assert np.array_equal(np.sort(codes), np.arange(3 * protocol._CODES))
    table = protocol._suffix_table(tags)
    lookups = _replay.token_lookups()
    missing_bit = (rec[:, 7] == 1) & ((rec[:, 5] < 0) | (rec[:, 6] < 0))
    blob = protocol._transcript_block(codes[~missing_bit], start, table)
    read_tags = []
    got = _replay.parse_rows(blob, start, read_tags, {}, lookups)
    assert got.dtype == np.int32 and got.ndim == 1
    assert np.array_equal(got, codes[~missing_bit]) and read_tags == tags
    assert missing_bit.sum() == 3 * 2 * 2 * 4 * 4 * 5
    for code in codes[missing_bit]:
        blob = protocol._transcript_block(code[None], start, table)
        with pytest.raises(TranscriptError) as err:
            _replay.parse_rows(blob, start, [], {}, lookups)
        assert str(err.value) == f"line {start + 2}: sifted round missing a key bit"


def v3_bytes(config, tags, codes):
    """A version-3 transcript of `codes` as `run_session` would write it."""
    data = protocol._transcript_head(config, tags) + codes.astype("<u2").tobytes()
    return data + hashlib.sha256(data).digest()


@pytest.mark.parametrize("tags,scen_emission", TAG_TABLES, ids=["one-tag", "two-tag"])
def test_session_transcript_matches_reference(tmp_path, monkeypatch, tags, scen_emission):
    # every code a round can have, repeated past 10**5 rounds, read in odd-sized
    # pieces: the text form crosses powers of ten, writer blocks, and reads
    # that end inside a code
    monkeypatch.setattr(_replay, "READ_BYTES", 9999)
    # no config draws every code: the header's config is taken to allow them all
    monkeypatch.setattr(_replay, "drawable_codes",
                        lambda config, tags: np.ones(len(tags) * protocol._CODES, dtype=bool))
    codes = every_code(scen_emission)
    codes = codes[~((codes[:, 7] == 1) & ((codes[:, 5] < 0) | (codes[:, 6] < 0)))]
    rounds = 100_003
    rec = codes[np.arange(rounds) % codes.shape[0]]
    path = tmp_path / "t.v3"
    path.write_bytes(v3_bytes(SessionConfig(rounds=rounds, seed=0, source=SingletSource()),
                              tags, protocol._row_codes(rec, scen_emission)))
    body = "\n".join([protocol.TRANSCRIPT_HEADER]
                     + reference_lines(rec, 0, tags, scen_emission)) + "\n"
    digest = hashlib.sha256(body.encode("ascii")).hexdigest()
    assert text_form(path).decode("ascii") == body + f"#sha256={digest}\n"


@pytest.mark.parametrize("source", [SpdcSource(SpdcParams(0.3)), AttackMixture(0.5)],
                         ids=["one-tag", "two-tag"])
def test_replay_of_long_session_gives_live_counts(tmp_path, source):
    cfg, path, live = write_transcript(tmp_path, rounds=100_005, seed=3, source=source)
    rep = replay(cfg, path)
    assert rep == live
    assert rep == reference_replay(cfg, path)


def test_header_only_transcript_replays_to_a_zero_report(tmp_path):
    head = (protocol.TRANSCRIPT_HEADER + "\n").encode("ascii")
    path = tmp_path / "t.csv"
    path.write_bytes(head + b"#sha256=%s\n" % hashlib.sha256(head).hexdigest().encode())
    rep = replay(None, path)
    assert rep.rounds == 0 and rep.source_counts == {}
    assert rep.per_basis == {b: {"sifted": 0, "errors": 0, "qber": 0.0} for b in ("HV", "DA")}
    assert rep.qber_ci95 == [0.0, 1.0] and rep.checksum_ok is True
    assert rep == reference_replay(None, path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rounds": 1, "seed": 0, "source": {"kind": "singlet"}}))
    result = CliRunner().invoke(main, ["replay", "--transcript", str(path),
                                       "--config", str(config)])
    assert result.exit_code == 2
    assert "config expects 1 rounds, transcript has 0" in result.stderr


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
    cfg, path, live = write_transcript(tmp_path)  # the CSV text form of session.v3
    for data in (path.read_bytes(), (tmp_path / "session.v3").read_bytes()):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            assert replay(cfg, fifo) == live
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        fifo.unlink()


def replay_peaks(tmp_path, rewrite=lambda path: None, rounds=(20_000, 200_000),
                 write=write_transcript):
    """tracemalloc peaks of replay of the CSV transcripts (by default) of two
    sessions, at 2·10⁴ and 2·10⁵ rounds."""
    peaks = []
    for n in rounds:
        _, path, live = write(tmp_path, rounds=n, seed=9)
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


def test_v3_replay_memory_does_not_grow_with_the_file(tmp_path):
    # 2 bytes per round: both bodies span more than one read of READ_BYTES
    rounds = (200_000, 2_000_000)
    assert 2 * rounds[0] > _replay.READ_BYTES
    peaks = replay_peaks(tmp_path, rounds=rounds, write=write_v3)
    assert peaks[1] < 1.5 * peaks[0], peaks


# -- version 3 ----------------------------------------------------------------


def test_v3_digest_mismatch_is_reported_not_raised(tmp_path):
    cfg, path, live = write_v3(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))  # in the digest
    rep = replay(cfg, path)
    assert not rep.checksum_ok and rep == dataclasses.replace(live, checksum_ok=False)
    # a round's code replaced by another valid one: counted as read
    codes = np.frombuffer(data[-32 - 2 * cfg.rounds:-32], dtype="<u2").copy()
    codes[0] = codes[1] if codes[1] != codes[0] else codes[2]
    path.write_bytes(data[:-32 - 2 * cfg.rounds] + codes.tobytes() + data[-32:])
    rep = replay(cfg, path)
    assert not rep.checksum_ok and rep.rounds == live.rounds


def sifted_code_missing_a_bit(alice_bit=0, bob_bit=1) -> int:
    # [Alice basis, Bob basis, Alice kind, Bob kind, sifted, Alice bit, Bob bit];
    # bit token 0 is '-'
    return int(np.ravel_multi_index((0, 0, 1, 1, 1, alice_bit, bob_bit), protocol._TAIL_SHAPE))


def double_click_code(tag=0) -> int:
    # both parties double-click in HV, not sifted: no round of a singlet or an
    # attack mixture has it
    return int(np.ravel_multi_index((0, 0, 3, 3, 0, 0, 0), protocol._TAIL_SHAPE)
               + tag * protocol._CODES)


def with_code(data, rounds, i, code):
    """`data` with round i's code replaced, the digest left as it was."""
    body = len(data) - 32 - 2 * rounds
    return data[:body + 2 * i] + int(code).to_bytes(2, "little") + data[body + 2 * i + 2:]


def with_meta(data, **fields):
    """`data` with fields of its JSON header line replaced."""
    magic, meta, rest = data.split(b"\n", 2)
    meta = json.dumps({**json.loads(meta), **fields}, sort_keys=True, separators=(",", ":"))
    return b"\n".join([magic, meta.encode("ascii"), rest])


V3_REJECTIONS = {
    "version-4": (lambda d, n: d.replace(b"spdcqkd-transcript 3", b"spdcqkd-transcript 4", 1),
                  "unsupported transcript version '4'"),
    "bad-version-token": (lambda d, n: d.replace(b"transcript 3\n", b"transcript 3x\n", 1),
                          "unsupported transcript version '3x'"),
    "magic-only": (lambda d, n: b"spdcqkd-transcript 3",
                   "bad version-3 header: no JSON line of at most 65536 bytes"),
    "bad-json": (lambda d, n: d.replace(b'{"code_bytes"', b'{code_bytes"', 1),
                 "bad version-3 header: not JSON: Expecting property name enclosed in "
                 "double quotes: line 1 column 2 (char 1)"),
    "nested-json": (lambda d, n: d.split(b"\n")[0] + b"\n" + b"[" * 50_000 + b"\n",
                    "bad version-3 header: not JSON: maximum recursion depth exceeded…"),
    "missing-field": (lambda d, n: with_meta(d, tool_version=None).replace(
        b',"tool_version":null', b""),
        "bad version-3 header: expected an object with the fields "
        "code_bytes, config, tags, tool_version"),
    "code-width-4": (lambda d, n: with_meta(d, code_bytes=4),
                     "unsupported row code width 4"),
    "tag-with-comma": (lambda d, n: with_meta(d, tags=["att,ack", "singlet"]),
                       "bad version-3 header: tags must be 1 to 56 distinct printable ASCII "
                       "strings without commas"),
    "bad-config": (lambda d, n: with_meta(d, config={"rounds": n, "seed": -1,
                                                     "source": {"kind": "singlet"}}),
                   "bad version-3 header: config: seed must be >= 0, got -1"),
    "odd-body": (lambda d, n: d[:-40] + d[-39:], "odd body length 5999: not whole row codes"),
    "short-body": (lambda d, n: d[:-40] + d[-38:], "header names 3000 rounds, body holds 2999"),
    "no-digest": (lambda d, n: d[:len(d) - 32 - 2 * n + 10],
                  "transcript ends before its digest"),
    "code-out-of-range": (lambda d, n: with_code(d, n, 7, 2 * protocol._CODES),
                          "round 7: row code 2304 is out of range for 2 tag(s)"),
    "largest-code": (lambda d, n: with_code(d, n, n - 1, 0xFFFF),
                     "round 2999: row code 65535 is out of range for 2 tag(s)"),
    "sifted-missing-bit": (lambda d, n: with_code(with_code(d, n, 2500, 0xFFFF), n, 9,
                                                  sifted_code_missing_a_bit()),
                           "round 9: sifted round missing a key bit"),
    "sifted-missing-bob-bit": (lambda d, n: with_code(d, n, 11, sifted_code_missing_a_bit(2, 0)
                                                      + protocol._CODES),
                               "round 11: sifted round missing a key bit"),
    "code-of-probability-0": (lambda d, n: with_code(d, n, 5, double_click_code(1)),
                              "round 5: row code 1422 has probability 0 under the header's "
                              "config"),
    "tags-in-another-order": (lambda d, n: with_meta(d, tags=["singlet", "attack"]),
                              "bad version-3 header: tags ['singlet', 'attack'] are not the "
                              "config's emission tags ['attack', 'singlet']"),
}


@pytest.mark.parametrize("name", V3_REJECTIONS)
def test_corrupt_v3_transcript_is_rejected(tmp_path, name):
    edit, message = V3_REJECTIONS[name]
    cfg, path, _ = write_v3(tmp_path)
    path.write_bytes(edit(path.read_bytes(), cfg.rounds))
    with pytest.raises(TranscriptError) as err:
        replay(None, path)
    if message.endswith("…"):  # the rest is the JSON decoder's own text
        assert str(err.value).startswith(message[:-1])
    else:
        assert str(err.value) == message
    assert err.value.line is None
    result = CliRunner().invoke(main, ["replay", "--transcript", str(path)])
    assert result.exit_code == 2
    assert f"--transcript: {message.rstrip('…')}" in result.stderr


@pytest.mark.parametrize("tags,code,message", [
    (["singlet"], double_click_code(), "round 0: row code 270 has probability 0 under the "
                                       "header's config"),
    (["attack"], 0, "bad version-3 header: tags ['attack'] are not the config's emission "
                    "tags ['singlet']"),
], ids=["double-click", "foreign-tag"])
def test_v3_file_its_config_cannot_produce_is_rejected(tmp_path, tags, code, message):
    # a valid digest: only the template of the header's config tells
    config = SessionConfig(rounds=3, seed=0, source=SingletSource())
    path = tmp_path / "crafted.v3"
    path.write_bytes(v3_bytes(config, tags, np.full(3, code)))
    for cfg in (None, config):
        with pytest.raises(TranscriptError) as err:
            replay(cfg, path)
        assert str(err.value) == message
    with pytest.raises(TranscriptError) as err:
        text_form(path)
    assert str(err.value) == message
    for args in (["replay", "--transcript", str(path)],
                 ["transcript", "--in", str(path), "--text"]):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert message in result.stderr


def test_v3_header_whose_template_cannot_be_built_is_rejected(tmp_path, monkeypatch):
    # every config a header can name builds today; a build error is still named
    def unbuildable(config):
        raise FockError("no template")

    _, path, _ = write_v3(tmp_path)
    monkeypatch.setattr(_replay, "_session_template", unbuildable)
    with pytest.raises(TranscriptError, match=r"^bad version-3 header: config: no template$"):
        replay(None, path)
    result = CliRunner().invoke(main, ["replay", "--transcript", str(path)])
    assert result.exit_code == 2 and "config: no template" in result.stderr


def test_v3_file_with_a_misspelt_magic_is_read_as_csv(tmp_path):
    # only a first line starting 'spdcqkd-transcript ' is version 3; any other
    # goes to the CSV reader, which finds no checksum line after the binary body
    _, path, _ = write_v3(tmp_path)
    path.write_bytes(path.read_bytes().replace(b"spdcqkd-transcript", b"spdcqkd-transkript", 1))
    with pytest.raises(TranscriptError, match=r"^line \d+: missing trailing checksum line$"):
        replay(None, path)


@pytest.mark.parametrize("read_bytes", [97, 1000, _replay.READ_BYTES])
def test_corrupted_v3_files_end_in_a_report_or_a_named_error(tmp_path, monkeypatch, read_bytes):
    # a transcript with one byte replaced, deleted or inserted: replay returns
    # a report whose checksum_ok says whether the digest still matches, or
    # raises a TranscriptError; both happen
    monkeypatch.setattr(_replay, "READ_BYTES", read_bytes)
    _, path, live = write_v3(tmp_path, rounds=60, seed=5)
    data = path.read_bytes()
    rng = np.random.default_rng(read_bytes)
    reports = errors = 0
    for _ in range(300):
        pos = int(rng.integers(len(data)))
        byte = int(rng.integers(256)).to_bytes(1, "big")
        edit = int(rng.integers(3))
        if edit == 0:
            mutated = data[:pos] + byte + data[pos + 1:]
        elif edit == 1:
            mutated = data[:pos] + data[pos + 1:]
        else:
            mutated = data[:pos] + byte + data[pos:]
        path.write_bytes(mutated)
        try:
            rep = replay(None, path)
        except TranscriptError:
            errors += 1
            continue
        reports += 1
        assert mutated.startswith(b"spdcqkd-transcript 3\n"), (pos, edit, byte)
        assert rep.checksum_ok == (hashlib.sha256(mutated[:-32]).digest() == mutated[-32:])
        assert rep.checksum_ok == (mutated == data) and rep.rounds == live.rounds
    assert reports > 10 and errors > 10, (reports, errors)
