"""Transcripts: exact rejection errors, and the text-form writer and the
block reader against the record-based and round-by-round code they are
checked against.

Each rejection case edits the version-3 file `run_session` writes and
asserts the exact `TranscriptError` text.  Replay reads version 3 only:
the version-2 CSV text form (`transcript --text`), version 1 and any other
first line get one message.
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
from spdcqkd.attack import AttackConfig
from spdcqkd.cli import main
from spdcqkd.fock import FockError
from spdcqkd.optics import HV
from spdcqkd.protocol import (AttackMixture, InterceptResend, SessionConfig, SingletSource,
                              SpdcSource, SplitAttack, TranscriptError, eve_mutual_information,
                              replay, run_session)
from spdcqkd.security import binary_entropy
from spdcqkd.source import SpdcParams

from test_golden import text_form
from test_protocol import ReferenceTally, reference_tally_update


def write_v3(tmp_path, rounds=3000, seed=17, source=AttackMixture(0.7)):
    cfg = SessionConfig(rounds=rounds, seed=seed, source=source)
    path = tmp_path / "session.v3"
    live = run_session(cfg, transcript_path=path)
    return cfg, path, live


NOT_V3 = "not a version-3 transcript: its first line must be 'spdcqkd-transcript 3'"


# every source and eavesdropper kind that can act on it
LEAK_GRID = {"singlet/none": (SingletSource(), None),
             "singlet/intercept": (SingletSource(), InterceptResend()),
             "spdc/none": (SpdcSource(SpdcParams(0.3)), None),
             "spdc/split3": (SpdcSource(SpdcParams(0.3)),
                             SplitAttack(AttackConfig(max_attempts=3))),
             "mixture/split1": (AttackMixture(0.5), SplitAttack(AttackConfig(max_attempts=1))),
             "mixture/intercept-HV": (AttackMixture(0.5), InterceptResend(HV))}


@pytest.mark.parametrize("policy", ["assign", "discard"])
@pytest.mark.parametrize("name", LEAK_GRID)
def test_replayed_leak_is_the_live_leak(tmp_path, name, policy):
    source, eve = LEAK_GRID[name]
    cfg = SessionConfig(rounds=3000, seed=11, source=source, eve=eve,
                        double_click_policy=policy)
    path = tmp_path / "session.v3"
    live = run_session(cfg, transcript_path=path)
    protocol._templates.clear()  # replay builds the template anew
    replayed = replay(None, path)
    assert replayed.leak == live.leak
    assert live.leak.eve_info == eve_mutual_information(cfg)
    assert live.leak.bound == binary_entropy(live.qber_hat)


def as_v1(text):
    """A CSV text form with the version-1 trailer over the same body."""
    body = text[:text.rfind(b"#sha256=")]
    return body + b"#fnv1a64=%016x\n" % _kernels.fnv1a64(body)


# Each retired form, made from a session's text form and its version-3 bytes.
RETIRED_FORMS = {
    "text-form": lambda text, v3: text,
    "version-1": lambda text, v3: as_v1(text),
    "malformed-trailer": lambda text, v3: text[:text.rfind(b"#sha256=")] + b"#sha256=g\n",
    "empty": lambda text, v3: b"",
    "newline": lambda text, v3: b"\n",
    "checksum-line-only": lambda text, v3: b"#sha256=%s\n" % hashlib.sha256(b"").hexdigest()
    .encode(),
    "misspelt-magic": lambda text, v3: v3.replace(b"spdcqkd-transcript", b"spdcqkd-transkript", 1),
}


@pytest.mark.parametrize("form", RETIRED_FORMS)
def test_retired_transcript_forms_are_refused(tmp_path, form):
    # only a first line starting 'spdcqkd-transcript ' is read; every other
    # file gets one message, whatever else is wrong with it
    _, v3, _ = write_v3(tmp_path)
    path = tmp_path / "retired"
    path.write_bytes(RETIRED_FORMS[form](text_form(v3), v3.read_bytes()))
    with pytest.raises(TranscriptError) as err:
        replay(None, path)
    assert str(err.value) == NOT_V3
    for args, option in ((["replay", "--transcript", str(path)], "--transcript"),
                         (["transcript", "--in", str(path), "--text"], "--in")):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert f"{option}: {NOT_V3}\n" in result.stderr
        assert "Traceback" not in result.output and result.stdout_bytes == b""


def test_bad_token_after_the_first_block(tmp_path):
    # a row code that names no tokens of the header's tags, past the first read
    cfg, path, _ = write_v3(tmp_path, rounds=140_000)
    assert 2 * 135_000 > _replay.READ_BYTES
    path.write_bytes(with_code(path.read_bytes(), cfg.rounds, 135_000, 2 * protocol._CODES))
    with pytest.raises(TranscriptError,
                       match=r"^round 135000: row code 2304 is out of range for 2 tag\(s\)$"):
        replay(None, path)


def test_sifted_row_with_a_dash_bit(tmp_path):
    cfg, path, _ = write_v3(tmp_path)
    path.write_bytes(with_code(path.read_bytes(), cfg.rounds, 1499, sifted_code_missing_a_bit()))
    with pytest.raises(TranscriptError, match="^round 1499: sifted round missing a key bit$"):
        replay(None, path)


def test_file_cut_inside_a_row(tmp_path):
    # cut inside round 1500's code: its last 32 bytes read as the digest
    cfg, path, _ = write_v3(tmp_path)
    data = path.read_bytes()
    head = len(data) - 32 - 2 * cfg.rounds
    path.write_bytes(data[:head + 2 * 1500 + 1])
    with pytest.raises(TranscriptError, match="^odd body length 2969: not whole row codes$"):
        replay(None, path)


# -- the writer and block reader against the record-based references --------

_BASIS = ("HV", "DA")
_KIND = ("nc", "b0", "b1", "dc")
_BIT = {-1: "-", 0: "0", 1: "1"}


def reference_lines(rec, start, tags, scen_emission):
    """The text-form rows of records, formatted from their columns, not
    from their row codes."""
    emis = scen_emission[rec[:, 0]]
    return [
        f"{start + r},{tags[emis[r]]},{_BASIS[rec[r, 1]]},{_BASIS[rec[r, 2]]},"
        f"{_KIND[rec[r, 3]]},{_KIND[rec[r, 4]]},{rec[r, 7]},"
        f"{_BIT[int(rec[r, 5])]},{_BIT[int(rec[r, 6])]}"
        for r in range(rec.shape[0])
    ]


def reference_replay(config, path):
    """The whole-file reader the block reader is checked against: the header
    as `read_header` reads it, then the body's row codes one by one."""
    with open(path, "rb") as fh:
        head = _replay.read_header(fh)
    _replay.check_config(config, head)
    tags = head.template.emission_tags
    data = path.read_bytes()
    codes = np.frombuffer(data[len(head.raw):len(head.raw) + head.body_bytes], dtype="<u2")
    for i, code in enumerate(codes.tolist()):
        if code >= head.template.drawable.size:
            raise TranscriptError(f"round {i}: row code {code} is out of range for "
                                  f"{len(tags)} tag(s)")
        if not head.template.drawable[code]:
            *_, sifted, alice_bit, bob_bit = np.unravel_index(code % protocol._CODES,
                                                              protocol._TAIL_SHAPE)
            if sifted and not (alice_bit and bob_bit):  # a bit field's token 0 is '-'
                raise TranscriptError(f"round {i}: sifted round missing a key bit")
            raise TranscriptError(f"round {i}: row code {code} has probability 0 under the "
                                  "header's config")
    tag, *tokens = np.unravel_index(codes, (len(tags),) + protocol._TAIL_SHAPE)
    rec = np.full((codes.size, _kernels.N_COLS), -1, dtype=np.int8)
    rec[:, 0] = tag
    for (col, _, first), token in zip(protocol._TAIL_FIELDS, tokens):
        rec[:, col] = token + first
    tally = ReferenceTally()
    reference_tally_update(tally, rec, tags, np.arange(len(tags)))
    return tally.report(head.template.eve_information,
                        checksum_ok=hashlib.sha256(data[:-32]).digest() == data[-32:])


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
    lines = protocol._transcript_lines(protocol._row_codes(rec, scen_emission), start,
                                       protocol._row_texts(tuple(tags)))
    assert lines == reference_lines(rec, start, tags, scen_emission)


@pytest.mark.parametrize("start", [0, 99995])
def test_writer_and_reader_agree_on_the_row_code(start):
    # three tags, every code of each: the writer's code of a record is one
    # to one, the text form writes the tag and tokens the code names, and a
    # code decoded as the reader decodes it (its tag, then a token index per
    # field) gives back the record, the rule for a sifted round missing a
    # key bit included
    tags = ["singlet", "attack", "spdc"]
    scen_emission = np.arange(3, dtype=np.int8)
    rec = every_code(scen_emission)
    codes = protocol._row_codes(rec, scen_emission)
    assert np.array_equal(np.sort(codes), np.arange(3 * protocol._CODES))
    lines = protocol._transcript_lines(codes, start, protocol._row_texts(tuple(tags)))
    index = [{tok: i for i, tok in enumerate(tokens)} for _, tokens, _ in protocol._TAIL_FIELDS]
    rows = [line.split(",") for line in lines]
    assert [int(row[0]) for row in rows] == list(range(start, start + codes.size))
    assert [tags.index(row[1]) * protocol._CODES
            + int(np.ravel_multi_index([ix[tok] for ix, tok in zip(index, row[2:])],
                                       protocol._TAIL_SHAPE)) for row in rows] == codes.tolist()
    tag, *tokens = np.unravel_index(codes, (3,) + protocol._TAIL_SHAPE)
    assert np.array_equal(tag, rec[:, 0])
    for (col, _, first), token in zip(protocol._TAIL_FIELDS, tokens):
        assert np.array_equal(token + first, rec[:, col])
    *_, sifted, alice_bit, bob_bit = tokens
    missing_bit = (rec[:, 7] == 1) & ((rec[:, 5] < 0) | (rec[:, 6] < 0))
    assert np.array_equal((sifted == 1) & ((alice_bit == 0) | (bob_bit == 0)), missing_bit)
    assert missing_bit.sum() == 3 * 2 * 2 * 4 * 4 * 5


def v3_bytes(config, tags, codes):
    """A version-3 transcript of `codes` as `run_session` would write it."""
    data = (protocol._transcript_head(config, tags, protocol.__version__)
            + codes.astype("<u2").tobytes())
    return data + hashlib.sha256(data).digest()


@pytest.mark.parametrize("tags,scen_emission", TAG_TABLES, ids=["one-tag", "two-tag"])
def test_session_transcript_matches_reference(tmp_path, monkeypatch, tags, scen_emission):
    # every code a round can have, repeated past 10**5 rounds, read in odd-sized
    # pieces: the text form crosses powers of ten, writer blocks, and reads
    # that end inside a code
    monkeypatch.setattr(_replay, "READ_BYTES", 9999)
    # no config draws every code: the header's config is taken to allow them all
    build = protocol._build_tables

    def allowing_every_code(config):
        template = build(config)
        return dataclasses.replace(template, drawable=np.ones(
            len(template.emission_tags) * protocol._CODES, dtype=bool))

    monkeypatch.setattr(protocol, "_build_tables", allowing_every_code)
    codes = every_code(scen_emission)
    codes = codes[~((codes[:, 7] == 1) & ((codes[:, 5] < 0) | (codes[:, 6] < 0)))]
    rounds = 100_003
    rec = codes[np.arange(rounds) % codes.shape[0]]
    path = tmp_path / "t.v3"
    source = SpdcSource(SpdcParams(0.3)) if tags == ["spdc"] else AttackMixture(0.5)
    path.write_bytes(v3_bytes(SessionConfig(rounds=rounds, seed=0, source=source),
                              tags, protocol._row_codes(rec, scen_emission)))
    body = "\n".join([protocol.TRANSCRIPT_HEADER]
                     + reference_lines(rec, 0, tags, scen_emission)) + "\n"
    digest = hashlib.sha256(body.encode("ascii")).hexdigest()
    assert text_form(path).decode("ascii") == body + f"#sha256={digest}\n"


@pytest.mark.parametrize("read_bytes", [1, 3, 9999])
def test_text_form_does_not_depend_on_the_read_size(tmp_path, monkeypatch, read_bytes):
    # a read of 1 byte holds half a code or ends one, a read of 3 bytes one
    # code and a half: a read with no whole code writes no line
    _, path, _ = write_v3(tmp_path, rounds=40)
    want = text_form(path)
    assert len(want.splitlines()) == 40 + 2
    monkeypatch.setattr(_replay, "READ_BYTES", read_bytes)
    assert text_form(path) == want


def test_text_form_formats_one_read_at_a_time(tmp_path, monkeypatch):
    # memory is bounded by the slice size: no call formats more rounds than
    # one slice holds, and the calls cover every round once, in order
    rounds = 300_007
    assert 2 * rounds > 2 * _replay.READ_BYTES  # the body spans three reads
    _, path, _ = write_v3(tmp_path, rounds=rounds)
    calls = []
    lines = _replay._transcript_lines

    def spy(codes, start, texts):
        calls.append((start, codes.size))
        return lines(codes, start, texts)

    monkeypatch.setattr(_replay, "_transcript_lines", spy)
    assert len(text_form(path).splitlines()) == rounds + 2
    assert len(calls) > 2
    assert all(0 < size <= _replay.TEXT_SLICE_ROWS for _, size in calls)
    assert [start for start, _ in calls] == list(itertools.accumulate(
        [0] + [size for _, size in calls[:-1]]))
    assert sum(size for _, size in calls) == rounds


@pytest.mark.parametrize("source", [SpdcSource(SpdcParams(0.3)), AttackMixture(0.5)],
                         ids=["one-tag", "two-tag"])
def test_replay_of_long_session_gives_live_counts(tmp_path, source):
    cfg, path, live = write_v3(tmp_path, rounds=100_005, seed=3, source=source)
    rep = replay(cfg, path)
    assert rep == live
    assert rep == reference_replay(cfg, path)


def outcome(replay_fn, path):
    try:
        return replay_fn(None, path)
    except TranscriptError as exc:
        return str(exc)


@pytest.mark.parametrize("read_bytes", [97, 1000, _replay.READ_BYTES])
def test_replay_agrees_with_reference_on_corrupted_files(tmp_path, monkeypatch, read_bytes):
    # a transcript with one byte of its body or digest replaced, deleted or
    # inserted: replay accepts it with the same report, or rejects it with
    # the same error
    monkeypatch.setattr(_replay, "READ_BYTES", read_bytes)
    cfg, path, _ = write_v3(tmp_path, rounds=600, seed=5)
    data = path.read_bytes()
    head = len(data) - 32 - 2 * cfg.rounds
    rng = np.random.default_rng(read_bytes)
    reports = errors = 0
    for _ in range(300):
        pos = int(rng.integers(head, len(data)))
        # the same byte of another round's code: often a code the config draws
        other = head + 2 * int(rng.integers(cfg.rounds)) + (pos - head) % 2
        byte = data[other:other + 1]
        edit = int(rng.integers(3))
        if edit == 0:
            mutated = data[:pos] + byte + data[pos + 1:]
        elif edit == 1:
            mutated = data[:pos] + data[pos + 1:]
        else:
            mutated = data[:pos] + byte + data[pos:]
        path.write_bytes(mutated)
        got = outcome(replay, path)
        assert got == outcome(reference_replay, path), (pos, edit, byte)
        reports += not isinstance(got, str)
        errors += isinstance(got, str)
    assert reports > 10 and errors > 10, (reports, errors)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_replay_reads_a_pipe(tmp_path):
    cfg, path, live = write_v3(tmp_path)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
    writer.start()
    try:
        assert replay(cfg, fifo) == live
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()


def replay_peaks(tmp_path, rounds=(20_000, 200_000)):
    """tracemalloc peaks of replay of the transcripts of two sessions, at
    2·10⁴ and 2·10⁵ rounds by default."""
    peaks = []
    for n in rounds:
        _, path, live = write_v3(tmp_path, rounds=n, seed=9)
        tracemalloc.start()
        rep = replay(None, path)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert rep == live
    return peaks


def test_replay_memory_does_not_grow_with_the_file(tmp_path, monkeypatch):
    # in reads of 4 KiB, both bodies span many reads
    monkeypatch.setattr(_replay, "READ_BYTES", 1 << 12)
    peaks = replay_peaks(tmp_path)
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_v3_replay_memory_does_not_grow_with_the_file(tmp_path):
    # 2 bytes per round: both bodies span more than one read of READ_BYTES
    rounds = (200_000, 2_000_000)
    assert 2 * rounds[0] > _replay.READ_BYTES
    peaks = replay_peaks(tmp_path, rounds=rounds)
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
        "bad version-3 header: expected a JSON object with a string tool_version"),
    "code-width-4": (lambda d, n: with_meta(d, code_bytes=4),
                     "bad version-3 header: code_bytes 4 here, 2 for its config"),
    "tag-with-comma": (lambda d, n: with_meta(d, tags=["att,ack", "singlet"]),
                       "bad version-3 header: tags ['att,ack', 'singlet'] here, "
                       "['attack', 'singlet'] for its config"),
    "misspelt-config-key": (lambda d, n: d.replace(b'"double_click_policy"',
                                                    b'"double_click_polcy"', 1),
                            "bad version-3 header: config: unknown field double_click_polcy"),
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
                              "bad version-3 header: tags ['singlet', 'attack'] here, "
                              "['attack', 'singlet'] for its config"),
    # the header is the bytes its writer writes, or nothing
    "json-with-spaces": (lambda d, n: d.replace(b'{"code_bytes":2,', b'{"code_bytes": 2, ', 1),
                         "bad version-3 header: not byte for byte the JSON its writer writes"),
    "unsorted-keys": (lambda d, n: d.replace(b'{"code_bytes":2,', b"{", 1).replace(
        b'"tool_version"', b'"code_bytes":2,"tool_version"', 1),
        "bad version-3 header: not byte for byte the JSON its writer writes"),
    "defaulted-field-left-out": (lambda d, n: with_meta(d, config={
        "rounds": n, "seed": 17, "source": {"kind": "attack_mixture", "p": 0.7},
        "eve": {"kind": "none"}}),
        "bad version-3 header: config.double_click_policy None here, 'assign' for its config"),
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
    result = CliRunner().invoke(main, ["replay", "--transcript", str(path)])
    assert result.exit_code == 2
    assert f"--transcript: {message.rstrip('…')}" in result.stderr


@pytest.mark.parametrize("tags,code,message", [
    (["singlet"], double_click_code(), "round 0: row code 270 has probability 0 under the "
                                       "header's config"),
    (["attack"], 0, "bad version-3 header: tags ['attack'] here, ['singlet'] for its config"),
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


@pytest.mark.parametrize("read_bytes", [97, 1000, _replay.READ_BYTES])
def test_corrupted_v3_files_end_in_a_report_or_a_named_error(tmp_path, monkeypatch, read_bytes):
    # a transcript with one byte replaced, deleted or inserted: replay returns
    # a report whose checksum_ok says whether the digest still matches, or
    # raises a TranscriptError; both happen.  Most edits hit the header, and
    # nearly all of those are errors (a misspelt config key is one too), so
    # it takes 1000 edits for both counts to pass 10
    monkeypatch.setattr(_replay, "READ_BYTES", read_bytes)
    _, path, live = write_v3(tmp_path, rounds=60, seed=5)
    data = path.read_bytes()
    rng = np.random.default_rng(read_bytes)
    reports = errors = 0
    for _ in range(1000):
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
