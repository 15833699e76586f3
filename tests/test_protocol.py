import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest

from spdcqkd import _kernels, _replay, protocol
from spdcqkd.attack import AttackConfig
from spdcqkd.fock import FockError
from spdcqkd.optics import DA, HV
from spdcqkd.protocol import (AttackMixture, ConfigError, InterceptResend,
                              SessionConfig, SingletSource, SpdcSource,
                              SplitAttack, TranscriptError, config_from_dict,
                              config_to_dict, eve_mutual_information, replay,
                              run_session)
from spdcqkd.source import SpdcParams

from test_golden import TABLE_EVES, TABLE_SOURCES

EVE_MI_P1 = 0.3983932542605314  # exact I(Alice; eavesdropper) for the full attack


def three_sigma(q, n):
    return 3.0 * math.sqrt(q * (1.0 - q) / n)


# -- configuration ----------------------------------------------------------


def test_config_validation():
    with pytest.raises(FockError):
        SessionConfig(rounds=0, seed=1, source=SingletSource())
    with pytest.raises(FockError):
        SessionConfig(rounds=10, seed=-1, source=SingletSource())
    with pytest.raises(FockError, match=r"seed must be < 2\*\*128"):
        SessionConfig(rounds=10, seed=2**128, source=SingletSource())
    assert run_session(SessionConfig(rounds=10, seed=2**128 - 1, source=SingletSource())).rounds == 10
    with pytest.raises(FockError):
        SessionConfig(rounds=10, seed=1, source=AttackMixture(1.2))
    with pytest.raises(FockError):
        SessionConfig(rounds=10, seed=1, source=SingletSource(),
                      double_click_policy="drop")


def test_config_dict_roundtrip():
    configs = [
        SessionConfig(rounds=5, seed=2, source=SingletSource()),
        SessionConfig(rounds=5, seed=2, source=SpdcSource(SpdcParams(0.2, 0.3, 3)),
                      eve=SplitAttack(AttackConfig(max_attempts=7))),
        SessionConfig(rounds=5, seed=2, source=AttackMixture(0.4),
                      eve=InterceptResend(DA), double_click_policy="discard"),
        SessionConfig(rounds=5, seed=2, source=SingletSource(),
                      eve=InterceptResend()),
    ]
    for cfg in configs:
        assert config_from_dict(config_to_dict(cfg)) == cfg


@pytest.mark.parametrize("mode", ["analytic", "monte_carlo"])
def test_config_ignores_removed_split_mode(mode):
    # eve.mode once chose between an exact and a sampled split and never
    # changed a session; configs that still carry it load as before
    doc = {"rounds": 4000, "seed": 3, "source": {"kind": "spdc", "tanh_xi": 0.3},
           "eve": {"kind": "split", "max_attempts": 3}}
    with_mode = json.loads(json.dumps(doc))
    with_mode["eve"]["mode"] = mode
    assert config_from_dict(with_mode) == config_from_dict(doc)
    assert (run_session(config_from_dict(with_mode)).to_dict()
            == run_session(config_from_dict(doc)).to_dict())


def test_config_from_dict_error_paths():
    with pytest.raises(ConfigError, match="rounds"):
        config_from_dict({"seed": 1, "source": {"kind": "singlet"}})
    with pytest.raises(ConfigError, match="source.kind"):
        config_from_dict({"rounds": 1, "seed": 1, "source": {}})
    with pytest.raises(ConfigError, match="source.tanh_xi"):
        config_from_dict({"rounds": 1, "seed": 1, "source": {"kind": "spdc"}})
    with pytest.raises(ConfigError, match="eve.basis"):
        config_from_dict({"rounds": 1, "seed": 1, "source": {"kind": "singlet"},
                          "eve": {"kind": "intercept", "basis": "XY"}})
    with pytest.raises(ConfigError):
        config_from_dict({"rounds": True, "seed": 1, "source": {"kind": "singlet"}})


@pytest.mark.parametrize("source_name,source", TABLE_SOURCES, ids=[n for n, _ in TABLE_SOURCES])
@pytest.mark.parametrize("eve_name,eve", TABLE_EVES, ids=[n for n, _ in TABLE_EVES])
def test_config_from_dict_rejects_what_table_build_rejects(source_name, source, eve_name, eve):
    config = SessionConfig(rounds=1, seed=0, source=source, eve=eve)
    try:
        protocol._build_tables(config)
    except FockError as exc:
        with pytest.raises(ConfigError, match=re.escape(str(exc))):
            config_from_dict(config_to_dict(config))
    else:
        assert config_from_dict(config_to_dict(config)) == config


# -- per-round uniform stream -----------------------------------------------


def test_uniform_blocks_are_chunk_invariant():
    full = protocol._uniform_block(99, 0, 100)
    assert np.array_equal(full[37:], protocol._uniform_block(99, 37, 63))
    assert np.array_equal(full[5:6], protocol._uniform_block(99, 5, 1))


def test_uniform_blocks_do_not_depend_on_the_draws_before():
    """A thread's generator is advanced forward, rebuilt otherwise; every
    draw equals one from a fresh generator, in any order, with or without
    `out`, and after a draw that failed."""
    def fresh(seed, start, count):
        bg = np.random.Philox(key=seed)
        bg.advance(start * protocol.DRAWS_PER_ROUND // 4)
        return np.random.Generator(bg).random((count, protocol.DRAWS_PER_ROUND))

    order = [(5, 0, 10), (5, 10, 7), (5, 40, 3), (5, 20, 5), (6, 20, 5), (5, 25, 2),
             (2**127 + 3, 2**40, 4), (2**127 + 3, 2**40 + 4, 4), (5, 0, 1)]
    for i, (seed, start, count) in enumerate(order):
        out = np.empty((count, protocol.DRAWS_PER_ROUND)) if i % 2 else None
        u = protocol._uniform_block(seed, start, count, out)
        assert out is None or u is out
        assert np.array_equal(u, fresh(seed, start, count)), (seed, start, count)
    with pytest.raises(ValueError):
        protocol._uniform_block(5, 1, 10, np.empty((3, protocol.DRAWS_PER_ROUND)))
    assert np.array_equal(protocol._uniform_block(5, 11, 4), fresh(5, 11, 4))


def test_uniform_blocks_differ_by_seed():
    assert not np.array_equal(protocol._uniform_block(1, 0, 4),
                              protocol._uniform_block(2, 0, 4))


# -- kernels ----------------------------------------------------------------


def test_fnv1a64_known_vectors():
    # standard FNV-1a 64-bit test vectors
    assert _kernels.fnv1a64(b"") == 0xCBF29CE484222325
    assert _kernels.fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert _kernels.fnv1a64(b"foobar") == 0x85944171F73967E8


def test_fnv1a64_chains_over_pieces():
    data = bytes(range(256)) * 3
    for cut in (0, 1, 500, len(data)):
        assert _kernels.fnv1a64(data[cut:], _kernels.fnv1a64(data[:cut])) == _kernels.fnv1a64(data)


# -- sessions ---------------------------------------------------------------


def test_singlet_session_is_error_free():
    cfg = SessionConfig(rounds=10000, seed=7, source=SingletSource())
    rep = run_session(cfg)
    assert rep.error_count == 0
    assert rep.qber_hat == 0.0
    assert rep.double_click_count == 0
    assert rep.no_click_count == 0
    assert abs(rep.sifted_length - 5000) < three_sigma(0.5, 10000) * 10000
    assert rep.source_counts == {"singlet": 10000}
    assert rep.leak.bound == 0.0
    assert rep.checksum_ok


def test_session_reports_are_deterministic(tmp_path):
    cfg = SessionConfig(rounds=4000, seed=13, source=AttackMixture(0.6))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = run_session(cfg, transcript_path=p1)
    r2 = run_session(cfg, transcript_path=p2)
    assert r1 == r2
    assert p1.read_bytes() == p2.read_bytes()


def test_chunking_does_not_change_results(monkeypatch):
    cfg = SessionConfig(rounds=5000, seed=21, source=AttackMixture(0.5))
    whole = run_session(cfg)
    monkeypatch.setattr(protocol, "CHUNK_ROUNDS", 777)
    chunked = run_session(cfg)
    assert whole == chunked


def test_attack_mixture_qber_converges():
    for p, seed in ((1.0, 7), (0.5, 8), (0.3, 9)):
        cfg = SessionConfig(rounds=100000, seed=seed, source=AttackMixture(p))
        rep = run_session(cfg)
        q = p / 6.0
        assert abs(rep.qber_hat - q) < three_sigma(q, rep.sifted_length)
        assert rep.double_click_count == 0  # post-attack rounds carry 1 photon/party


def test_attack_mixture_source_counts():
    cfg = SessionConfig(rounds=50000, seed=3, source=AttackMixture(0.3))
    rep = run_session(cfg)
    n_attack = rep.source_counts["attack"]
    assert rep.source_counts["singlet"] + n_attack == 50000
    assert abs(n_attack - 15000) < three_sigma(0.3, 50000) * 50000


def test_per_basis_breakdown_sums_to_totals():
    cfg = SessionConfig(rounds=30000, seed=5, source=AttackMixture(1.0))
    rep = run_session(cfg)
    assert rep.per_basis["HV"]["sifted"] + rep.per_basis["DA"]["sifted"] == rep.sifted_length
    assert rep.per_basis["HV"]["errors"] + rep.per_basis["DA"]["errors"] == rep.error_count
    for basis in ("HV", "DA"):
        q = rep.per_basis[basis]["qber"]
        assert abs(q - 1 / 6) < three_sigma(1 / 6, rep.per_basis[basis]["sifted"])


def test_intercept_resend_random_basis_qber():
    cfg = SessionConfig(rounds=100000, seed=3, source=SingletSource(),
                        eve=InterceptResend())
    rep = run_session(cfg)
    assert abs(rep.qber_hat - 0.25) < three_sigma(0.25, rep.sifted_length)


def test_intercept_resend_fixed_basis_per_basis_qber():
    # eavesdropper locked to H/V: clean in H/V rounds, 50% errors in D/A rounds
    cfg = SessionConfig(rounds=100000, seed=4, source=SingletSource(),
                        eve=InterceptResend(HV))
    rep = run_session(cfg)
    hv, da = rep.per_basis["HV"], rep.per_basis["DA"]
    assert hv["errors"] == 0
    assert abs(da["qber"] - 0.5) < three_sigma(0.5, da["sifted"])
    assert abs(rep.qber_hat - 0.25) < three_sigma(0.25, rep.sifted_length)


def test_split_attack_on_spdc_source():
    cfg = SessionConfig(rounds=200000, seed=12,
                        source=SpdcSource(SpdcParams(0.3)), eve=SplitAttack())
    rep = run_session(cfg)
    assert rep.sifted_length > 0
    assert rep.error_count > 0  # two-pair emissions leak and err at rate 1/6
    assert rep.no_click_count > 0  # vacuum emissions never click
    mi, n, _ = eve_mutual_information(cfg)
    assert mi > 0.0


def test_split_attack_failure_branch_changes_tables():
    base = SpdcSource(SpdcParams(0.3))
    surely = SessionConfig(rounds=1, seed=0, source=base,
                           eve=SplitAttack(AttackConfig(max_attempts=20)))
    often = SessionConfig(rounds=1, seed=0, source=base,
                          eve=SplitAttack(AttackConfig(max_attempts=1)))
    t_surely = protocol._build_tables(surely)
    t_often = protocol._build_tables(often)
    # max_attempts=1 keeps a pass-through branch with probability 1/2
    assert len(t_often.scen_cum) > len(t_surely.scen_cum) or not np.allclose(
        t_often.scen_cum, t_surely.scen_cum)


def test_double_click_policy_changes_sifting():
    src = SpdcSource(SpdcParams(0.35))
    keep = run_session(SessionConfig(rounds=40000, seed=6, source=src))
    drop = run_session(SessionConfig(rounds=40000, seed=6, source=src,
                                     double_click_policy="discard"))
    assert keep.double_click_count == drop.double_click_count > 0
    assert drop.sifted_length < keep.sifted_length


def test_session_qber_hat_has_confidence_interval():
    cfg = SessionConfig(rounds=20000, seed=2, source=AttackMixture(1.0))
    rep = run_session(cfg)
    q, n = rep.qber_hat, rep.sifted_length
    assert rep.qber_ci95 == pytest.approx(1.96 * math.sqrt(q * (1 - q) / n))
    assert rep.leak.bound == pytest.approx(
        protocol.leak_vs_bound(min(1.0, 6.0 * q)).bound)


def test_report_to_dict_is_json_serializable():
    cfg = SessionConfig(rounds=100, seed=1, source=SingletSource())
    d = run_session(cfg).to_dict()
    again = json.loads(json.dumps(d, sort_keys=True))
    assert again["rounds"] == 100
    assert set(again["leak"]) == {"eve_info", "bound", "margin"}


# -- tally --------------------------------------------------------------------


def reference_tally_update(tally, rec, tags, scen_emission):
    """`_Tally.update` as one masked count per field."""
    tally.rounds += rec.shape[0]
    sif = rec[:, 7] == 1
    err = sif & (rec[:, 5] != rec[:, 6])
    tally.sifted += int(sif.sum())
    tally.errors += int(err.sum())
    tally.double_clicks += int((rec[:, 3] == 3).sum()) + int((rec[:, 4] == 3).sum())
    tally.no_clicks += int((rec[:, 3] == 0).sum()) + int((rec[:, 4] == 0).sum())
    emis = rec[:, 0] if scen_emission is None else scen_emission[rec[:, 0]]
    counts = np.bincount(emis, minlength=len(tags))
    for t, c in zip(tags, counts):
        if c:
            tally.source_counts[t] = tally.source_counts.get(t, 0) + int(c)
    for basis in (0, 1):
        m = sif & (rec[:, 1] == basis)
        tally.basis_sifted[basis] += int(m.sum())
        tally.basis_errors[basis] += int((m & err).sum())


def every_tallied_field():
    """One record per (scenario of four, Alice basis, kinds, bits with -1, sifted flag)."""
    rows = itertools.product(range(4), (0, 1), range(4), range(4), (-1, 0, 1), (-1, 0, 1),
                             (0, 1))
    rec = np.full((4 * 2 * 4 * 4 * 3 * 3 * 2, _kernels.N_COLS), -1, dtype=np.int8)
    rec[:, [0, 1, 3, 4, 5, 6, 7]] = np.array(list(rows), dtype=np.int8)
    rec[:, 2] = rec[:, 1]
    return rec


@pytest.mark.parametrize("config", [
    SessionConfig(rounds=70000, seed=4, source=AttackMixture(0.5),
                  eve=SplitAttack(AttackConfig(max_attempts=2))),
    SessionConfig(rounds=20000, seed=5, source=SpdcSource(SpdcParams(0.4)),
                  double_click_policy="discard"),
], ids=["mixture-split", "spdc-discard"])
def test_tally_matches_reference(config):
    chunks = []
    for _, rec, tables in protocol._simulate(config):
        chunks.append((rec, tables.emission_tags, tables.scen_emission))
        as_read = rec.copy()  # replay's records hold the emission, not the scenario
        as_read[:, 0] = tables.scen_emission[rec[:, 0]]
        chunks.append((as_read, tables.emission_tags, None))
    crafted = every_tallied_field()
    chunks += [(crafted, ["attack", "singlet"], np.array([1, 0, 0, 1], dtype=np.int8)),
               (crafted, ["a", "b", "c", "d"], None)]
    got, want = protocol._Tally(), protocol._Tally()
    for rec, tags, scen_emission in chunks:
        got.update(rec, tags, scen_emission)
        reference_tally_update(want, rec, tags, scen_emission)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)


# -- eavesdropper information -----------------------------------------------


def test_eve_mutual_information_full_attack():
    cfg = SessionConfig(rounds=100000, seed=5, source=AttackMixture(1.0))
    mi, n, _ = eve_mutual_information(cfg)
    assert n > 40000
    # statistical agreement with the exact value, and under the Holevo bound
    assert abs(mi - EVE_MI_P1) < 0.01
    assert mi < 0.4689955935892812 + 0.01


def test_eve_mutual_information_no_eavesdropper():
    cfg = SessionConfig(rounds=5000, seed=5, source=SingletSource())
    mi, n, counts = eve_mutual_information(cfg)
    assert mi == 0.0
    assert n > 0
    assert all(e1 == -1 and e2 == -1 for _, e1, e2 in counts)


# -- transcript and replay --------------------------------------------------


def transcript_session(tmp_path, **overrides):
    kw = dict(rounds=3000, seed=17, source=AttackMixture(0.7))
    kw.update(overrides)
    cfg = SessionConfig(**kw)
    path = tmp_path / "session.csv"
    report = run_session(cfg, transcript_path=path)
    return cfg, path, report


def test_transcript_layout(tmp_path):
    _, path, _ = transcript_session(tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("round_idx,source_tag,alice_basis,bob_basis,"
                        "alice_outcome,bob_outcome,sifted_flag,alice_bit,bob_bit")
    assert len(lines) == 3000 + 2
    assert re.fullmatch("#sha256=[0-9a-f]{64}", lines[-1])
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] in ("singlet", "attack")
    assert first[2] in ("HV", "DA") and first[3] in ("HV", "DA")
    assert first[4] in ("nc", "b0", "b1", "dc")
    assert first[6] in ("0", "1")


def test_replay_reproduces_live_report(tmp_path):
    cfg, path, live = transcript_session(tmp_path)
    assert replay(cfg, path) == live
    assert replay(None, path) == live  # config is optional


def test_replay_flags_edited_outcome(tmp_path):
    cfg, path, live = transcript_session(tmp_path)
    lines = path.read_text().splitlines()
    for i, ln in enumerate(lines):
        f = ln.split(",")
        if len(f) == 9 and f[6] == "1" and f[8] in "01":
            f[5] = "b0" if f[5] == "b1" else "b1"
            f[8] = "0" if f[8] == "1" else "1"
            lines[i] = ",".join(f)
            break
    path.write_text("\n".join(lines) + "\n")
    rep = replay(cfg, path)
    assert not rep.checksum_ok
    assert rep.qber_hat != live.qber_hat


def test_replay_detects_truncation(tmp_path):
    _, path, _ = transcript_session(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(TranscriptError) as err:
        replay(None, path)
    assert err.value.line is not None


def test_replay_reports_offending_line(tmp_path):
    _, path, _ = transcript_session(tmp_path)
    lines = path.read_text().splitlines()
    lines[5] = "4,attack,HV,HV,b9,b1,1,0,0"  # bad outcome token on round 4
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TranscriptError, match="line 6"):
        replay(None, path)


def test_replay_rejects_bad_round_index(tmp_path):
    _, path, _ = transcript_session(tmp_path)
    lines = path.read_text().splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TranscriptError, match="line 3"):
        replay(None, path)


def test_replay_rejects_missing_header(tmp_path):
    _, path, _ = transcript_session(tmp_path)
    body = path.read_text().splitlines()[1:]
    path.write_text("\n".join(body) + "\n")
    with pytest.raises(TranscriptError):
        replay(None, path)


def test_replay_rejects_sifted_round_without_bits(tmp_path):
    _, path, _ = transcript_session(tmp_path)
    lines = path.read_text().splitlines()
    f = lines[1].split(",")
    f[6], f[7], f[8] = "1", "-", "-"
    lines[1] = ",".join(f)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TranscriptError, match="line 2"):
        replay(None, path)


def test_replay_checks_config_round_count(tmp_path):
    cfg, path, _ = transcript_session(tmp_path)
    other = SessionConfig(rounds=5, seed=17, source=AttackMixture(0.7))
    with pytest.raises(TranscriptError, match="rounds"):
        replay(other, path)


def test_session_with_spdc_source_writes_replayable_transcript(tmp_path):
    cfg = SessionConfig(rounds=2000, seed=23, source=SpdcSource(SpdcParams(0.4)),
                        double_click_policy="discard")
    path = tmp_path / "t.csv"
    live = run_session(cfg, transcript_path=path)
    assert replay(cfg, path) == live
    assert live.no_click_count > 0


# -- version-1 transcripts (trailing '#fnv1a64=' line) -------------------------


def as_v1(path):
    """Rewrite a transcript with the version-1 trailer over the same body."""
    data = path.read_bytes()
    body = data[:data.rfind(b"#sha256=")]
    path.write_bytes(body + b"#fnv1a64=%016x\n" % _kernels.fnv1a64(body))
    return body


def test_replay_verifies_v1_transcript(tmp_path):
    cfg, path, live = transcript_session(tmp_path)
    as_v1(path)
    rep = replay(cfg, path)
    assert rep.checksum_ok
    assert rep == live


def test_replay_verifies_v1_transcript_over_many_reads(tmp_path, monkeypatch):
    monkeypatch.setattr(_replay, "READ_BYTES", 997)
    cfg, path, live = transcript_session(tmp_path)
    as_v1(path)
    assert replay(cfg, path) == live


def test_replay_flags_edited_v1_transcript(tmp_path):
    cfg, path, _ = transcript_session(tmp_path)
    body = as_v1(path)
    lines = path.read_text().splitlines()
    first = lines[1].split(",")
    first[2] = "DA" if first[2] == "HV" else "HV"
    lines[1] = ",".join(first)
    path.write_text("\n".join(lines) + "\n")
    assert path.read_bytes()[:len(body)] != body
    assert not replay(cfg, path).checksum_ok


@pytest.mark.parametrize("trailer", ["#fnv1a64=0451096dfad15bzz", "#fnv1a64=451096dfad15b9e",
                                     "#fnv1a64=", "#sha256=" + "g" * 64])
def test_replay_rejects_malformed_checksum(tmp_path, trailer):
    _, path, _ = transcript_session(tmp_path)
    lines = path.read_text().splitlines()
    lines[-1] = trailer
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TranscriptError, match=f"line {len(lines)}: malformed checksum"):
        replay(None, path)
