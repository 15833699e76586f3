import dataclasses
import errno
import hashlib
import itertools
import json
import math
import os
import re
import stat
import threading

import numpy as np
import pytest

from spdcqkd import _kernels, protocol
from spdcqkd.attack import AttackConfig
from spdcqkd.fock import FockError, StateVector, attack_registry
from spdcqkd.optics import DA, HV, BasisAngle, rotate_polarization
from spdcqkd.protocol import (AttackMixture, ConfigError, InterceptResend,
                              SessionConfig, SingletSource, SpdcSource,
                              SplitAttack, TranscriptError, config_from_dict,
                              config_to_dict, eve_mutual_information, replay,
                              run_session)
from spdcqkd.security import LeakBound, binary_entropy
from spdcqkd.source import SpdcParams

from test_golden import TABLE_EVES, TABLE_SOURCES, text_form

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


def test_config_to_dict_rejects_a_basis_it_cannot_name():
    cfg = SessionConfig(rounds=5, seed=2, source=SingletSource(),
                        eve=InterceptResend(BasisAngle(0.3)))
    with pytest.raises(ConfigError, match="eve.basis at angle 0.3"):
        config_to_dict(cfg)
    same_as_da = dataclasses.replace(cfg, eve=InterceptResend(BasisAngle(math.pi / 4)))
    assert config_to_dict(same_as_da)["eve"] == {"kind": "intercept", "basis": "DA"}


def test_session_refuses_a_transcript_whose_header_cannot_name_its_config(tmp_path):
    # the session itself runs; only a transcript, bound to its config, cannot be written
    cfg = SessionConfig(rounds=5, seed=2, source=SingletSource(),
                        eve=InterceptResend(BasisAngle(0.3)))
    assert run_session(cfg).rounds == 5
    path = tmp_path / "t.v3"
    with pytest.raises(ConfigError, match="eve.basis at angle 0.3"):
        run_session(cfg, transcript_path=path)
    assert not path.exists()


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


# one config of each source kind and each eavesdropper kind; the SPDC source
# keeps at most one pair, which intercept-resend takes
KIND_CONFIGS = [SessionConfig(rounds=10, seed=1, source=source, eve=eve,
                              double_click_policy="discard")
                for source in (SingletSource(), SpdcSource(SpdcParams(0.3, 0.2, n_max=1)),
                               AttackMixture(0.4))
                for eve in (None, SplitAttack(AttackConfig(max_attempts=3)), InterceptResend(DA))]


def leaves(d, path=()):
    """(path of keys, value) of every leaf of a nested dict."""
    for key, value in d.items():
        if isinstance(value, dict):
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,), value


def with_leaf(d, path, value):
    """A copy of the nested dict d with the leaf at `path` set to value."""
    d = json.loads(json.dumps(d))
    inner = d
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return d


def misspelt_twins():
    """(id, dotted name, config dict) of a misspelt twin beside every field of
    the dict of each KIND_CONFIGS config: at the top, in `source` and in `eve`."""
    for doc in map(config_to_dict, KIND_CONFIGS):
        for path, _ in leaves(doc):
            twin = path[:-1] + (path[-1] + "_",)
            name = ".".join(twin)
            yield (f"{doc['source']['kind']}-{doc['eve']['kind']}-{name}", name,
                   with_leaf(doc, twin, 0))


MISSPELT_TWINS = list(misspelt_twins())


@pytest.mark.parametrize("path,doc", [
    ("double_click_polcy", {"double_click_polcy": "discard"}),
    ("source.nmax", {"source": {"kind": "spdc", "tanh_xi": 0.3, "nmax": 6}}),
    ("source.tanh_xi", {"source": {"kind": "singlet", "tanh_xi": 0.3}}),
    ("eve.max_attempt", {"eve": {"kind": "split", "max_attempt": 3}}),
    ("eve.mode", {"eve": {"kind": "intercept", "mode": "analytic"}}),
] + [(path, doc) for _, path, doc in MISSPELT_TWINS],
    ids=["top", "source", "other-kind", "eve", "mode-off-split"]
    + [name for name, _, _ in MISSPELT_TWINS])
def test_config_from_dict_refuses_unknown_fields(path, doc):
    # a misspelt field would take its default unseen; only a split's retired mode
    # is ignored
    base = {"rounds": 10, "seed": 1, "source": {"kind": "spdc", "tanh_xi": 0.3, "n_max": 6}}
    with pytest.raises(ConfigError, match=rf"^unknown field {re.escape(path)}$"):
        config_from_dict({**base, **doc})


def other_values(value):
    """Other values of the type of a config dict's field, valid or not."""
    if isinstance(value, str):
        return [token for token in ("assign", "discard", "singlet", "spdc", "attack_mixture",
                                    "none", "split", "intercept", "random", "HV", "DA")
                if token != value]
    return [value + 1] if isinstance(value, int) else [value + 0.25]


def test_config_from_dict_reads_every_field_config_to_dict_writes():
    # a field changed to another value that is valid beside the others changes
    # the config: no field that is written is ignored on read
    changed = set()
    for config in KIND_CONFIGS:
        doc = config_to_dict(config)
        for path, value in leaves(doc):
            for other in other_values(value):
                try:
                    got = config_from_dict(with_leaf(doc, path, other))
                except ConfigError:
                    continue
                assert got != config, (config, path, other)
                changed.add(".".join(path))
    # every other source kind needs fields of its own: no kind replaces another alone
    written = {".".join(path) for config in KIND_CONFIGS
               for path, _ in leaves(config_to_dict(config))}
    assert changed == written - {"source.kind"}


@pytest.mark.parametrize("source_name,source", TABLE_SOURCES, ids=[n for n, _ in TABLE_SOURCES])
@pytest.mark.parametrize("eve_name,eve", TABLE_EVES, ids=[n for n, _ in TABLE_EVES])
def test_config_from_dict_reads_what_the_build_refuses(source_name, source, eve_name, eve):
    # a dict is read whatever its physics; a config the template build
    # refuses (intercept-resend on multi-pair terms) fails at its first use,
    # with the build's own error
    config = SessionConfig(rounds=1, seed=0, source=source, eve=eve)
    assert config_from_dict(config_to_dict(config)) == config
    try:
        protocol._build_tables(config)
    except FockError as exc:
        for use in (run_session, eve_mutual_information):
            with pytest.raises(FockError) as raised:
                use(config)
            assert type(raised.value) is type(exc) and str(raised.value) == str(exc)


# -- per-round uniform stream -----------------------------------------------


def test_uniform_blocks_are_chunk_invariant():
    full = protocol._uniform_block(99, 0, 100)
    assert np.array_equal(full[37:], protocol._uniform_block(99, 37, 63))
    assert np.array_equal(full[5:6], protocol._uniform_block(99, 5, 1))


# (seed, start round, count) of draws in an order that advances a thread's
# generator, goes back, switches seed and jumps far ahead
DRAW_ORDER = [(5, 0, 10), (5, 10, 7), (5, 40, 3), (5, 20, 5), (6, 20, 5), (5, 25, 2),
              (2**127 + 3, 2**40, 4), (2**127 + 3, 2**40 + 4, 4), (5, 0, 1)]


def fresh_philox(seed, start):
    bg = np.random.Philox(key=seed)
    bg.advance(start * protocol.DRAWS_PER_ROUND // 4)
    return bg


def fresh_words(seed, start, count):
    words = fresh_philox(seed, start).random_raw(count * protocol.DRAWS_PER_ROUND)
    return words.reshape(count, protocol.DRAWS_PER_ROUND)


def test_uniform_blocks_do_not_depend_on_the_draws_before():
    """A thread's generator is advanced forward, rebuilt otherwise; every
    draw equals the words of a fresh generator, in any order, with or
    without `out`, and after a draw that failed."""
    for i, (seed, start, count) in enumerate(DRAW_ORDER):
        out = np.empty((count, protocol.DRAWS_PER_ROUND), dtype=np.uint64) if i % 2 else None
        w = protocol._uniform_block(seed, start, count, out)
        assert out is None or w is out
        assert w.dtype == np.uint64 and w.shape == (count, protocol.DRAWS_PER_ROUND)
        assert np.array_equal(w, fresh_words(seed, start, count)), (seed, start, count)
    with pytest.raises(ValueError):
        protocol._uniform_block(5, 1, 10, np.empty((3, protocol.DRAWS_PER_ROUND), np.uint64))
    assert np.array_equal(protocol._uniform_block(5, 11, 4), fresh_words(5, 11, 4))


def test_words_are_the_stream_the_golden_records_were_drawn_from():
    # the sampler reads a word w as the draw (w >> 11) * 2**-53: the double
    # `Generator.random` makes of the same word, which the golden records
    # were sampled from
    for seed, start, count in DRAW_ORDER:
        want = np.random.Generator(fresh_philox(seed, start)).random(
            (count, protocol.DRAWS_PER_ROUND))
        w = protocol._uniform_block(seed, start, count)
        assert np.array_equal((w >> 11) * 2.0**-53, want), (seed, start, count)


@pytest.mark.parametrize("shape,dtype", [
    ((2, 10, protocol.DRAWS_PER_ROUND), np.uint64),  # would broadcast the words
    ((10, protocol.DRAWS_PER_ROUND), np.float64),  # would convert the words
    ((10, protocol.DRAWS_PER_ROUND), np.int64),  # would wrap the words above 2**63
])
def test_uniform_block_rejects_a_wrong_out(shape, dtype):
    out = np.zeros(shape, dtype=dtype)
    with pytest.raises(ValueError, match="out must be uint64 of shape"):
        protocol._uniform_block(5, 1, 10, out)
    assert not out.any()
    assert np.array_equal(protocol._uniform_block(5, 1, 10), fresh_words(5, 1, 10))


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
    assert eve_mutual_information(cfg) > 0.0


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


@pytest.mark.parametrize("party", ["E1", "E2"])
def test_outcome_rows_refuse_an_eavesdropper_double_click(party):
    """A stored photon in each slot of an eavesdropper channel double-clicks
    in HV, which gives the channel's column no bit: the table build refuses
    it.  In DA the pair interferes into one slot, which reads as a bit."""
    e = [1, 1, 0, 0] if party == "E1" else [0, 0, 1, 1]
    r = 1.0 / math.sqrt(2.0)
    state = StateVector(attack_registry(), {(0, 1, 1, 0, *e): r, (1, 0, 0, 1, *e): -r})
    for b_basis in (HV, DA):
        with pytest.raises(FockError, match="eavesdropper channel has a double click"):
            protocol._outcome_rows(state, HV, b_basis, -1)
        state_a = rotate_polarization(state, "A", DA)
        rows = protocol._outcome_rows(state_a, DA, b_basis, -1)
        assert {key[2 if party == "E1" else 3] for key, _ in rows} == {0, 1}


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
    q, n, z = rep.qber_hat, rep.sifted_length, 1.96
    center = (q + z * z / (2 * n)) / (1 + z * z / n)
    half = z / (1 + z * z / n) * math.sqrt(q * (1 - q) / n + z * z / (4 * n * n))
    assert rep.qber_ci95 == pytest.approx([center - half, center + half])
    assert 0.0 < rep.qber_ci95[0] < q < rep.qber_ci95[1] < 1.0
    assert rep.leak.bound == binary_entropy(q)
    # no errors: the interval keeps a width, z^2 / (n + z^2), where Wald's is 0
    rep = run_session(SessionConfig(rounds=20000, seed=2, source=SingletSource()))
    n = rep.sifted_length
    assert rep.error_count == 0 and n > 0
    assert rep.qber_ci95[0] == 0.0
    assert rep.qber_ci95[1] == pytest.approx(z * z / (n + z * z))


def test_report_to_dict_is_json_serializable():
    cfg = SessionConfig(rounds=100, seed=1, source=SingletSource())
    d = run_session(cfg).to_dict()
    again = json.loads(json.dumps(d, sort_keys=True))
    assert again["rounds"] == 100
    assert set(again["leak"]) == {"eve_info", "bound", "margin"}


# -- tally --------------------------------------------------------------------


@dataclasses.dataclass
class ReferenceTally:
    """The session counts as separate running counters."""

    rounds: int = 0
    sifted: int = 0
    errors: int = 0
    double_clicks: int = 0
    no_clicks: int = 0
    source_counts: dict = dataclasses.field(default_factory=dict)
    basis_sifted: list = dataclasses.field(default_factory=lambda: [0, 0])
    basis_errors: list = dataclasses.field(default_factory=lambda: [0, 0])

    def report(self, eve_info, checksum_ok=True):
        qber = self.errors / self.sifted if self.sifted else 0.0
        bound = binary_entropy(qber)
        per_basis = {}
        for basis, name in enumerate(("HV", "DA")):
            n, e = self.basis_sifted[basis], self.basis_errors[basis]
            per_basis[name] = {"sifted": n, "errors": e, "qber": (e / n if n else 0.0)}
        return protocol.SessionReport(
            rounds=self.rounds, sifted_length=self.sifted, error_count=self.errors,
            qber_hat=qber, qber_ci95=protocol._wilson_interval(self.errors, self.sifted),
            double_click_count=self.double_clicks, no_click_count=self.no_clicks,
            source_counts=dict(sorted(self.source_counts.items())), per_basis=per_basis,
            leak=LeakBound(eve_info, bound, bound - eve_info), checksum_ok=checksum_ok)


def reference_tally_update(tally, rec, tags, scen_emission):
    """`_Tally.update` as one masked count per field of a ReferenceTally."""
    tally.rounds += rec.shape[0]
    sif = rec[:, 7] == 1
    err = sif & (rec[:, 5] != rec[:, 6])
    tally.sifted += int(sif.sum())
    tally.errors += int(err.sum())
    tally.double_clicks += int((rec[:, 3] == 3).sum()) + int((rec[:, 4] == 3).sum())
    tally.no_clicks += int((rec[:, 3] == 0).sum()) + int((rec[:, 4] == 0).sum())
    counts = np.bincount(scen_emission[rec[:, 0]], minlength=len(tags))
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
    template, _, drawn = protocol._simulate(config)
    for _, idx in drawn:
        rec = template.rows[idx]
        as_read = rec.copy()  # as a replay reads it: column 0 holds the emission
        as_read[:, 0] = template.scen_emission[rec[:, 0]]
        chunks += [(rec, template.scen_emission),
                   (as_read, np.arange(len(template.emission_tags)))]
    crafted = every_tallied_field()
    scen_emission = np.array([1, 0, 0, 1], dtype=np.int8)
    for tags, tag_chunks in ((template.emission_tags, chunks),
                             (["attack", "singlet"], [(crafted, scen_emission)]),
                             (["a", "b", "c", "d"], [(crafted, np.arange(4))])):
        got, want = protocol._Tally(tags), ReferenceTally()
        for rec, emission in tag_chunks:
            got.update(protocol._row_codes(rec, emission))
            reference_tally_update(want, rec, tags, emission)
            assert got.report(0.25) == want.report(0.25)
    # weighted: record i stands for weights[i] rounds (zero included)
    weights = np.random.default_rng(7).integers(0, 5, crafted.shape[0])
    got, want = protocol._Tally(["attack", "singlet"]), ReferenceTally()
    got.update(protocol._row_codes(crafted, scen_emission), weights)
    reference_tally_update(want, np.repeat(crafted, weights, axis=0), ["attack", "singlet"],
                           scen_emission)
    assert got.report(0.25) == want.report(0.25)


# one block; 2550 rounds in blocks of 100 and pieces of 30, drawn on the
# calling thread or drawn ahead
SESSION_SHAPES = {"one-chunk": (protocol.CHUNK_ROUNDS, None), "chunks-serial": (2550, False),
                  "chunks-drawn-ahead": (2550, True)}


@pytest.mark.parametrize("policy", ["assign", "discard"])
@pytest.mark.parametrize("shape", SESSION_SHAPES)
def test_live_tally_from_slot_counts_equals_record_tally(monkeypatch, shape, policy):
    rounds, draw_ahead = SESSION_SHAPES[shape]
    if draw_ahead is not None:
        monkeypatch.setattr(protocol, "CHUNK_ROUNDS", 100)
        monkeypatch.setattr(protocol, "DRAW_PIECE_ROUNDS", 30)
        monkeypatch.setattr(protocol, "_draws_ahead", lambda rounds: draw_ahead)
    config = SessionConfig(rounds=rounds, seed=8, source=SpdcSource(SpdcParams(0.4)),
                           eve=SplitAttack(AttackConfig(max_attempts=3)),
                           double_click_policy=policy)
    template, counts, drawn = protocol._simulate(config)
    from_records, want = protocol._Tally(template.emission_tags), ReferenceTally()
    starts = []
    for start, idx in drawn:
        rec = template.rows[idx]
        starts.append(start)
        from_records.update(protocol._row_codes(rec, template.scen_emission))
        reference_tally_update(want, rec, template.emission_tags, template.scen_emission)
    assert len(starts) == (1 if draw_ahead is None else 26)
    live = protocol._Tally(template.emission_tags)
    live.update(template.codes, counts)
    eve_info = template.eve_information
    assert live.report(eve_info) == from_records.report(eve_info) == want.report(eve_info)
    report = live.report(eve_info)
    assert report.double_click_count > 0 and report.error_count > 0
    assert report == run_session(config)


# -- eavesdropper information -----------------------------------------------


@pytest.mark.parametrize("policy", ["assign", "discard"])
def test_drawn_template_rows_match_exact_probabilities(policy):
    """Monte Carlo against the exact chain row by row: on the paper scenario,
    every template row's count is within z = 6 of its exact probability,
    and a row of probability 0 is never drawn."""
    config = SessionConfig(rounds=200000, seed=21, source=SpdcSource(SpdcParams(0.3)),
                           eve=SplitAttack(AttackConfig(max_attempts=3)),
                           double_click_policy=policy)
    session, counts, drawn = protocol._simulate(config)
    for _ in drawn:
        pass
    keys, template = _kernels.lookup_tables(
        session.grp_off, session.grp_len, session.row_cum, session.row_a, session.row_b,
        session.row_e1, session.row_e2, policy == "assign")
    assert np.array_equal(session.codes, protocol._row_codes(template, session.scen_emission))
    prob = _kernels.template_probabilities(session.scen_cum, keys.imag)
    assert prob.shape == counts.shape
    assert prob.sum() == pytest.approx(1.0, abs=1e-12)
    assert counts.sum() == config.rounds
    assert not counts[prob == 0.0].any()
    expected = config.rounds * prob
    tested = expected >= 25
    assert tested.sum() > 100
    z = (counts[tested] - expected[tested]) / np.sqrt(expected[tested] * (1.0 - prob[tested]))
    assert np.abs(z).max() < 6.0


def test_eve_mutual_information_full_attack(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("the exact information draws no rounds")

    monkeypatch.setattr(protocol, "_uniform_block", no_draws)
    monkeypatch.setattr(_kernels, "sample_rounds", no_draws)
    for rounds, seed in ((1, 0), (100000, 5)):
        mi = eve_mutual_information(SessionConfig(rounds=rounds, seed=seed,
                                                  source=AttackMixture(1.0)))
        assert type(mi) is float
        assert abs(mi - EVE_MI_P1) < 1e-12
        assert mi < 0.4689955935892812  # under the Holevo bound


def reference_eve_information(config):
    """I(Alice bit; E1, E2) over sifted rounds from the outcome rows of
    `_build_tables`, with the sift and double-click rules written out."""
    tables = protocol._build_tables(config)
    scen = np.diff(tables.scen_cum, prepend=0.0)
    joint = {}
    for g, (off, n) in enumerate(zip(tables.grp_off.tolist(), tables.grp_len.tolist())):
        if g // 2 % 2 != g % 2:
            continue  # the bases differ
        cum = [0.0] + tables.row_cum[off:off + n].tolist()
        for r in range(n):
            a, b = int(tables.row_a[off + r]), int(tables.row_b[off + r])
            if 0 in (a, b) or (config.double_click_policy == "discard" and 3 in (a, b)):
                continue
            p = scen[g // 4] / 4 * (cum[r + 1] - cum[r])
            for bit, w in ((0, 0.5), (1, 0.5)) if a == 3 else ((a - 1, 1.0),):
                key = (bit, int(tables.row_e1[off + r]), int(tables.row_e2[off + r]))
                joint[key] = joint.get(key, 0.0) + p * w
    total = sum(joint.values())
    pa, pe = {}, {}
    for (a, e1, e2), p in joint.items():
        pa[a] = pa.get(a, 0.0) + p / total
        pe[e1, e2] = pe.get((e1, e2), 0.0) + p / total
    return sum(p / total * math.log2(p / total / (pa[a] * pe[e1, e2]))
               for (a, e1, e2), p in joint.items() if p > 0.0)


@pytest.mark.parametrize("policy", ["assign", "discard"])
def test_eve_mutual_information_matches_reference(policy):
    configs = [(SpdcSource(SpdcParams(0.3)), SplitAttack(AttackConfig(max_attempts=3))),
               (SpdcSource(SpdcParams(0.5, n_max=3)), SplitAttack(AttackConfig(max_attempts=1))),
               (AttackMixture(0.4), InterceptResend()),
               (SingletSource(), InterceptResend(HV))]
    for source, eve in configs:
        config = SessionConfig(rounds=1, seed=0, source=source, eve=eve,
                               double_click_policy=policy)
        assert eve_mutual_information(config) == pytest.approx(
            reference_eve_information(config), rel=1e-12, abs=1e-15)


def test_eve_mutual_information_no_eavesdropper():
    # SPDC at tanh_xi 0 emits vacuum only: nothing sifts
    for source in (SingletSource(), SpdcSource(SpdcParams(0.3)), SpdcSource(SpdcParams(0.0))):
        assert eve_mutual_information(SessionConfig(rounds=5000, seed=5, source=source)) == 0.0


def eve_rows(*cells):
    """Template records of (sifted flag, Alice bit, E1, E2) cells; every
    other column 0."""
    rows = np.zeros((len(cells), _kernels.N_COLS), dtype=np.int8)
    rows[:, [7, 5, 8, 9]] = cells
    return rows


def test_eve_information_of_a_record_independent_of_the_bit_is_zero():
    # a record of one symbol, whatever the weights; rows that do not sift
    # are left out, however they correlate
    rows = eve_rows((1, 0, -1, -1), (1, 1, -1, -1), (1, 0, -1, -1), (1, 1, -1, -1),
                    (0, 0, 0, -1), (0, 1, 1, -1))
    assert protocol._eve_information(rows, np.array([0.1, 0.3, 0.2, 0.7 / 3, 0.1, 0.1])) == 0.0
    # a record of two symbols, drawn independently of the bit (dyadic weights)
    rows = eve_rows((1, 0, 0, -1), (1, 0, 1, -1), (1, 1, 0, -1), (1, 1, 1, -1))
    assert protocol._eve_information(rows, np.array([1.0, 3.0, 3.0, 9.0]) / 16) == 0.0
    # and with weights that are not dyadic, whose sum rounds a few ulps below 0
    assert protocol._eve_information(rows, np.array([0.1 * 0.3, 0.1 * 0.7, 0.9 * 0.3,
                                                     0.9 * 0.7])) == 0.0


def test_eve_information_with_nothing_sifted_is_zero():
    rows = eve_rows((0, 0, 0, -1), (0, 1, 1, -1), (0, -1, -1, -1))
    assert protocol._eve_information(rows, np.array([0.25, 0.25, 0.5])) == 0.0
    assert protocol._eve_information(np.zeros((0, _kernels.N_COLS), dtype=np.int8),
                                     np.zeros(0)) == 0.0


@pytest.mark.parametrize("weights", [(0.5,), (0.1, 0.2), (0.3, 0.05, 0.15), (0.7 / 3, 0.1)])
def test_eve_information_of_a_tap_that_reads_the_bit_is_one(weights):
    # E1 is Alice's bit on every sifted row, each bit of weight sum(weights);
    # E2 and the rows that do not sift do not matter
    cells = [(1, bit, bit, e2) for bit in (0, 1) for e2, _ in zip((-1, 0, 1), weights)]
    rows = eve_rows(*cells, (0, 0, 1, -1))
    assert protocol._eve_information(rows, np.array(weights * 2 + (0.2,))) == 1.0


def test_eve_information_ignores_rows_of_probability_zero():
    # rows of probability 0 in cells of their own and in cells already held
    zero = eve_rows((1, 0, 1, 0), (1, 1, 0, 1), (1, 0, 0, -1), (1, 1, -1, -1))
    template = protocol._session_template(SessionConfig(
        rounds=1, seed=0, source=SpdcSource(SpdcParams(0.3)),
        eve=SplitAttack(AttackConfig(max_attempts=3))))
    for rows, prob in ((eve_rows((1, 0, 0, -1), (1, 1, 1, -1), (1, 1, 0, -1)),
                        np.array([0.25, 0.5, 0.25])),
                       (template.rows, template.probabilities)):
        want = protocol._eve_information(rows, prob).hex()
        assert want != (0.0).hex()
        for where in (0, rows.shape[0] // 2, rows.shape[0]):
            got = protocol._eve_information(np.insert(rows, where, zero, axis=0),
                                            np.insert(prob, where, np.zeros(len(zero))))
            assert got.hex() == want


def test_report_leak_is_the_exact_information_of_its_config():
    # intercept-resend in a random basis: Eve's bit is Alice's with
    # probability 3/4, so I = 1 - h(1/4), while the QBER of 1/4 spends h(1/4)
    cfg = SessionConfig(rounds=20000, seed=7, source=SingletSource(), eve=InterceptResend())
    rep = run_session(cfg)
    assert rep.leak.eve_info == eve_mutual_information(cfg)
    assert rep.leak.eve_info == pytest.approx(1.0 - binary_entropy(0.25), rel=1e-12)
    assert rep.leak.bound == binary_entropy(rep.qber_hat)
    assert rep.leak.bound == pytest.approx(0.812, abs=1e-3)
    assert rep.leak.margin == rep.leak.bound - rep.leak.eve_info


def test_report_leak_is_zero_without_an_eavesdropper():
    # multi-pair emissions err, but with no eavesdropper nobody learns a bit
    rep = run_session(SessionConfig(rounds=20000, seed=7, source=SpdcSource(SpdcParams(0.3))))
    assert rep.error_count > 0
    assert rep.leak.eve_info == 0.0
    assert rep.leak.bound == rep.leak.margin == binary_entropy(rep.qber_hat)


# -- transcript and replay --------------------------------------------------


def transcript_session(tmp_path, **overrides):
    """(config, path of its version-3 transcript, live report)."""
    kw = dict(rounds=3000, seed=17, source=AttackMixture(0.7))
    kw.update(overrides)
    cfg = SessionConfig(**kw)
    path = tmp_path / "session.v3"
    report = run_session(cfg, transcript_path=path)
    return cfg, path, report


def test_transcript_layout(tmp_path):
    _, path, _ = transcript_session(tmp_path)
    lines = text_form(path).decode("ascii").splitlines()
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


def test_v3_transcript_layout(tmp_path):
    cfg, path, _ = transcript_session(tmp_path)
    data = path.read_bytes()
    magic, meta, rest = data.split(b"\n", 2)
    assert magic == b"spdcqkd-transcript 3"
    assert json.loads(meta) == {"config": config_to_dict(cfg), "tool_version": "0.1.0",
                                "tags": ["attack", "singlet"], "code_bytes": 2}
    assert meta == json.dumps(json.loads(meta), sort_keys=True, separators=(",", ":")).encode()
    assert len(rest) == 2 * 3000 + 32
    assert rest[-32:] == hashlib.sha256(data[:-32]).digest()
    # the codes are the row codes of the rounds the CSV text form lists
    codes = np.frombuffer(rest[:-32], dtype="<u2")
    template, _, blocks = protocol._simulate(cfg)
    want = np.concatenate([protocol._row_codes(template.rows[idx], template.scen_emission)
                           for _, idx in blocks])
    assert np.array_equal(codes, want)
    text = text_form(path).decode("ascii").splitlines()[1:-1]
    assert [row.split(",", 2)[1] for row in text] == [("attack", "singlet")[c // protocol._CODES]
                                                     for c in codes]


def test_replay_reproduces_live_report(tmp_path):
    cfg, path, live = transcript_session(tmp_path)
    assert replay(cfg, path) == live
    assert replay(None, path) == live  # config is optional


def flip_a_sifted_round(path, rounds):
    """Rewrite the first sifted round in which Bob's detector clicked once as
    its error twin, Bob's outcome and key bit flipped; the digest is kept."""
    data = path.read_bytes()
    body = len(data) - 32 - 2 * rounds
    codes = np.frombuffer(data[body:-32], dtype="<u2").copy()
    # [Alice basis, Bob basis, Alice kind, Bob kind, sifted, Alice bit, Bob bit]:
    # kinds b0 and b1 are 1 and 2, bit tokens '0' and '1' are 1 and 2
    fields = list(np.unravel_index(codes % protocol._CODES, protocol._TAIL_SHAPE))
    i = int(np.flatnonzero((fields[4] == 1) & np.isin(fields[3], (1, 2)))[0])
    twin = [int(f[i]) for f in fields]
    twin[3], twin[6] = 3 - twin[3], 3 - twin[6]
    codes[i] = (codes[i] // protocol._CODES * protocol._CODES
                + np.ravel_multi_index(twin, protocol._TAIL_SHAPE))
    path.write_bytes(data[:body] + codes.tobytes() + data[-32:])


def test_replay_flags_edited_outcome(tmp_path):
    cfg, path, live = transcript_session(tmp_path)
    flip_a_sifted_round(path, cfg.rounds)
    rep = replay(cfg, path)
    assert not rep.checksum_ok
    assert rep.qber_hat != live.qber_hat


def test_replay_detects_truncation(tmp_path):
    _, path, _ = transcript_session(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(TranscriptError,
                       match="^header names 3000 rounds, body holds 1437$"):
        replay(None, path)


def test_replay_rejects_missing_header(tmp_path):
    _, path, _ = transcript_session(tmp_path)
    path.write_bytes(path.read_bytes().split(b"\n", 2)[2])  # the codes and the digest
    with pytest.raises(TranscriptError, match="^not a version-3 transcript"):
        replay(None, path)


def test_replay_rejects_sifted_round_without_bits(tmp_path):
    cfg, path, _ = transcript_session(tmp_path)
    data = path.read_bytes()
    body = len(data) - 32 - 2 * cfg.rounds
    # sifted in HV with single clicks, both bit tokens '-'
    code = np.ravel_multi_index((0, 0, 1, 1, 1, 0, 0), protocol._TAIL_SHAPE)
    path.write_bytes(data[:body] + int(code).to_bytes(2, "little") + data[body + 2:])
    with pytest.raises(TranscriptError, match="^round 0: sifted round missing a key bit$"):
        replay(None, path)


def test_replay_checks_config_round_count(tmp_path):
    _, path, _ = transcript_session(tmp_path)
    other = SessionConfig(rounds=5, seed=17, source=AttackMixture(0.7))
    with pytest.raises(TranscriptError, match="^config differs from the transcript's in rounds: "
                                              "5 here, 3000 in the transcript$"):
        replay(other, path)


def test_replay_checks_every_config_field_of_a_v3_header(tmp_path):
    cfg, v3, _ = transcript_session(tmp_path)
    for other, name in [(dataclasses.replace(cfg, seed=18), "seed"),
                        (dataclasses.replace(cfg, source=AttackMixture(0.6)), "source.p"),
                        (dataclasses.replace(cfg, source=SingletSource()), "source.kind"),
                        (dataclasses.replace(cfg, eve=InterceptResend(HV)), "eve.kind"),
                        (dataclasses.replace(cfg, double_click_policy="discard"),
                         "double_click_policy")]:
        with pytest.raises(TranscriptError, match=f"^config differs from the transcript's in "
                                                  f"{re.escape(name)}: "):
            replay(other, v3)
    unnamed = dataclasses.replace(cfg, eve=InterceptResend(BasisAngle(0.3)))
    with pytest.raises(TranscriptError, match="eve.basis at angle 0.3 has no dict form"):
        replay(unnamed, v3)


def test_session_with_spdc_source_writes_replayable_transcript(tmp_path):
    cfg = SessionConfig(rounds=2000, seed=23, source=SpdcSource(SpdcParams(0.4)),
                        double_click_policy="discard")
    path = tmp_path / "t.csv"
    live = run_session(cfg, transcript_path=path)
    assert replay(cfg, path) == live
    assert live.no_click_count > 0


def run_failing_session(monkeypatch, path):
    """A serial 3000-round singlet session, in blocks of 1000 rounds, whose
    second sampling call fails as a full disk would."""
    real = _kernels.sample_rounds
    calls = []

    def full_disk(*args):
        calls.append(args)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(*args)

    monkeypatch.setattr(protocol, "CHUNK_ROUNDS", 1000)
    monkeypatch.setattr(protocol, "_draws_ahead", lambda rounds: False)
    monkeypatch.setattr(_kernels, "sample_rounds", full_disk)
    with pytest.raises(OSError, match="No space left on device"):
        run_session(SessionConfig(rounds=3000, seed=17, source=SingletSource()), path)
    assert len(calls) == 2


def test_failed_session_leaves_no_transcript(monkeypatch, tmp_path):
    path = tmp_path / "failed.v3"
    run_failing_session(monkeypatch, path)
    assert not path.exists()


def test_failed_session_leaves_a_symlink_in_place(monkeypatch, tmp_path):
    link = tmp_path / "link.v3"
    link.symlink_to(tmp_path / "target.v3")
    run_failing_session(monkeypatch, link)
    assert link.is_symlink()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_failed_session_leaves_a_fifo_in_place(monkeypatch, tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = threading.Thread(target=fifo.read_bytes, daemon=True)
    reader.start()
    try:
        run_failing_session(monkeypatch, fifo)
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
