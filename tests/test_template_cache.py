"""The per-process cache of session templates (`protocol._session_template`).

A template depends on the physics config alone: the source, the
eavesdropper and the double-click policy.  Sessions of any seed and round
count, and `eve_mutual_information`, share one build per config; configs
that differ in any physics field get their own; cached arrays are
read-only; and cold and warm caches give the same records, tables,
sampler guides and transcript bytes.  The exact row probabilities, the
drawable-code mask and the eavesdropper information are kept with the
template on first use.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from spdcqkd import _kernels, _replay, protocol
from spdcqkd.attack import AttackConfig
from spdcqkd.fock import FockError
from spdcqkd.optics import DA, HV, BasisAngle
from spdcqkd.protocol import (AttackMixture, InterceptResend, SessionConfig, SingletSource,
                              SpdcSource, SplitAttack, eve_mutual_information, replay,
                              run_session)
from spdcqkd.source import SpdcParams

from test_golden import (GOLDEN_RECORDS, GOLDEN_SESSION, GOLDEN_TABLES, GOLDEN_TRANSCRIPT_V3,
                         GOLDEN_IDS, TABLE_EVES, TABLE_SOURCES, _tables_digest, records)

PAPER = SessionConfig(rounds=2000, seed=1, source=SpdcSource(SpdcParams(0.3)),
                      eve=SplitAttack(AttackConfig(max_attempts=3)))


@pytest.fixture()
def builds(monkeypatch):
    """The configs `_build_tables` is called with, in call order."""
    seen = []
    build = protocol._build_tables

    def counting(config):
        seen.append(config)
        return build(config)

    monkeypatch.setattr(protocol, "_build_tables", counting)
    return seen


def test_seeds_and_round_counts_share_one_build(builds):
    reports = {(rounds, seed): run_session(dataclasses.replace(PAPER, rounds=rounds, seed=seed))
               for rounds in (2000, 3000) for seed in (1, 2)}
    assert len(builds) == 1
    assert len({rep.sifted_length for rep in reports.values()}) > 1  # the seeds still count
    eve_mutual_information(dataclasses.replace(PAPER, seed=9, rounds=5))
    assert len(builds) == 1
    assert protocol._session_template(PAPER) is protocol._session_template(
        dataclasses.replace(PAPER, rounds=70000, seed=123))


def _spdc(tanh_xi=0.3, phi=0.0):
    return SessionConfig(rounds=10, seed=1, source=SpdcSource(SpdcParams(tanh_xi, phi=phi)),
                         eve=SplitAttack(AttackConfig(max_attempts=3)))


def _singlet(eve):
    return SessionConfig(rounds=10, seed=1, source=SingletSource(), eve=eve)


def _mixture(p):
    return SessionConfig(rounds=10, seed=1, source=AttackMixture(p))


@pytest.mark.parametrize("base,other", [
    (PAPER, dataclasses.replace(PAPER, source=SpdcSource(SpdcParams(0.31)))),
    (PAPER, dataclasses.replace(PAPER, source=SpdcSource(SpdcParams(0.3, phi=0.5)))),
    (PAPER, dataclasses.replace(PAPER, source=SpdcSource(SpdcParams(0.3, n_max=5)))),
    (PAPER, dataclasses.replace(PAPER, eve=SplitAttack(AttackConfig(max_attempts=4)))),
    (PAPER, dataclasses.replace(PAPER, eve=None)),
    (PAPER, dataclasses.replace(PAPER, double_click_policy="discard")),
    (_mixture(0.4), _mixture(0.41)),
    (_singlet(InterceptResend(HV)), _singlet(InterceptResend(DA))),
    (_singlet(InterceptResend(None)), _singlet(InterceptResend(HV))),
], ids=["tanh_xi", "phi", "n_max", "max_attempts", "eve", "policy", "p", "intercept-basis",
        "intercept-random"])
def test_physics_fields_get_their_own_template(builds, base, other):
    assert protocol._session_template(base) is not protocol._session_template(other)
    assert len(builds) == 2


@pytest.mark.parametrize("make", [
    lambda z: _spdc(phi=z), lambda z: _spdc(tanh_xi=z), _mixture,
    lambda z: _singlet(InterceptResend(BasisAngle(z))),
], ids=["phi", "tanh_xi", "p", "intercept-angle"])
def test_negative_zero_builds_the_same_tables(make):
    # -0.0 == 0.0 and both hash alike, so the cache keys them as one config:
    # their tables must be the same bytes
    neg, pos = make(-0.0), make(0.0)
    assert protocol._session_template(neg) is protocol._session_template(pos)
    assert (_tables_digest(protocol._build_tables(neg))
            == _tables_digest(protocol._build_tables(pos)))


def test_cached_arrays_are_read_only(monkeypatch):
    template = protocol._session_template(PAPER)
    arrays = [getattr(template.tables, f.name) for f in dataclasses.fields(template.tables)
              if f.name != "emission_tags"]
    arrays += [template.thresholds, template.rows, template.codes, template.scen_guide,
               template.group_guide]
    for a in arrays:
        assert isinstance(a, np.ndarray)
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]
    assert template.tables.emission_tags == ("spdc",)
    with pytest.raises(dataclasses.FrozenInstanceError):
        template.tables.scen_cum = np.zeros(1)
    tallied = []
    report = protocol._Tally.report
    monkeypatch.setattr(protocol._Tally, "report",
                        lambda self, *args: tallied.append(self.tags) or report(self, *args))
    run_session(PAPER)
    assert len(tallied) == 1 and tallied[0] is template.tables.emission_tags


def test_replay_takes_its_header_template_from_the_cache(tmp_path, builds):
    # replay checks every code against the template of the header's config
    path = tmp_path / "run.v3"
    live = run_session(PAPER, path)
    assert replay(PAPER, path) == replay(None, path) == live
    assert len(builds) == 1


def test_failed_build_is_not_cached(builds):
    # intercept-resend cannot take a multi-pair channel; config_from_dict
    # refuses this pair, the table build raises
    config = SessionConfig(rounds=10, seed=1, source=SpdcSource(SpdcParams(0.3)),
                           eve=InterceptResend(HV))
    for _ in range(2):
        with pytest.raises(FockError):
            run_session(config)
    assert len(builds) == 2
    assert protocol._physics_template.cache_info().currsize == 0


def test_cache_holds_at_most_its_limit(builds):
    size = protocol.TEMPLATE_CACHE_SIZE
    configs = [_mixture(i / 100) for i in range(size + 3)]
    for config in configs:
        run_session(config)
        assert protocol._physics_template.cache_info().currsize <= size
    assert protocol._physics_template.cache_info().currsize == size
    assert len(builds) == size + 3
    run_session(configs[-1])  # the most recent is kept
    assert len(builds) == size + 3
    run_session(configs[0])  # the least recent went first
    assert len(builds) == size + 4


@pytest.mark.parametrize("config,digest", GOLDEN_RECORDS, ids=GOLDEN_IDS)
def test_golden_records_cold_and_warm(builds, config, digest):
    for run in ("cold", "warm"):
        h = hashlib.sha256()
        for rec in records(config):
            h.update(rec.tobytes())
        assert h.hexdigest() == digest, run
    assert len(builds) == 1


@pytest.mark.parametrize("source_name,source", TABLE_SOURCES, ids=[n for n, _ in TABLE_SOURCES])
@pytest.mark.parametrize("eve_name,eve", TABLE_EVES, ids=[n for n, _ in TABLE_EVES])
def test_golden_tables_cold_and_warm(builds, source_name, source, eve_name, eve):
    got = []
    for seed in (0, 1):
        config = SessionConfig(rounds=1 + seed, seed=seed, source=source, eve=eve)
        try:
            got.append(_tables_digest(protocol._session_template(config).tables))
        except FockError:
            got.append("FockError")
    assert got == [GOLDEN_TABLES[f"{source_name}/{eve_name}"]] * 2
    assert len(builds) == (2 if got[0] == "FockError" else 1)


def test_golden_transcript_cold_and_warm(tmp_path, builds):
    for name in ("cold.v3", "warm.v3"):
        path = tmp_path / name
        run_session(GOLDEN_SESSION, transcript_path=path)
        assert path.read_bytes()[-32:] == bytes.fromhex(GOLDEN_TRANSCRIPT_V3)
    assert (tmp_path / "cold.v3").read_bytes() == (tmp_path / "warm.v3").read_bytes()
    assert len(builds) == 1


def _guides_digest(template) -> str:
    h = hashlib.sha256()
    for guide in (template.scen_guide, template.group_guide):
        h.update(f"{guide.dtype}{guide.shape}".encode())
        h.update(guide.tobytes())
    return h.hexdigest()


def test_guides_are_the_same_cold_and_warm(builds):
    template = protocol._session_template(PAPER)
    cold = _guides_digest(template)
    warm = protocol._session_template(dataclasses.replace(PAPER, seed=2, rounds=7))
    assert warm is template and _guides_digest(warm) == cold
    protocol._physics_template.cache_clear()
    rebuilt = protocol._session_template(PAPER)
    assert rebuilt is not template and _guides_digest(rebuilt) == cold
    assert len(builds) == 2
    want = _kernels.guide_tables(template.tables.scen_cum, template.thresholds)
    assert [g.tobytes() for g in want] == [template.scen_guide.tobytes(),
                                           template.group_guide.tobytes()]


def test_guides_of_the_largest_template_fit_in_a_megabyte():
    # the largest template timed when source.n_max was capped (n_max 32,
    # tanh_xi 0.99, 20 attempts): 144 (scenario, basis pair) groups of width 16
    config = SessionConfig(rounds=1, seed=0, source=SpdcSource(SpdcParams(0.99, n_max=32)),
                           eve=SplitAttack(AttackConfig(max_attempts=20)))
    template = protocol._session_template(config)
    assert template.thresholds.shape == (144, 16)
    assert template.scen_guide.nbytes + template.group_guide.nbytes <= 1 << 20


def test_probabilities_are_computed_once_per_template(tmp_path, monkeypatch, builds):
    calls = []
    probabilities = _kernels.template_probabilities

    def counting(*args):
        calls.append(args)
        return probabilities(*args)

    monkeypatch.setattr(_kernels, "template_probabilities", counting)
    # a reader that imported the function by name would call it from there
    monkeypatch.setattr(_replay, "template_probabilities", counting, raising=False)
    path = tmp_path / "run.v3"
    live = run_session(PAPER, path)
    assert len(calls) == 1  # the report's leak weighs the rows by them
    assert replay(PAPER, path) == replay(None, path) == live
    eve_mutual_information(dataclasses.replace(PAPER, seed=3))
    assert len(calls) == 1 and len(builds) == 1
    template = protocol._session_template(PAPER)
    for cached in (template.probabilities, template.drawable):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = cached[0]
