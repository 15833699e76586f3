"""The per-process cache of session templates (`protocol._session_template`).

A template depends on the physics config alone: the source, the
eavesdropper and the double-click policy.  Sessions of any seed and round
count, and `eve_mutual_information`, share one build per config; configs
that differ in any physics field get their own; the cache holds the one
template built last, and a switch back to a config rebuilds it from the
scenario memo below, bit for bit; cached arrays are read-only; and cold
and warm caches give the same records, tables, sampler guides and
transcript bytes.  The exact row probabilities, the drawable-code mask and
the eavesdropper information are computed once, with the template, and
kept with it.  A session that draws ahead and finds its template not
cached builds it on the drawer thread while it draws its first two
blocks, with the same template in every field and the same rounds as a
warm or a serial session.  Below the cache, the memo of each scenario's
rows (`protocol._scenario_rows`) gives every pinned table bit for bit
when it was warmed at another parameter, misses on an amplitude one ulp
away, stays within its bound and caches no error.
"""

import contextlib
import dataclasses
import functools
import hashlib
import math
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from spdcqkd import _drawer, _kernels, protocol
from spdcqkd.attack import AttackConfig
from spdcqkd.fock import FockError, StateVector, attack_registry
from spdcqkd.optics import DA, HV, BasisAngle
from spdcqkd.protocol import (AttackMixture, InterceptResend, SessionConfig, SingletSource,
                              SpdcSource, SplitAttack, eve_mutual_information, replay,
                              run_session)
from spdcqkd.source import SpdcParams

from test_golden import (GOLDEN_RECORDS, GOLDEN_SESSION, GOLDEN_TABLES, GOLDEN_TRANSCRIPT_V3,
                         GOLDEN_IDS, PHASE_TABLES, TABLE_EVES, TABLE_SOURCES, _tables_digest,
                         records)

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
    arrays = [getattr(template, f.name) for f in dataclasses.fields(template)
              if f.name not in ("emission_tags", "eve_information")]
    assert len(arrays) == 16
    for a in arrays:
        assert isinstance(a, np.ndarray)
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]
    assert template.emission_tags == ("spdc",)
    assert type(template.eve_information) is float
    with pytest.raises(dataclasses.FrozenInstanceError):
        template.scen_cum = np.zeros(1)
    tallied = []
    report = protocol._Tally.report
    monkeypatch.setattr(protocol._Tally, "report",
                        lambda self, *args: tallied.append(self.tags) or report(self, *args))
    run_session(PAPER)
    assert len(tallied) == 1 and tallied[0] is template.emission_tags


def test_replay_takes_its_header_template_from_the_cache(tmp_path, builds):
    # replay checks every code against the template of the header's config
    path = tmp_path / "run.v3"
    live = run_session(PAPER, path)
    assert replay(PAPER, path) == replay(None, path) == live
    assert len(builds) == 1


@pytest.mark.parametrize("rounds", [10, 20_000])
def test_failed_build_is_not_cached(builds, monkeypatch, tmp_path, two_cpus, rounds):
    # intercept-resend cannot take a multi-pair channel; the table build
    # refuses this pair, on the drawer thread when the session draws ahead
    config = SessionConfig(rounds=rounds, seed=1, source=SpdcSource(SpdcParams(0.3)),
                           eve=InterceptResend(HV))
    with pytest.raises(FockError) as serial:
        protocol._build_tables(config)
    threads = build_threads(monkeypatch)
    path = tmp_path / "run.v3"
    for _ in range(2):
        with drawer_builds_first(monkeypatch, threads):
            with pytest.raises(FockError) as raised:
                run_session(config, path)
        assert type(raised.value) is type(serial.value)
        assert str(raised.value) == str(serial.value)
        assert not path.exists()
    assert len(builds) == 3 and len(protocol._templates) == 0
    assert threads == [DRAWER if rounds > protocol.DRAW_PIECE_ROUNDS else MAIN] * 2
    # the drawer still works: a valid cold session draws ahead, as the serial one
    handed = spy_hand_over(monkeypatch)
    valid = dataclasses.replace(PAPER, rounds=20_000)
    assert protocol._draws_ahead(valid.rounds)
    assert run_session(valid) == serial_report(monkeypatch, valid)
    assert handed and any(t.name == DRAWER and t.is_alive() for t in threading.enumerate())


def test_the_cache_holds_one_template(builds):
    configs = [_mixture(i / 100) for i in range(4)]
    for config in configs:
        template = protocol._session_template(config)
        assert list(protocol._templates.values()) == [template]
    assert protocol._session_template(configs[-1]) is template  # the last one is kept
    assert len(builds) == 4
    protocol._session_template(configs[0])  # the others went
    assert len(builds) == 5 and len(protocol._templates) == 1


def test_a_config_switch_rebuilds_from_the_scenario_memo(builds):
    # A, B, A: the second build of A takes every scenario's rows from the memo
    first = protocol._session_template(PAPER)
    protocol._session_template(_spdc(tanh_xi=0.45))
    misses = protocol._scenario_rows.cache_info().misses
    again = protocol._session_template(PAPER)
    assert protocol._scenario_rows.cache_info().misses == misses
    assert len(builds) == 3 and again is not first
    assert _fields_of(again) == _fields_of(first)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_does_not_inherit_a_held_cache_lock():
    # a fork while another thread holds the lock, here the forking thread
    want = run_session(PAPER)
    protocol._templates.clear()
    with protocol._templates_lock, warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads running
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if run_session(PAPER) == want else 3
            finally:
                os._exit(code)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("forked child did not finish its session in 30 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


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
            got.append(_tables_digest(protocol._session_template(config)))
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


# ---------------------------------------------------------------------------
# the memo of each scenario's rows below the template cache


def _other_source(source):
    """The same source kind at another continuous parameter (tanh_xi, p)."""
    if isinstance(source, SpdcSource):
        return SpdcSource(dataclasses.replace(source.params, tanh_xi=0.45))
    if isinstance(source, AttackMixture):
        return AttackMixture(0.7)
    return source


def _memo_hits() -> int:
    return protocol._scenario_rows.cache_info().hits


def _scenarios(config):
    """(registry, terms, fixed_e1) of every scenario a config's tables build."""
    return [(state.registry, tuple(state.terms()), fixed_e1)
            for _, _, emitted in protocol._emission_branches(config.source, attack_registry())
            for _, state, fixed_e1 in protocol._eve_branches(emitted, config.eve)]


# (name, source, eve, digest) of every pinned table
PINNED_TABLES = [(f"{s}/{e}", source, eve, GOLDEN_TABLES[f"{s}/{e}"])
                 for s, source in TABLE_SOURCES for e, eve in TABLE_EVES] + [
    (name, source, SplitAttack(AttackConfig(max_attempts=3)), digest)
    for name, (source, digest) in PHASE_TABLES.items()]


@pytest.mark.parametrize("source,eve,digest", [pin[1:] for pin in PINNED_TABLES],
                         ids=[pin[0] for pin in PINNED_TABLES])
def test_pinned_tables_from_a_memo_warmed_at_another_parameter(source, eve, digest):
    def digest_of(src):
        try:
            return _tables_digest(protocol._build_tables(
                SessionConfig(rounds=1, seed=0, source=src, eve=eve)))
        except FockError:
            return "FockError"

    digest_of(_other_source(source))
    before = _memo_hits()
    assert digest_of(source) == digest
    # with no eavesdropper an SPDC source's whole coherent state is its one
    # scenario, which tanh_xi changes; a split or intercept branch is a sector
    recurs = digest != "FockError" and not (isinstance(source, SpdcSource) and eve is None)
    assert (_memo_hits() > before) == recurs


def test_an_amplitude_one_ulp_away_misses():
    registry, terms, fixed_e1 = _scenarios(PAPER)[0]
    rows = protocol._scenario_rows(registry, terms, fixed_e1)
    assert protocol._scenario_rows(registry, terms, fixed_e1) is rows
    info = protocol._scenario_rows.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    occ, amp = terms[0]
    moved = ((occ, complex(math.nextafter(amp.real, math.inf), amp.imag)),) + terms[1:]
    protocol._scenario_rows(registry, moved, fixed_e1)
    info = protocol._scenario_rows.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)


def test_the_memo_holds_at_most_its_bound():
    bound = protocol.SCENARIO_MEMO_SIZE
    assert protocol._scenario_rows.cache_info().maxsize == bound
    # one scenario per config, a new one at each tanh_xi
    for i in range(bound + 5):
        protocol._build_tables(SessionConfig(
            rounds=1, seed=0, source=SpdcSource(SpdcParams(0.1 + i / 1000, n_max=1))))
        assert protocol._scenario_rows.cache_info().currsize <= bound
    info = protocol._scenario_rows.cache_info()
    assert (info.currsize, info.misses, info.hits) == (bound, bound + 5, 0)


def test_a_scenario_that_raises_caches_nothing(monkeypatch):
    # a stored photon in each slot of E1 double-clicks in HV: `_outcome_rows` raises
    r = 1.0 / math.sqrt(2.0)
    state = StateVector(attack_registry(), {(0, 1, 1, 0, 1, 1, 0, 0): r,
                                            (1, 0, 0, 1, 1, 1, 0, 0): -r})
    monkeypatch.setattr(protocol, "_eve_branches", lambda emitted, eve: [(1.0, state, -1)])
    errors = []
    for _ in range(2):
        with pytest.raises(FockError, match="eavesdropper channel has a double click") as raised:
            protocol._build_tables(PAPER)
        errors.append((type(raised.value), str(raised.value)))
    assert errors[0] == errors[1]
    info = protocol._scenario_rows.cache_info()
    assert (info.currsize, info.misses, info.hits) == (0, 2, 0)


def _flip_zero_signs(terms):
    """The terms with every zero real or imaginary part of opposite sign,
    and how many parts that flipped."""
    flipped = 0

    def flip(x):
        nonlocal flipped
        if x == 0.0:
            flipped += 1
            return -x
        return x

    out = tuple((occ, complex(flip(a.real), flip(a.imag))) for occ, a in terms)
    return out, flipped


def test_signed_zero_parts_share_an_entry_and_give_the_same_rows():
    scenarios = _scenarios(PAPER)
    assert len(scenarios) == 8
    rows_of = protocol._scenario_rows.__wrapped__  # computed afresh, never from the memo
    for registry, terms, fixed_e1 in scenarios:
        other, flipped = _flip_zero_signs(terms)
        assert flipped > 0
        assert other == terms and hash(other) == hash(terms)  # one key for the memo
        (len_a, cum_a, keys_a), (len_b, cum_b, keys_b) = (
            rows_of(registry, t, fixed_e1) for t in (terms, other))
        assert len_a == len_b and keys_a == keys_b
        assert np.array(cum_a).tobytes() == np.array(cum_b).tobytes()


def _guides_digest(template) -> str:
    h = hashlib.sha256()
    for guide in (template.scen_guide, template.group_guide):
        h.update(f"{guide.dtype}{guide.shape}".encode())
        h.update(guide.tobytes())
    return h.hexdigest()


def test_guides_of_the_largest_template_fit_in_a_megabyte():
    # the largest template timed when source.n_max was capped (n_max 32,
    # tanh_xi 0.99, 20 attempts): 144 (scenario, basis pair) groups of width 16
    config = SessionConfig(rounds=1, seed=0, source=SpdcSource(SpdcParams(0.99, n_max=32)),
                           eve=SplitAttack(AttackConfig(max_attempts=20)))
    template = protocol._session_template(config)
    assert template.search_keys.shape == (144, 16)
    assert template.scen_guide.nbytes + template.group_guide.nbytes <= 1 << 20


def test_probabilities_are_computed_once_per_template(tmp_path, monkeypatch, builds):
    calls = []
    probabilities = _kernels.template_probabilities

    def counting(*args):
        calls.append(args)
        return probabilities(*args)

    monkeypatch.setattr(_kernels, "template_probabilities", counting)
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


# ---------------------------------------------------------------------------
# a cold session that draws ahead: the build on the drawer, the first draw here

MAIN = threading.main_thread().name
DRAWER = "spdcqkd-drawer"
COLD_ROUNDS = [4097, 20_000, 2 * protocol.CHUNK_ROUNDS, 2 * protocol.CHUNK_ROUNDS + 1, 50_000]
COLD_CONFIGS = {"paper": PAPER, "mixture": _mixture(0.7),
                "singlet-intercept": _singlet(InterceptResend(None))}


@pytest.fixture()
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def build_threads(monkeypatch):
    """The names of the threads `_build_tables` runs on, in call order."""
    names = []
    build = protocol._build_tables

    def recording(config):
        names.append(threading.current_thread().name)
        return build(config)

    monkeypatch.setattr(protocol, "_build_tables", recording)
    return names


@contextlib.contextmanager
def drawer_builds_first(monkeypatch, threads):
    """Hold a cold session's first draw, the one `_uniform_block` call with
    no `out`, until a build has started; record every draw as (start,
    count, whether it had an `out`)."""
    real = protocol._uniform_block
    draws = []

    def draw(seed, start, count, out=None):
        draws.append((start, count, out is not None))
        deadline = time.monotonic() + 10
        while out is None and len(threads) < want and time.monotonic() < deadline:
            time.sleep(0.001)  # an idle-priority drawer may wait for a free CPU
        return real(seed, start, count, out)

    want = len(threads) + 1
    with monkeypatch.context() as m:
        m.setattr(protocol, "_uniform_block", draw)
        yield draws


@contextlib.contextmanager
def drawer_held_off():
    """Keep the drawer thread busy, so that a session's `join` runs its build."""
    busy, release = threading.Event(), threading.Event()
    _drawer.hand_over([lambda: busy.set() or release.wait(30)])
    assert busy.wait(10)
    try:
        yield
    finally:
        release.set()


def spy_hand_over(monkeypatch):
    """The pieces of every job handed to the drawer, a list per job."""
    handed = []
    real = _drawer.hand_over
    monkeypatch.setattr(_drawer, "hand_over",
                        lambda pieces: handed.append(list(pieces)) or real(handed[-1]))
    return handed


def serial_report(monkeypatch, config):
    with monkeypatch.context() as m:
        m.setattr(protocol, "_draws_ahead", lambda rounds: False)
        return run_session(config)


def outcome(config, path, cold, around=contextlib.nullcontext):
    """The records digest, report and transcript bytes of a config: two
    sessions, each run inside `around()`, with an empty template cache if
    `cold`."""
    def session(run):
        with around():
            if cold:
                protocol._templates.clear()
            return run()

    def digest():
        h = hashlib.sha256()
        for rec in records(config):
            h.update(rec.tobytes())
        return h.hexdigest()

    return session(digest), session(lambda: run_session(config, path)), path.read_bytes()


@pytest.mark.parametrize("policy", ["assign", "discard"])
@pytest.mark.parametrize("name", COLD_CONFIGS)
@pytest.mark.parametrize("rounds", COLD_ROUNDS)
def test_cold_session_is_the_warm_and_the_serial_one(monkeypatch, tmp_path, two_cpus, rounds,
                                                     name, policy):
    config = dataclasses.replace(COLD_CONFIGS[name], rounds=rounds, seed=rounds,
                                 double_click_policy=policy)
    assert protocol._draws_ahead(rounds)
    threads = build_threads(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(protocol, "_draws_ahead", lambda rounds: False)
        serial = outcome(config, tmp_path / "serial.v3", cold=True)
    warm = outcome(config, tmp_path / "warm.v3", cold=False)
    assert threads == [MAIN] * 2
    sessions = []

    @contextlib.contextmanager
    def drawer_first():
        with drawer_builds_first(monkeypatch, threads) as draws:
            yield
        sessions.append(draws)

    cold = outcome(config, tmp_path / "cold.v3", cold=True, around=drawer_first)
    assert threads == [MAIN] * 2 + [DRAWER] * 2
    first = min(rounds, 2 * protocol.CHUNK_ROUNDS)
    for draws in sessions:  # one first draw with no `out`, then pieces from block 2 on
        assert draws[0] == (0, first, False)
        assert all(has_out and start >= first for start, _, has_out in draws[1:])
        assert sum(count for _, count, _ in draws) == rounds
    with drawer_held_off():
        held = outcome(config, tmp_path / "held.v3", cold=True)
    assert threads == [MAIN] * 2 + [DRAWER] * 2 + [MAIN] * 2
    assert cold == held == warm == serial


def test_concurrent_cold_sessions_of_one_config(monkeypatch, tmp_path, two_cpus):
    config = dataclasses.replace(PAPER, rounds=50_000, seed=4)
    want = serial_report(monkeypatch, config)
    serial_path = tmp_path / "serial.v3"
    with monkeypatch.context() as m:
        m.setattr(protocol, "_draws_ahead", lambda rounds: False)
        run_session(config, serial_path)
    threads = build_threads(monkeypatch)
    for attempt in range(5):
        protocol._templates.clear()
        threads.clear()
        start = threading.Barrier(4)
        got = [None] * 4

        def work(i):
            start.wait(10)
            got[i] = run_session(config, tmp_path / f"{attempt}-{i}.v3")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert got == [want] * 4
        for i in range(4):
            assert (tmp_path / f"{attempt}-{i}.v3").read_bytes() == serial_path.read_bytes()
        assert 1 <= len(threads) <= 4 and len(protocol._templates) == 1


def test_a_cold_session_computes_probabilities_and_leak_on_the_drawer(monkeypatch, two_cpus):
    # what every report reads is computed with the build, while the caller draws
    names = {"probabilities": [], "eve_information": []}
    probabilities = _kernels.template_probabilities
    monkeypatch.setattr(_kernels, "template_probabilities", lambda *args: names[
        "probabilities"].append(threading.current_thread().name) or probabilities(*args))
    leak = protocol._eve_information
    monkeypatch.setattr(protocol, "_eve_information", lambda *args: names[
        "eve_information"].append(threading.current_thread().name) or leak(*args))
    config = dataclasses.replace(PAPER, rounds=20_000)
    assert protocol._draws_ahead(config.rounds)
    threads = build_threads(monkeypatch)
    with drawer_builds_first(monkeypatch, threads):
        report = run_session(config)
    assert threads == [DRAWER]
    assert names == {"probabilities": [DRAWER], "eve_information": [DRAWER]}
    assert report == serial_report(monkeypatch, config)
    assert names == {"probabilities": [DRAWER], "eve_information": [DRAWER]}


def _fields_of(template) -> dict:
    """Every field of a template by name: an array as its dtype, shape and
    bytes, the leak as its `float.hex`, so that equal means the same bits."""
    out = {}
    for f in dataclasses.fields(template):
        value = getattr(template, f.name)
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.shape, value.tobytes())
        elif isinstance(value, float):
            value = value.hex()
        out[f.name] = value
    return out


def test_guides_are_the_same_cold_and_warm(builds, monkeypatch, two_cpus):
    # and a cold session that draws ahead builds on the drawer the template
    # the calling thread builds, in every field
    for name, config in COLD_CONFIGS.items():
        config = dataclasses.replace(config, rounds=20_000)
        protocol._templates.clear()
        builds.clear()
        template = protocol._session_template(config)
        cold = _guides_digest(template)
        warm = protocol._session_template(dataclasses.replace(config, seed=2, rounds=7))
        assert warm is template and _guides_digest(warm) == cold, name
        protocol._templates.clear()
        rebuilt = protocol._session_template(config)
        assert rebuilt is not template and _guides_digest(rebuilt) == cold, name
        assert len(builds) == 2, name
        want = _kernels.guide_tables(template.scen_cum, template.search_keys.imag)
        assert [g.tobytes() for g in want] == [template.scen_guide.tobytes(),
                                               template.group_guide.tobytes()], name
        protocol._templates.clear()
        with monkeypatch.context() as m:
            threads = build_threads(m)
            with drawer_builds_first(m, threads):
                run_session(config)
        assert threads == [DRAWER], name
        drawn = protocol._cached_template(config)
        assert drawn is not rebuilt and _fields_of(drawn) == _fields_of(template), name


def test_only_a_cache_miss_hands_a_build_to_the_drawer(monkeypatch, two_cpus):
    config = dataclasses.replace(PAPER, rounds=20_000)
    protocol._session_template(config)
    handed = spy_hand_over(monkeypatch)
    threads = build_threads(monkeypatch)
    warm = run_session(config)
    # a warm session hands over the pieces of its blocks only
    assert len(handed) == 2 and not threads
    assert all(isinstance(piece, functools.partial) and piece.func is protocol._uniform_block
               for pieces in handed for piece in pieces)
    # a process on one CPU builds and draws on its own thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    protocol._templates.clear()
    handed.clear()
    before = threading.active_count()
    assert run_session(config) == warm
    assert threads == [MAIN] and not handed and threading.active_count() == before
