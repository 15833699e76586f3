"""Sessions longer than one piece (DRAW_PIECE_ROUNDS) draw their next block of words on a thread.

The drawer must not change a byte of the sampled template indices or the
transcripts, must leave the pieces it has not taken to the caller, must
hand its errors to the session that asked, must leave nothing running or
held when a session ends early, and must survive a fork.  A session holds
one block buffer drawing on the calling thread and two drawing ahead, and
its memory before its first draw must not grow with its rounds.
"""

import dataclasses
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import pytest

from spdcqkd import _drawer, _kernels, protocol
from spdcqkd.attack import AttackConfig
from spdcqkd.protocol import SessionConfig, SpdcSource, SplitAttack, replay, run_session
from spdcqkd.source import SpdcParams

PAPER = dict(source=SpdcSource(SpdcParams(0.3)), eve=SplitAttack(AttackConfig(max_attempts=3)))
# 2550 rounds in blocks of 100 and pieces of 30: none divides the next
SMALL = SessionConfig(rounds=2550, seed=31, **PAPER)
SMALL_BLOCKS = [(lo, min(100, 2550 - lo)) for lo in range(0, 2550, 100)]
SMALL_PIECES = [(lo + i, min(30, n - i)) for lo, n in SMALL_BLOCKS for i in range(0, n, 30)]


def draw_ahead(monkeypatch, ahead):
    """Make every session draw ahead, or none."""
    monkeypatch.setattr(protocol, "_draws_ahead", lambda rounds: ahead)


@pytest.fixture()
def small_blocks(monkeypatch):
    monkeypatch.setattr(protocol, "CHUNK_ROUNDS", 100)
    monkeypatch.setattr(protocol, "DRAW_PIECE_ROUNDS", 30)
    draw_ahead(monkeypatch, True)


def drawn(config):
    """(start, index bytes) of every block `_simulate` yields for `config`."""
    return [(start, idx.tobytes()) for start, idx in protocol._simulate(config)[2]]


def recording_draws(monkeypatch, delay=0.0):
    """Wrap `_uniform_block`; returns the list of (start, count, thread id) it
    started, and the number it finished, as a one-element list."""
    real = protocol._uniform_block
    started, finished = [], [0]

    def draw(seed, start, count, out=None):
        started.append((start, count, threading.get_ident()))
        time.sleep(delay)
        u = real(seed, start, count, out)
        finished[0] += 1
        return u

    monkeypatch.setattr(protocol, "_uniform_block", draw)
    return started, finished


@pytest.mark.parametrize("policy", ["assign", "discard"])
def test_drawn_ahead_records_and_transcript_equal_serial(monkeypatch, tmp_path, small_blocks,
                                                          policy):
    config = dataclasses.replace(SMALL, double_click_policy=policy)
    started, _ = recording_draws(monkeypatch)
    out = {}
    assert SMALL_BLOCKS[-2:] == [(2400, 100), (2500, 50)]
    assert SMALL_PIECES[:5] == [(0, 30), (30, 30), (60, 30), (90, 10), (100, 30)]
    assert SMALL_PIECES[-2:] == [(2500, 30), (2530, 20)]
    for ahead in (False, True):
        draw_ahead(monkeypatch, ahead)
        started.clear()
        records = drawn(config)
        path = tmp_path / f"ahead-{ahead}.v3"
        report = run_session(config, path)
        out[ahead] = records, path.read_bytes(), report
        # the same pieces either way, each drawn once by _simulate, once by
        # run_session; in order on the main thread, or on either thread
        assert sorted((s, c) for s, c, _ in started) == sorted(SMALL_PIECES * 2)
        if not ahead:
            assert [(s, c) for s, c, _ in started] == SMALL_PIECES * 2
            assert {ident for _, _, ident in started} == {threading.get_ident()}
    assert [start for start, _ in out[True][0]] == [lo for lo, _ in SMALL_BLOCKS]
    assert out[True] == out[False]


@pytest.mark.parametrize("rounds", [
    protocol.DRAW_PIECE_ROUNDS, protocol.DRAW_PIECE_ROUNDS + 1,
    protocol.CHUNK_ROUNDS - 1, protocol.CHUNK_ROUNDS, protocol.CHUNK_ROUNDS + 1, 65536, 65537])
def test_serial_drawn_ahead_and_replay_agree_at_the_block_edges(monkeypatch, tmp_path, rounds):
    config = SessionConfig(rounds=rounds, seed=rounds, double_click_policy="discard", **PAPER)
    out = {}
    for ahead in (False, True):
        draw_ahead(monkeypatch, ahead)
        path = tmp_path / f"ahead-{ahead}.v3"
        report = run_session(config, path)
        assert replay(config, path) == report
        blocks = drawn(config)
        assert [start for start, _ in blocks] == list(range(0, rounds, protocol.CHUNK_ROUNDS))
        assert sum(len(idx) for _, idx in blocks) == 2 * rounds
        out[ahead] = blocks, path.read_bytes(), report
    assert out[True] == out[False]


def test_slow_sampling_reads_the_block_it_was_given(monkeypatch, small_blocks):
    """The next block is drawn while the current one is sampled, into the
    other of the session's two buffers."""
    draw_ahead(monkeypatch, False)
    want = drawn(SMALL)
    real = _kernels.sample_rounds

    def slow(u, *args):
        time.sleep(0.005)  # time for the drawer to fill the block after this one
        return real(u, *args)

    monkeypatch.setattr(_kernels, "sample_rounds", slow)
    draw_ahead(monkeypatch, True)
    assert drawn(SMALL) == want


def test_sessions_of_one_piece_draw_on_the_main_thread(monkeypatch):
    """A session of one piece has no work to share; one CPU never draws ahead."""
    piece = protocol.DRAW_PIECE_ROUNDS
    main = threading.get_ident()
    real = _drawer.ahead
    handed = []
    monkeypatch.setattr(_drawer, "ahead", lambda jobs: handed.append(jobs) or real(jobs))
    started, _ = recording_draws(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert protocol._draws_ahead(piece + 1) and not protocol._draws_ahead(piece)
    run_session(SessionConfig(rounds=piece, seed=3, **PAPER))
    assert started == [(0, piece, main)] and not handed
    run_session(SessionConfig(rounds=piece + 1, seed=3, **PAPER))
    assert len(handed) == 1
    assert sorted((s, c) for s, c, _ in started[1:]) == [(0, piece), (piece, 1)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert not protocol._draws_ahead(piece + 1)
    started.clear()
    rounds = protocol.CHUNK_ROUNDS + 1
    run_session(SessionConfig(rounds=rounds, seed=3, **PAPER))
    assert len(handed) == 1
    assert started == [(lo, min(piece, rounds - lo), main) for lo in range(0, rounds, piece)]


def test_paper_session_of_5e4_rounds_draws_off_the_main_thread(monkeypatch, tmp_path):
    """On two CPUs a 50 000-round session, the benchmark's transcript round
    trip, draws pieces on the drawer thread, and its report and transcript
    are those of the serial path."""
    config = SessionConfig(rounds=50_000, seed=21, **PAPER)
    pieces = list(range(0, 50_000, protocol.DRAW_PIECE_ROUNDS))
    main = threading.get_ident()
    started, _ = recording_draws(monkeypatch)
    rule = protocol._draws_ahead
    draw_ahead(monkeypatch, False)
    serial = run_session(config, tmp_path / "serial.v3")
    assert [(s, ident) for s, _, ident in started] == [(s, main) for s in pieces]

    real = _kernels.sample_rounds

    def sample_once_the_drawer_has_drawn(u, *args):
        # an idle-priority drawer may wait for a free CPU; give it one
        deadline = time.monotonic() + 10
        while (not any(ident != main for *_, ident in started)
               and time.monotonic() < deadline):
            time.sleep(0.001)
        return real(u, *args)

    monkeypatch.setattr(_kernels, "sample_rounds", sample_once_the_drawer_has_drawn)
    monkeypatch.setattr(protocol, "_draws_ahead", rule)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started.clear()
    ahead = run_session(config, tmp_path / "ahead.v3")
    assert any(ident != main for *_, ident in started)
    assert sorted(s for s, _, _ in started) == pieces
    assert ahead == serial
    assert (tmp_path / "ahead.v3").read_bytes() == (tmp_path / "serial.v3").read_bytes()


def test_caller_draws_the_pieces_the_drawer_has_not_taken():
    main = threading.get_ident()
    ran = {}
    blocker_started, second_ran = threading.Event(), threading.Event()

    def blocker():  # keeps the drawer busy until the caller has run the others
        ran["blocker"] = threading.get_ident()
        blocker_started.set()
        assert second_ran.wait(10)

    def piece(name, event=None):
        ran[name] = threading.get_ident()
        if event is not None:
            event.set()

    jobs = [("first", []),
            ("second", [blocker, lambda: piece("a"), lambda: piece("b", second_ran)])]
    draws = _drawer.ahead(jobs)
    assert next(draws) == "first"  # the second job is handed over here
    assert blocker_started.wait(10)
    assert next(draws) == "second"
    assert ran["blocker"] != main and ran["a"] == ran["b"] == main
    assert next(draws, None) is None


def test_error_of_a_piece_on_the_drawer_is_raised_in_the_caller():
    main = threading.get_ident()
    raised_on = []

    def failing():
        raised_on.append(threading.get_ident())
        raise ValueError("draw failed on the drawer")

    jobs = [("first", []), ("second", [failing])]
    draws = _drawer.ahead(jobs)
    assert next(draws) == "first"
    deadline = time.monotonic() + 10
    while not raised_on and time.monotonic() < deadline:  # the drawer takes the piece
        time.sleep(0.001)
    with pytest.raises(ValueError, match=r"^draw failed on the drawer$"):
        next(draws)
    assert raised_on and raised_on[0] != main


def test_drawer_error_is_raised_in_the_session(monkeypatch, tmp_path, small_blocks):
    real = protocol._uniform_block
    calls = []

    def flaky(seed, start, count, out=None):
        calls.append(threading.get_ident())
        if len(calls) == 3:
            raise ValueError("draw failed on the third piece")
        return real(seed, start, count, out)

    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(protocol, "_uniform_block", flaky)
    monkeypatch.setattr(protocol, "open", recording_open, raising=False)
    with pytest.raises(ValueError, match=r"^draw failed on the third piece$"):
        run_session(SMALL, tmp_path / "failed.v3")
    assert len(opened) == 1 and opened[0].closed
    assert not (tmp_path / "failed.v3").exists()

    monkeypatch.setattr(protocol, "_uniform_block", real)
    draw_ahead(monkeypatch, False)
    want = run_session(SMALL)
    draw_ahead(monkeypatch, True)
    assert run_session(SMALL) == want


def test_closing_early_drops_the_pieces_not_started(monkeypatch, small_blocks):
    real = protocol._uniform_block
    started, finished = [], [0]
    next_block_started = threading.Event()

    def draw(seed, start, count, out=None):
        started.append(start)
        if start >= 100:  # a piece of the next block
            next_block_started.set()
            time.sleep(0.2)
        u = real(seed, start, count, out)
        finished[0] += 1
        return u

    monkeypatch.setattr(protocol, "_uniform_block", draw)
    protocol._session_template(SMALL)  # warm: a cold session draws blocks 0 and 1 at once
    _, _, blocks = protocol._simulate(SMALL)
    next(blocks)  # the first block is drawn, and the next one is handed over
    assert next_block_started.wait(10)
    blocks.close()
    # all 4 pieces of the first block, and fewer than the 4 of the block in flight
    assert sorted(started)[:4] == [0, 30, 60, 90]
    assert finished[0] == len(started) and 1 <= len(started) - 4 < 4


@pytest.mark.skipif(not hasattr(os, "SCHED_IDLE"), reason="needs SCHED_IDLE")
def test_drawer_runs_at_idle_priority_and_the_caller_does_not(small_blocks):
    before = os.sched_getscheduler(0)
    run_session(SMALL)
    drawer = [t for t in threading.enumerate() if t.name == "spdcqkd-drawer"]
    assert len(drawer) == 1
    assert os.sched_getscheduler(drawer[0].native_id) == os.SCHED_IDLE
    assert os.sched_getscheduler(0) == before != os.SCHED_IDLE


def test_sessions_do_not_add_threads(small_blocks):
    run_session(SMALL)
    before = threading.active_count()
    for seed in range(20):
        run_session(dataclasses.replace(SMALL, seed=seed))
    assert threading.active_count() == before


def test_concurrent_sessions_share_the_drawer(monkeypatch, small_blocks):
    configs = [dataclasses.replace(SMALL, seed=seed) for seed in range(6)]
    draw_ahead(monkeypatch, False)
    want = [run_session(c) for c in configs]
    draw_ahead(monkeypatch, True)
    got = [None] * len(configs)

    def work(i):
        for _ in range(3):
            got[i] = run_session(configs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(configs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_a_drawn_ahead_session(small_blocks):
    want = run_session(SMALL)  # the drawer thread is running now
    assert _drawer._requests is not None
    with warnings.catch_warnings():  # newer Pythons warn on fork with threads running
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if run_session(SMALL) == want else 3
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


@pytest.mark.parametrize("rounds", [16 * protocol.CHUNK_ROUNDS, 50_000, 20_000])
def test_sessions_hold_one_or_two_block_buffers(monkeypatch, rounds):
    """One 1 MB block buffer drawing on the calling thread, two drawing
    ahead; either way less than the 4 MB a 65 536-round chunk of draws took.
    Drawing ahead, the two buffers hold the session's first two blocks and
    no more, warm or cold (where the first draw is the buffers)."""
    config = SessionConfig(rounds=rounds, seed=8, **PAPER)
    block = protocol.CHUNK_ROUNDS * protocol.DRAWS_PER_ROUND * 8
    assert block == 1 << 20
    peaks = {}
    for ahead in (False, True, "cold"):
        draw_ahead(monkeypatch, bool(ahead))
        want = run_session(config)  # starts the drawer outside the measurement
        if ahead == "cold":
            protocol._templates.clear()
        tracemalloc.start()
        rep = run_session(config)
        peaks[ahead] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert rep == want
    # besides its buffers a session holds one block's sampling temporaries, under 1 MB
    assert block < peaks[False] < 2 * block, peaks
    first = min(rounds, 2 * protocol.CHUNK_ROUNDS) * protocol.DRAWS_PER_ROUND * 8
    for warm in (True, "cold"):
        assert first < peaks[warm] < first + block <= 3 * block < 4 << 20, peaks


@pytest.mark.parametrize("ahead", [False, True])
def test_session_holds_nothing_per_chunk_before_its_first_draw(monkeypatch, ahead):
    # a list of 10⁵ chunks' spans held about 9.5 MB; the block buffers are
    # made at the first draw
    draw_ahead(monkeypatch, ahead)
    config = SessionConfig(rounds=protocol.CHUNK_ROUNDS * 10 ** 5, seed=8, **PAPER)
    protocol._simulate(config)  # fills the table caches outside the measurement
    tracemalloc.start()
    try:
        _, _, blocks = protocol._simulate(config)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert size < 1 << 20, size
    blocks.close()
