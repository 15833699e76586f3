"""Sessions longer than one chunk draw their next block of uniforms on a thread.

The drawer must not change a byte of the records or transcripts, must leave
the pieces it has not taken to the caller, must hand its errors to the
session that asked, must leave nothing running or held when a session ends
early, must survive a fork, and must hold less memory than drawing a chunk
at a time.
"""

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
from spdcqkd.protocol import SessionConfig, SpdcSource, SplitAttack, run_session
from spdcqkd.source import SpdcParams

PAPER = dict(source=SpdcSource(SpdcParams(0.3)), eve=SplitAttack(AttackConfig(max_attempts=3)))
# 2500 rounds in chunks of 777, draw blocks of 100 and pieces of 30: none
# divides the next
SMALL = SessionConfig(rounds=2500, seed=31, **PAPER)


@pytest.fixture()
def small_blocks(monkeypatch):
    monkeypatch.setattr(protocol, "CHUNK_ROUNDS", 777)
    monkeypatch.setattr(protocol, "DRAW_BLOCK_ROUNDS", 100)
    monkeypatch.setattr(protocol, "DRAW_PIECE_ROUNDS", 30)
    monkeypatch.setattr(protocol, "DRAW_AHEAD", True)


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
    config = SessionConfig(rounds=2500, seed=31, double_click_policy=policy, **PAPER)
    started, _ = recording_draws(monkeypatch)
    out = {}
    for ahead in (False, True):
        monkeypatch.setattr(protocol, "DRAW_AHEAD", ahead)
        started.clear()
        records = [(start, rec.tobytes()) for start, rec, _ in protocol._simulate(config)]
        path = tmp_path / f"ahead-{ahead}.csv"
        report = run_session(config, path)
        out[ahead] = records, path.read_bytes(), report
        main = threading.get_ident()
        if ahead:  # pieces of 30 of blocks of 100 within each chunk, on either thread
            blocks = [(lo, min(100, end - lo)) for start in range(0, 2500, 777)
                      for end in (min(start + 777, 2500),) for lo in range(start, end, 100)]
            assert blocks[6:9] == [(600, 100), (700, 77), (777, 100)]
            pieces = [(lo + i, min(30, n - i)) for lo, n in blocks for i in range(0, n, 30)]
            assert pieces[:5] == [(0, 30), (30, 30), (60, 30), (90, 10), (100, 30)]
            # each piece drawn once by _simulate, once by run_session
            assert sorted((s, c) for s, c, _ in started) == sorted(pieces * 2)
        else:  # one block per chunk, on the main thread
            assert [(s, c) for s, c, _ in started[:4]] == [
                (0, 777), (777, 777), (1554, 777), (2331, 169)]
            assert all(ident == main for _, _, ident in started)
    assert [start for start, _ in out[True][0]] == [0, 777, 1554, 2331]
    assert out[True] == out[False]


def test_slow_sampling_reads_the_block_it_was_given(monkeypatch, small_blocks):
    """The next block is drawn while the current one is sampled, into the
    other of the session's two buffers."""
    monkeypatch.setattr(protocol, "DRAW_AHEAD", False)
    want = [(start, rec.tobytes()) for start, rec, _ in protocol._simulate(SMALL)]
    real = _kernels.sample_rounds

    def slow(u, *args):
        time.sleep(0.005)  # time for the drawer to fill the block after this one
        return real(u, *args)

    monkeypatch.setattr(_kernels, "sample_rounds", slow)
    monkeypatch.setattr(protocol, "DRAW_AHEAD", True)
    assert [(start, rec.tobytes()) for start, rec, _ in protocol._simulate(SMALL)] == want


def test_one_chunk_sessions_draw_on_the_main_thread(monkeypatch):
    monkeypatch.setattr(protocol, "DRAW_AHEAD", True)
    started, _ = recording_draws(monkeypatch)
    run_session(SessionConfig(rounds=protocol.CHUNK_ROUNDS, seed=3, **PAPER))
    assert started == [(0, protocol.CHUNK_ROUNDS, threading.get_ident())]


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
        run_session(SMALL, tmp_path / "failed.csv")
    assert len(opened) == 1 and opened[0].closed

    monkeypatch.setattr(protocol, "_uniform_block", real)
    monkeypatch.setattr(protocol, "DRAW_AHEAD", False)
    want = run_session(SMALL)
    monkeypatch.setattr(protocol, "DRAW_AHEAD", True)
    assert run_session(SMALL) == want


def test_closing_early_drops_the_pieces_not_started(monkeypatch, small_blocks):
    real = protocol._uniform_block
    started, finished = [], [0]
    next_chunk_started = threading.Event()

    def draw(seed, start, count, out=None):
        started.append(start)
        if start >= 777:  # a piece of the next chunk's first block
            next_chunk_started.set()
            time.sleep(0.2)
        u = real(seed, start, count, out)
        finished[0] += 1
        return u

    monkeypatch.setattr(protocol, "_uniform_block", draw)
    chunks = protocol._simulate(SMALL)
    next(chunks)  # the chunk's 8 blocks are drawn, and the next chunk's first is handed over
    assert next_chunk_started.wait(10)
    chunks.close()
    # all 31 pieces of the first chunk, and fewer than the 4 of the block in flight
    first = [lo + i for lo in range(0, 777, 100) for i in range(0, min(100, 777 - lo), 30)]
    assert len(first) == 31 and sorted(started)[:31] == first
    assert finished[0] == len(started) and 1 <= len(started) - 31 < 4


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
        run_session(SessionConfig(rounds=2500, seed=seed, **PAPER))
    assert threading.active_count() == before


def test_concurrent_sessions_share_the_drawer(monkeypatch, small_blocks):
    configs = [SessionConfig(rounds=2500, seed=seed, **PAPER) for seed in range(6)]
    monkeypatch.setattr(protocol, "DRAW_AHEAD", False)
    want = [run_session(c) for c in configs]
    monkeypatch.setattr(protocol, "DRAW_AHEAD", True)
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


def test_drawing_ahead_holds_no_more_memory(monkeypatch):
    """Two 1 MB blocks in flight, where the serial path holds one 4 MB chunk."""
    config = SessionConfig(rounds=4 * protocol.CHUNK_ROUNDS, seed=8, **PAPER)
    peaks = {}
    for ahead in (False, True):
        monkeypatch.setattr(protocol, "DRAW_AHEAD", ahead)
        want = run_session(config)  # starts the drawer outside the measurement
        tracemalloc.start()
        rep = run_session(config)
        peaks[ahead] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert rep == want
    assert peaks[True] <= peaks[False], peaks
