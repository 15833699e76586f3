"""One background thread that shares the next step of its caller's work.

`protocol` gives it two kinds of work: the Philox words of a session longer
than one piece, `protocol.DRAW_PIECE_ROUNDS`, and the template build of such
a session whose physics config is not cached.  `hand_over` queues a job of
pieces for the thread; the caller goes on with its own work and then
`join`s the job, running the pieces the drawer has not taken.  A cold
session draws its first two blocks while the drawer builds its template:
the build is pure Python, and the draw is one call that releases the
interpreter lock for its whole length.

Each block of draws is cut into pieces.  `ahead` hands the next block to
the drawer thread while the calling thread samples the current one; when
the caller comes to that block it draws the pieces the drawer has not
taken yet, and waits only for the one the drawer is drawing.  numpy
releases the interpreter lock while it fills a piece, so the two overlap.

The drawer thread runs at idle priority (SCHED_IDLE, where the platform
has it): it takes only CPU time nothing else wants, and never preempts its
caller when the scheduler puts both on one CPU.  At normal priority it
could, and the caller then sat in the run queue while the drawer drew the
whole block.  Together with the pieces, a drawer that gets no CPU costs
its caller at most the piece it holds.

The daemon thread is started by the first job handed over and serves every
later one, in request order; each caller waits only on its own jobs, so callers
on several threads can share it.  A forked child has no copy of the thread
and starts its own when asked.

`protocol` imports this module on first use, so a process that runs no
session longer than one piece neither loads it nor starts the thread.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from queue import SimpleQueue

_requests: SimpleQueue | None = None
_lock = threading.Lock()


class _Job:
    """Pieces of work, each run once, by whichever thread takes it first.

    Both threads take pieces from the front, so each runs its pieces in
    forward order.  The drawer takes and runs each piece holding `_running`;
    once no piece is left, that lock is free only when no piece is running.
    """

    def __init__(self, pieces):
        self._pieces = deque(pieces)
        self._running = threading.Lock()
        self._error: BaseException | None = None

    def _run_next(self) -> bool:
        """Run the next piece, if one is left; keep the first error."""
        try:
            piece = self._pieces.popleft()
        except IndexError:  # the other thread took the last one
            return False
        try:
            piece()
        except BaseException as exc:  # raised again by `join`
            if self._error is None:
                self._error = exc
        return True

    def work(self):
        """Run the pieces no thread has taken, until none is left."""
        while True:
            with self._running:
                if not self._run_next():
                    return

    def join(self):
        """Run the pieces left, wait for the others; raise a piece's exception."""
        while self._run_next():
            pass
        with self._running:
            pass
        if self._error is not None:
            raise self._error

    def cancel(self):
        """Drop the pieces no thread has taken; wait for the one being run."""
        self._pieces.clear()
        with self._running:
            pass


def _serve(requests: SimpleQueue):
    if hasattr(os, "SCHED_IDLE"):  # run only on CPU time nothing else wants
        try:
            os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
        except OSError:
            pass
    while True:
        requests.get().work()


def _started() -> SimpleQueue:
    """The request queue of the drawer thread, which this starts if need be."""
    global _requests
    with _lock:
        if _requests is None:
            _requests = SimpleQueue()
            threading.Thread(target=_serve, args=(_requests,), name="spdcqkd-drawer",
                             daemon=True).start()
        return _requests


def _forget():
    """In a forked child, which has no drawer thread: start a new one when asked."""
    global _requests, _lock
    _requests, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)


def hand_over(pieces) -> _Job:
    """A job of `pieces`, zero-argument callables, queued for the drawer
    thread, which this starts if need be; `join` the job to have them run.
    A job of no pieces is not queued."""
    job = _Job(pieces)
    if job._pieces:
        _started().put(job)
    return job


def ahead(jobs):
    """Each `result` of `jobs`, an iterable of (result, pieces), once its
    pieces have run; in order.

    The pieces of a job are zero-argument callables that build its result.
    Exactly one job is in flight: the drawer thread runs the next job's
    pieces while the caller works on the result it was given, and the
    caller runs whatever pieces of that job are left when it asks for it.
    An exception of a piece is raised here, with its type and message.
    Closing the iterator early drops the pieces of the job in flight that
    have not started and waits for the ones that have.
    """
    jobs = iter(jobs)

    def next_job():
        item = next(jobs, None)
        return None if item is None else (item[0], hand_over(item[1]))

    queued = next_job()
    try:
        while queued is not None:
            result, job = queued
            queued = None
            job.join()
            queued = next_job()
            yield result
    finally:
        if queued is not None:
            queued[1].cancel()
