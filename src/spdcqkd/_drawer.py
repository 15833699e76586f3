"""One background thread that shares the next step of its caller's work.

`protocol` gives it two kinds of work: the Philox words of a session longer
than one piece, `protocol.DRAW_PIECE_ROUNDS`, and the template build of such
a session whose physics config is not cached.  `hand_over` queues a job of
pieces for the thread; the caller goes on with its own work and then
`join`s the job, running the pieces the drawer has not taken.  A cold
session draws its first two blocks while the drawer builds its template:
the build is pure Python, and the draw is one call that releases the
interpreter lock for its whole length.

Each block of draws is cut into pieces.  `ahead` keeps the drawer a block
ahead: when the caller asks for block j it hands over block j + 1, whose
buffer the caller has just freed, before it joins block j, so the drawer
goes from block j's pieces to block j + 1's without sleeping, and draws
block j + 1 while the caller samples block j.  Joining a block, the
caller draws the pieces the drawer has not taken yet; while the drawer
still draws that block's last piece, the caller draws pieces of the next
block instead of waiting, and waits only when none is left.  numpy
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

    def join(self, meanwhile: _Job | None = None):
        """Run the pieces left, wait for the others; raise a piece's exception.

        While another thread still runs a piece of this job, run the pieces
        of `meanwhile`, a job handed over after this one, and block only
        once none of them is left; their exceptions stay with `meanwhile`.
        """
        while self._run_next():
            pass
        while not self._running.acquire(blocking=False):
            if meanwhile is None or not meanwhile._run_next():
                self._running.acquire()
                break
        self._running.release()
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
    Asked for job j, this hands job j + 1 to the drawer thread before it
    joins job j, so at most two jobs are in flight: the drawer goes from
    job j's pieces to job j + 1's without waiting, and goes on with them
    while the caller works on the result it was given.  Joining job j, the
    caller runs the pieces of job j left, then, while the drawer still runs
    one of job j's, the pieces of job j + 1; it waits only when none is
    left.  An exception of a piece is raised when its job's result is asked
    for, with its type and message.  Closing the iterator early drops the
    pieces of the jobs in flight that have not started and waits for the
    ones that have.
    """
    jobs = iter(jobs)
    in_flight = []  # (result, job) handed over and not yet yielded, in order

    def hand_over_next():
        item = next(jobs, None)
        if item is not None:
            in_flight.append((item[0], hand_over(item[1])))

    try:
        hand_over_next()
        while in_flight:
            hand_over_next()
            result, job = in_flight[0]
            job.join(in_flight[1][1] if len(in_flight) > 1 else None)
            del in_flight[0]
            yield result
    finally:
        for _, job in in_flight:
            job.cancel()
