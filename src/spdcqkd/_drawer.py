"""One background thread that shares the next step of its caller's work.

`protocol` gives it the uniform draws of a session longer than one chunk.
Each block of draws is cut into pieces.  `ahead` hands the next block to
the drawer thread while the calling thread samples the current one; when
the caller comes to that block it draws the pieces the drawer has not
taken yet, and waits only for the ones the drawer is drawing.  numpy
releases the interpreter lock while it fills a piece, so the two overlap.

The drawer thread runs at idle priority (SCHED_IDLE, where the platform
has it): it takes only CPU time nothing else wants, and never preempts its
caller when the scheduler puts both on one CPU.  At normal priority it
could, and the caller then sat in the run queue while the drawer drew the
whole block.  Together with the pieces, a drawer that gets no CPU costs
its caller at most the piece it holds.

The daemon thread is started by the first `ahead` and serves every later
one, in request order; each caller waits only on its own jobs, so callers
on several threads can share it.  A forked child has no copy of the thread
and starts its own when asked.

`protocol` imports this module on first use, so a process that runs no
session longer than one chunk neither loads it nor starts the thread.
"""

from __future__ import annotations

import os
import threading
from queue import SimpleQueue

_requests: SimpleQueue | None = None
_lock = threading.Lock()


class _Job:
    """Pieces of work, each run once, by whichever thread takes it first."""

    def __init__(self, pieces):
        self._pieces = list(pieces)
        self._count = len(self._pieces)
        self._taken = 0
        self._left = self._count  # pieces not yet run to the end
        self._error: BaseException | None = None
        self._lock = threading.Lock()
        self._done = threading.Lock()  # held until no piece is left
        self._done.acquire()
        if not self._count:
            self._done.release()

    def _take(self):
        with self._lock:
            if self._taken == self._count:
                return None
            piece = self._pieces[self._taken]
            self._taken += 1
            if self._taken == self._count:
                self._pieces = None  # a stale job in the queue holds no data
            return piece

    def _finish(self, error: BaseException | None = None):
        with self._lock:
            if self._error is None:
                self._error = error
            self._left -= 1
            if not self._left:
                self._done.release()

    def work(self):
        """Run the pieces no thread has taken, until none is left."""
        while (piece := self._take()) is not None:
            try:
                piece()
            except BaseException as exc:  # raised again by `join`
                self._finish(exc)
            else:
                self._finish()

    def join(self):
        """Run the pieces left, wait for the others; raise a piece's exception."""
        self.work()
        self._done.acquire()
        if self._error is not None:
            raise self._error

    def cancel(self):
        """Drop the pieces no thread has taken; wait for the ones being run."""
        with self._lock:
            dropped = self._count - self._taken
            self._taken, self._pieces = self._count, None
            self._left -= dropped
            if dropped and not self._left:
                self._done.release()
        self._done.acquire()


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
    requests = _started()
    jobs = iter(jobs)

    def hand_over():
        item = next(jobs, None)
        if item is None:
            return None
        job = _Job(item[1])
        requests.put(job)
        return item[0], job

    queued = hand_over()
    try:
        while queued is not None:
            result, job = queued
            queued = None
            job.join()
            queued = hand_over()
            yield result
    finally:
        if queued is not None:
            queued[1].cancel()
