"""Micro-batching executor: coalesce concurrent queries into one scan.

Under concurrent load, per-query fixed costs (Python dispatch, one kernel
launch per query) dominate a Hamming scan.  The :class:`MicroBatcher`
exploits that queries are *combinable*: requests submitted concurrently
are queued and run as one call of the supplied ``execute_batch`` function
— for the serving gateway that is one vectorized scan per group of
like queries in the batch (see
:meth:`repro.index.linear_scan.LinearScanIndex.search_batch`).

The batcher keeps no thread: the caller runs.  ``submit`` and
``submit_many`` only enqueue and return futures.  A waiter's ``result()``
or ``exception()`` leads the next batch itself when no batch is running —
it takes the queue head (up to ``max_batch_size``) and executes it on its
own thread — and otherwise waits for the running batch to finish, then
looks again.  So an idle server runs a lone request on the thread that
asked, with no hand-off, while a busy one coalesces exactly what queued
behind the running batch: batch size tracks arrival rate x scan time with
no timer, and ``submit_many`` lands a whole group under one lock hold, so
it is taken as one batch.  Callers block on ``result()`` exactly as if the
query had run inline; a batch function failure propagates to every member
of the failed batch, a future cancelled while still queued is dropped
when its batch is taken, and ``close(drain=True)`` runs what is left on
the closing thread.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, TimeoutError as FutureTimeout
from typing import Any, Callable, Sequence

from ..errors import ValidationError
from ..obs.metrics import LatencyHistogram


class BatcherClosedError(RuntimeError):
    """Submit was called on a batcher after :meth:`MicroBatcher.close`."""


class _BatchFuture(Future):
    """A future whose waiter runs queued batches until it is resolved.

    Only ``result()`` and ``exception()`` lead; ``concurrent.futures.wait``
    and ``as_completed`` run nothing, so they wait for another leader.
    """

    def __init__(self, batcher: "MicroBatcher") -> None:
        super().__init__()
        self._batcher = batcher

    def result(self, timeout: "float | None" = None) -> Any:
        self._batcher._lead_until(self.done, timeout)
        return super().result(timeout=0)

    def exception(self, timeout: "float | None" = None,
                  ) -> "BaseException | None":
        self._batcher._lead_until(self.done, timeout)
        return super().exception(timeout=0)


class MicroBatcher:
    """Queue whose waiters execute its requests in batches."""

    def __init__(self, execute_batch: "Callable[[list[Any]], Sequence[Any]]",
                 *, max_batch_size: int = 16,
                 queue_wait: "LatencyHistogram | None" = None) -> None:
        if max_batch_size < 1:
            raise ValidationError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self._execute_batch = execute_batch
        self.max_batch_size = max_batch_size
        # Where enqueue -> batch-start times are recorded (None: nowhere).
        self._queue_wait = queue_wait
        self._lock = threading.Lock()
        # Notified whenever a leader steps down or futures fail on close.
        self._changed = threading.Condition(self._lock)
        # (request, future, enqueue time) in arrival order.
        self._queue: deque[tuple[Any, Future, float]] = deque()
        self._leading = False
        self._closed = False
        # Stats (read via .stats; written under the lock).
        self._num_batches = 0
        self._num_requests = 0
        self._num_taken = 0
        self._largest_batch = 0

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #

    def submit(self, request: Any) -> "Future[Any]":
        """Enqueue one request; the Future resolves to its result."""
        return self.submit_many([request])[0]

    def submit_many(self, requests: Sequence[Any]) -> "list[Future[Any]]":
        """Enqueue several requests under one lock hold: the next leader
        sees them together, so they share batches."""
        enqueued = time.perf_counter()
        entries = [(request, _BatchFuture(self), enqueued)
                   for request in requests]
        with self._lock:
            if self._closed:
                raise BatcherClosedError("submit on a closed MicroBatcher")
            self._num_requests += len(entries)
            self._queue.extend(entries)
        return [future for _, future, _ in entries]

    @property
    def stats(self) -> dict:
        """Batch-formation accounting (mean batch size is the win metric).

        ``requests`` counts submissions; ``mean_batch_size`` is over the
        requests a leader has *taken*, so work still queued does not
        inflate it.  ``queue_depth`` leaves out cancelled requests, which
        stay queued until a leader drops them.
        """
        with self._lock:
            batches, requests = self._num_batches, self._num_requests
            taken = self._num_taken
            largest = self._largest_batch
            depth = sum(not future.cancelled() for _, future, _ in self._queue)
        return {
            "requests": requests,
            "batches": batches,
            "largest_batch": largest,
            "mean_batch_size": round(taken / batches, 3) if batches else 0.0,
            "queue_depth": depth,
        }

    # ------------------------------------------------------------------ #
    # Leader side
    # ------------------------------------------------------------------ #

    def _lead_until(self, done: "Callable[[], bool]",
                    timeout: "float | None") -> None:
        """Run queued batches on this thread until ``done()`` holds.

        While another thread leads, wait for it to step down; raise
        ``concurrent.futures.TimeoutError`` (the builtin on Python 3.11+)
        if ``timeout`` seconds pass first (a batch this thread is running
        is never interrupted).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                while not done() and (self._leading or not self._queue):
                    remaining = (None if deadline is None
                                 else deadline - time.monotonic())
                    if remaining is not None and remaining <= 0:
                        raise FutureTimeout("batch still running elsewhere")
                    self._changed.wait(remaining)
                if done():
                    return
                batch = self._take_batch()
                self._leading = True
            try:
                self._run(batch)
            finally:
                with self._lock:
                    self._leading = False
                    self._changed.notify_all()

    def _take_batch(self) -> "list[tuple[Any, Future, float]]":
        """Pop the queue head (up to ``max_batch_size``); caller holds the
        lock.

        Taking marks each future running, which is what makes a later
        ``cancel()`` fail instead of racing ``set_result``; futures that
        were cancelled while queued are dropped here.
        """
        taken = [self._queue.popleft() for _ in range(
            min(self.max_batch_size, len(self._queue)))]
        batch = [entry for entry in taken
                 if entry[1].set_running_or_notify_cancel()]
        if batch:
            self._num_batches += 1
            self._num_taken += len(batch)
            self._largest_batch = max(self._largest_batch, len(batch))
        return batch

    def _run(self, batch: "list[tuple[Any, Future, float]]") -> None:
        """Execute one taken batch and resolve its futures.

        An ``Exception`` fails every member; any other ``BaseException``
        (``KeyboardInterrupt``, ``SystemExit``) fails them too and then
        propagates on the leading thread.
        """
        if not batch:
            return
        requests = [request for request, _, _ in batch]
        try:
            if self._queue_wait is not None:
                started = time.perf_counter()
                for _, _, enqueued in batch:
                    self._queue_wait.record(started - enqueued)
            results = list(self._execute_batch(requests))
            if len(results) != len(requests):
                raise RuntimeError(
                    f"execute_batch returned {len(results)} results "
                    f"for {len(requests)} requests")
        except BaseException as exc:  # propagate to every waiter
            for _, future, _ in batch:
                future.set_exception(exc)
            if not isinstance(exc, Exception):
                raise
            return
        for (_, future, _), result in zip(batch, results):
            future.set_result(result)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self, *, drain: bool = True) -> None:
        """Stop accepting work; by default run what is queued first, on
        this thread.  Either way, return only after the running batch."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            abandoned: "list[tuple[Any, Future, float]]" = []
            if not drain:
                abandoned.extend(self._queue)
                self._queue.clear()
        for _, future, _ in abandoned:
            if future.set_running_or_notify_cancel():
                future.set_exception(
                    BatcherClosedError("MicroBatcher closed before execution"))
        with self._lock:
            self._changed.notify_all()
        self._lead_until(lambda: not self._queue and not self._leading, None)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
