"""Micro-batching executor: coalesce concurrent queries into one scan.

Under concurrent load, per-query fixed costs (Python dispatch, one kernel
launch per query) dominate a Hamming scan.  The :class:`MicroBatcher`
exploits that queries are *combinable*: requests submitted concurrently
are queued, and a single worker thread drains up to ``max_batch_size`` of
them into one call of the supplied ``execute_batch`` function — for the
sharded index that is one vectorized distance-matrix scan covering every
query in the batch (see :meth:`ShardedHammingIndex.search_batch`).

Batches form *naturally*: the worker takes whatever is queued (up to
``max_batch_size``) the instant it is free, so a batch larger than one is
exactly the requests that arrived while the previous batch was executing.
Batch size tracks arrival rate x scan time with no timer — an idle server
dispatches a lone request at once, a busy one coalesces more the further
it falls behind — and ``submit_many`` lands a whole group under one lock
hold, so it is taken as one batch.  ``submit`` returns a
:class:`concurrent.futures.Future`; callers block on ``result()`` exactly
as if the query had run inline, a batch function failure propagates to
every member of the failed batch, and a future cancelled while still
queued is dropped when its batch is taken.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Any, Callable, Sequence

from ..errors import ValidationError
from .metrics import LatencyHistogram


class BatcherClosedError(RuntimeError):
    """Submit was called on a batcher after :meth:`MicroBatcher.close`."""


class MicroBatcher:
    """Queue + single worker thread that executes requests in batches."""

    def __init__(self, execute_batch: "Callable[[list[Any]], Sequence[Any]]",
                 *, max_batch_size: int = 16,
                 queue_wait: "LatencyHistogram | None" = None,
                 name: str = "microbatch") -> None:
        if max_batch_size < 1:
            raise ValidationError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self._execute_batch = execute_batch
        self.max_batch_size = max_batch_size
        # Where enqueue -> batch-start times are recorded (None: nowhere).
        self._queue_wait = queue_wait
        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        # (request, future, enqueue time) in arrival order.
        self._queue: deque[tuple[Any, Future, float]] = deque()
        self._closed = False
        # Stats (read via .stats; written only by the worker/submitters
        # under the lock).
        self._num_batches = 0
        self._num_requests = 0
        self._num_taken = 0
        self._largest_batch = 0
        self._worker = threading.Thread(target=self._run, name=name, daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #

    def submit(self, request: Any) -> "Future[Any]":
        """Enqueue one request; the Future resolves to its result."""
        return self.submit_many([request])[0]

    def submit_many(self, requests: Sequence[Any]) -> "list[Future[Any]]":
        """Enqueue several requests under one lock hold: the worker sees
        them together, so they share batches."""
        enqueued = time.perf_counter()
        entries = [(request, Future(), enqueued) for request in requests]
        with self._lock:
            if self._closed:
                raise BatcherClosedError("submit on a closed MicroBatcher")
            self._num_requests += len(entries)
            self._queue.extend(entries)
            self._has_work.notify()
        return [future for _, future, _ in entries]

    @property
    def stats(self) -> dict:
        """Batch-formation accounting (mean batch size is the win metric).

        ``requests`` counts submissions; ``mean_batch_size`` is over the
        requests the worker has *taken*, so work still queued does not
        inflate it.
        """
        with self._lock:
            batches, requests = self._num_batches, self._num_requests
            taken = self._num_taken
            largest, depth = self._largest_batch, len(self._queue)
        return {
            "requests": requests,
            "batches": batches,
            "largest_batch": largest,
            "mean_batch_size": round(taken / batches, 3) if batches else 0.0,
            "queue_depth": depth,
        }

    # ------------------------------------------------------------------ #
    # Worker side
    # ------------------------------------------------------------------ #

    def _take_batch(self) -> "list[tuple[Any, Future, float]] | None":
        """Block until work is queued, then take it at once (up to
        ``max_batch_size``); ``None`` means shut down.

        Taking marks each future running, which is what makes a later
        ``cancel()`` fail instead of racing ``set_result``; futures that
        were cancelled while queued are dropped here.
        """
        with self._has_work:
            while True:
                while not self._queue and not self._closed:
                    self._has_work.wait()
                if not self._queue:
                    return None
                taken = [self._queue.popleft() for _ in range(
                    min(self.max_batch_size, len(self._queue)))]
                batch = [entry for entry in taken
                         if entry[1].set_running_or_notify_cancel()]
                if batch:
                    self._num_batches += 1
                    self._num_taken += len(batch)
                    self._largest_batch = max(self._largest_batch, len(batch))
                    return batch

    def _run(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            if self._queue_wait is not None:
                started = time.perf_counter()
                for _, _, enqueued in batch:
                    self._queue_wait.record(started - enqueued)
            requests = [request for request, _, _ in batch]
            try:
                results = list(self._execute_batch(requests))
                if len(results) != len(requests):
                    raise RuntimeError(
                        f"execute_batch returned {len(results)} results "
                        f"for {len(requests)} requests")
            except BaseException as exc:  # propagate to every waiter
                for _, future, _ in batch:
                    future.set_exception(exc)
                continue
            for (_, future, _), result in zip(batch, results):
                future.set_result(result)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self, *, drain: bool = True) -> None:
        """Stop accepting work; by default process what is queued first."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            abandoned: "list[tuple[Any, Future, float]]" = []
            if not drain:
                abandoned.extend(self._queue)
                self._queue.clear()
            self._has_work.notify_all()
        self._worker.join()
        # Drain any batches the worker left behind on shutdown race.
        with self._lock:
            abandoned.extend(self._queue)
            self._queue.clear()
        for _, future, _ in abandoned:
            if future.set_running_or_notify_cancel():
                future.set_exception(
                    BatcherClosedError("MicroBatcher closed before execution"))

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
