"""Deterministic crash-point fault injection for the durability tier.

A crash-safety claim is only as good as the crashes it was tested against.
This module names every dangerous instant in the WAL/snapshot write paths
(mid-record, before/after ``fsync``, before the atomic ``os.replace`` of a
snapshot file or manifest, before the log truncate) and lets a test *trip*
one of them on its Nth hit: the injected :class:`CrashPoint` aborts the
write exactly there, leaving the on-disk state as a ``kill -9`` at that
instant would — a torn record, an orphaned temp file, a committed snapshot
with an untruncated log.  Recovery is then exercised against that state and
compared byte-for-byte with a never-crashed oracle
(``tests/store/test_crash_recovery.py``).

Injection is deterministic (armed point + hit ordinal, no randomness) so a
failing crash scenario replays exactly.  The default injector is inert:
``fire()`` on an unarmed point is a counter increment and nothing else, so
production paths pay nothing measurable.
"""

from __future__ import annotations

from ..errors import ReproError


class CrashPoint(ReproError):
    """The simulated ``kill -9``: raised at a tripped injection point.

    Deliberately *not* a :class:`~repro.errors.StoreError`: durability code
    must never catch it as a storage failure — it models the process dying,
    so it propagates out of whatever operation was in flight.
    """

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(f"injected crash at {point!r} (hit {hit})")
        self.point = point
        self.hit = hit


# Every named instant the durability write paths can die at.  Tests iterate
# this list to prove recovery from *each* of them; the WAL/snapshot code
# fires them in exactly these places:
#
# * ``wal.mid_record``        — record header written, body not yet (a torn
#                               tail that replay must drop),
# * ``wal.before_fsync``      — full record in the OS buffer, not yet synced,
# * ``wal.after_fsync``       — record durable, the in-memory apply never ran,
# * ``wal.truncate``          — before the truncated log replaces the old one
#                               (the checkpoint is committed, the log is not
#                               yet trimmed),
# * ``snapshot.after_tmp_write``      — snapshot temp files written + fsynced,
#                                       manifest still points at the previous
#                                       checkpoint,
# * ``snapshot.before_manifest_replace`` — everything staged, the atomic
#                                       commit (manifest replace) not yet done,
# * ``snapshot.after_manifest_replace`` — checkpoint committed; garbage
#                                       collection and log truncation pending.
CRASH_POINTS: tuple[str, ...] = (
    "wal.mid_record",
    "wal.before_fsync",
    "wal.after_fsync",
    "wal.truncate",
    "snapshot.after_tmp_write",
    "snapshot.before_manifest_replace",
    "snapshot.after_manifest_replace",
)


class FaultInjector:
    """Arm a named crash point to trip on its Nth hit.

    One injector is shared by a :class:`~repro.store.wal.WriteAheadLog` and
    its :class:`~repro.store.snapshot.SnapshotManager`, so a scenario can
    count hits across both (e.g. "die at the third fsync overall").
    """

    def __init__(self) -> None:
        self._armed: dict[str, int] = {}
        self._hits: dict[str, int] = {}

    def arm(self, point: str, *, hits: int = 1) -> None:
        """Trip ``point`` on its ``hits``-th :meth:`fire` from now.

        Hit counting restarts on arm, so scenarios compose: arm, run,
        recover, arm the same point deeper, run again.
        """
        if point not in CRASH_POINTS:
            raise ValueError(f"unknown crash point {point!r}; "
                             f"expected one of {CRASH_POINTS}")
        if hits < 1:
            raise ValueError(f"hits must be >= 1, got {hits}")
        self._armed[point] = hits
        self._hits[point] = 0

    def reset(self) -> None:
        """Disarm everything and zero every hit counter."""
        self._armed.clear()
        self._hits.clear()

    def fire(self, point: str) -> None:
        """Record one pass through ``point``; raise if it is due to trip.

        The point is disarmed as it trips — recovery code running after
        the "crash" reuses the same injector without re-dying.
        """
        count = self._hits.get(point, 0) + 1
        self._hits[point] = count
        if self._armed.get(point) == count:
            del self._armed[point]
            raise CrashPoint(point, count)


#: Shared inert injector: the default for WAL/snapshot instances that were
#: not handed an explicit one.  Tests construct their own.
NO_FAULTS = FaultInjector()
