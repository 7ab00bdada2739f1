"""Model test of :class:`repro.index.hamming.CodeTable`.

The model is a plain list of ``[name, code, alive]`` rows.  Seeded random
interleavings of append / extend / kill / re-append of a killed name /
compact / restore run against both, and after every step the table must
read exactly like the model.  Snapshots taken along the way must keep
reading the rows they were taken with, whatever the table does next: that
is what lets a scan on another thread run without the lock.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.index.hamming import CodeTable

STEPS = 400
POLICIES = [(), (3, 0.1), (1, 0.5)]  # compact_due(min_dead, max_fraction)


def due(rows: int, dead: int, min_dead: int = 64,
        max_fraction: float = 0.25) -> bool:
    return dead > 0 and dead >= max(min_dead, int(rows * max_fraction))


def check(table: CodeTable, model: list, ever: set) -> None:
    """The table reads like the model, through every accessor."""
    names, codes, alive = table.snapshot()
    rows = len(model)
    dead = sum(not row[2] for row in model)
    assert codes.shape == (rows, table.words)
    assert names[:rows] == [row[0] for row in model]
    assert np.array_equal(codes, np.array([row[1] for row in model],
                                          dtype=np.uint64
                                          ).reshape(rows, table.words))
    if dead:
        assert alive.tolist() == [row[2] for row in model]
    else:
        assert alive is None
    assert table.rows == rows
    assert len(table) == rows - dead
    assert table.dead_count == dead
    assert table.dead_fraction == (dead / rows if rows else 0.0)
    for policy in POLICIES:
        assert table.compact_due(*policy) == due(rows, dead, *policy)
    alive_row = {row[0]: i for i, row in enumerate(model) if row[2]}
    for name in ever:
        assert table.row_of(name) == alive_row.get(name)
        assert (name in table) == (name in alive_row)
        code = table.code_of(name)
        if name in alive_row:
            assert code.tolist() == list(model[alive_row[name]][1])
        else:
            assert code is None
    asked = sorted(ever)[::2]
    mask, kept = table.select(asked + asked)
    assert kept == [name for name in asked if name in alive_row]
    assert np.flatnonzero(mask).tolist() == sorted(alive_row[name]
                                                   for name in kept)


def freeze(table: CodeTable) -> tuple:
    """A snapshot plus deep copies of what it read when it was taken."""
    names, codes, alive = snapshot = table.snapshot()
    return snapshot, (names[:codes.shape[0]], codes.copy(),
                      None if alive is None else alive.copy())


def assert_unmoved(frozen: tuple) -> None:
    (names, codes, alive), (names_then, codes_then, alive_then) = frozen
    assert names[:codes.shape[0]] == names_then
    assert np.array_equal(codes, codes_then)
    if alive_then is None:
        assert alive is None
    else:
        assert np.array_equal(alive, alive_then)


@pytest.mark.parametrize("words", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_interleavings_match_the_model(words, seed):
    rng = np.random.default_rng(seed)
    table = CodeTable(words)
    model: list = []
    ever: set = set()
    held: list = []       # outstanding snapshots
    fresh = iter(range(10**6))
    reallocations = 0

    def new_code():
        return tuple(int(word) for word in
                     rng.integers(0, 2**63, size=words, dtype=np.uint64))

    def alive_names():
        return [row[0] for row in model if row[2]]

    def killed_names():
        alive = set(alive_names())
        return sorted({row[0] for row in model} - alive)

    for step in range(STEPS):
        before = table.snapshot()[1]
        op = rng.choice(["append", "extend", "kill", "reappend", "compact",
                         "restore"], p=[0.3, 0.2, 0.25, 0.1, 0.1, 0.05])
        if op == "append":
            name, code = f"n{next(fresh)}", new_code()
            assert table.append(name, np.array(code, dtype=np.uint64)) \
                == len(model)
            model.append([name, code, True])
            ever.add(name)
        elif op == "extend":
            count = int(rng.integers(0, 40))
            batch = [(f"n{next(fresh)}", new_code()) for _ in range(count)]
            first = table.extend(
                [name for name, _ in batch],
                np.array([code for _, code in batch],
                         dtype=np.uint64).reshape(count, words))
            assert first == len(model)
            model.extend([name, code, True] for name, code in batch)
            ever.update(name for name, _ in batch)
        elif op == "kill" and alive_names():
            name = str(rng.choice(alive_names()))
            row = table.kill(name)
            assert model[row][0] == name and model[row][2]
            model[row][2] = False
        elif op == "reappend" and killed_names():
            # An updated image: its dead row stays, the name returns at
            # the end.
            name, code = str(rng.choice(killed_names())), new_code()
            table.append(name, np.array(code, dtype=np.uint64))
            model.append([name, code, True])
        elif op == "compact":
            epoch = table.epoch
            table.compact()
            assert table.epoch == epoch + any(not row[2] for row in model)
            model[:] = [row for row in model if row[2]]
        elif op == "restore":
            # Physical state as a checkpoint holds it: dead rows in place.
            order = rng.permutation(len(model)).tolist()
            model[:] = [list(model[i]) for i in order]
            table.restore(
                [row[0] for row in model],
                np.array([row[1] for row in model],
                         dtype=np.uint64).reshape(len(model), words),
                np.array([row[2] for row in model], dtype=bool))
        after = table.snapshot()[1]
        if op in ("append", "extend", "reappend") and before.shape[0] \
                and not np.shares_memory(before, after):
            reallocations += 1
        check(table, model, ever)
        for frozen in held:
            assert_unmoved(frozen)
        if step % 7 == 0:
            held = held[-4:] + [freeze(table)]
    assert reallocations >= 3   # capacity doubled under held snapshots


def test_snapshot_survives_kill_growth_and_compaction():
    """The in-flight invariant, step by step on a small table."""
    table = CodeTable(1)
    table.extend(list("abcdefgh"),
                 np.arange(8, dtype=np.uint64)[:, None])
    table.kill("c")
    frozen = freeze(table)
    (_, codes, alive) = frozen[0]
    assert alive.tolist() == [True, True, False] + [True] * 5

    table.kill("f")                                   # mask is swapped
    assert_unmoved(frozen)
    table.append("i", np.array([8], dtype=np.uint64))  # in spare capacity
    assert_unmoved(frozen)
    grown = 0
    while np.shares_memory(codes, table.snapshot()[1]):  # until it grows
        table.append(f"x{grown}", np.array([100 + grown], dtype=np.uint64))
        grown += 1
    assert_unmoved(frozen)
    table.compact()                                   # rows renumbered
    assert_unmoved(frozen)
    assert table.row_of("d") == 2 and frozen[0][0][3] == "d"


def test_rejected_writes_leave_the_table_as_it_was():
    table = CodeTable(2)
    codes = np.arange(6, dtype=np.uint64).reshape(3, 2)
    table.extend(["a", "b", "c"], codes)
    model = [[name, tuple(code.tolist()), True]
             for name, code in zip("abc", codes)]
    one = np.zeros(2, dtype=np.uint64)
    with pytest.raises(ValidationError):
        table.append("a", one)                         # alive already
    with pytest.raises(ValidationError):
        table.extend(["x", "x"], np.zeros((2, 2), dtype=np.uint64))
    with pytest.raises(ValidationError):
        table.append("x", np.zeros(1, dtype=np.uint64))  # wrong width
    with pytest.raises(ValidationError):
        table.append("x", np.zeros((1, 2), dtype=np.uint64))
    with pytest.raises(ValidationError):
        table.kill("zzz")
    with pytest.raises(ValidationError):
        table.restore(["p", "p"], np.zeros((2, 2), dtype=np.uint64))
    with pytest.raises(ValidationError):
        table.restore(["p", "q"], np.zeros((2, 2), dtype=np.uint64),
                      np.ones(3, dtype=bool))
    with pytest.raises(ValidationError):
        table.restore(["p"], np.zeros((2, 2), dtype=np.uint64))
    check(table, model, {"a", "b", "c", "x", "p", "zzz"})
    # The same name on two rows is fine while at most one is alive.
    table.restore(["p", "p"], np.zeros((2, 2), dtype=np.uint64),
                  np.array([False, True]))
    assert table.row_of("p") == 1 and table.dead_count == 1


def test_restore_adopts_a_read_only_matrix_and_copies_on_growth():
    codes = np.arange(4, dtype=np.uint64)[:, None]
    codes.setflags(write=False)                        # an mmap stand-in
    table = CodeTable(1)
    table.restore(list("abcd"), codes)
    assert np.shares_memory(table.snapshot()[1], codes)
    table.append("e", np.array([9], dtype=np.uint64))
    names, grown, _ = table.snapshot()
    assert not np.shares_memory(grown, codes)
    assert grown[:, 0].tolist() == [0, 1, 2, 3, 9] and names[4] == "e"


def test_readers_never_see_a_torn_snapshot_while_a_writer_churns():
    """More threads than cores, a short switch interval, one second: every
    snapshot a reader takes pairs each name with its own code (row ``i``
    named ``n<v>`` holds ``v`` in every word), and has a mask of its own
    length, while one writer appends, kills, compacts and outgrows the
    matrix under it."""
    table = CodeTable(2)
    stop = threading.Event()
    failures: list = []
    snapshots_read = [0]

    def read():
        while not stop.is_set():
            names, codes, alive = table.snapshot()
            values = [int(name[1:]) for name in names[:codes.shape[0]]]
            if codes.tolist() != [[value, value] for value in values]:
                failures.append("a row does not hold its name's code")
            if alive is not None and alive.shape[0] != codes.shape[0]:
                failures.append("mask and matrix disagree on the row count")
            mask, kept = table.select(names[:3])
            if int(mask.sum()) != len(kept):
                failures.append("select lost a row")
            snapshots_read[0] += 1

    def write():
        rng = np.random.default_rng(0)
        value = 0
        while not stop.is_set():
            for _ in range(int(rng.integers(1, 30))):
                table.append(f"n{value}",
                             np.array([value, value], dtype=np.uint64))
                value += 1
            names, codes, alive = table.snapshot()
            live = [name for name in names[:codes.shape[0]] if name in table]
            for name in rng.choice(live, size=len(live) // 3, replace=False):
                table.kill(str(name))
            if table.compact_due(5, 0.2):
                table.compact()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=read) for _ in range(6)]
    threads.append(threading.Thread(target=write))
    try:
        for thread in threads:
            thread.start()
        time.sleep(1.0)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert snapshots_read[0] > 0 and table.epoch > 0
