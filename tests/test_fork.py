"""The ordered map that tables and spun share among forked workers: its
whole contract, with a trivial ``fn``. The callers' tests check only that
their bytes and bits are the same for any number of usable CPUs, and
whatever a worker does."""

import errno
import gc
import os
import time

import pytest

from focsim._fork import ordered_map


def _usable(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _by_whom(item: int) -> tuple[int, int]:
    return item, os.getpid()


@pytest.mark.parametrize(
    "cpus, items, workers",
    [(8, 1, 1), (8, 2, 2), (8, 3, 3), (1, 3, 1), (2, 5, 2), (3, 7, 3)],
)
def test_worker_i_mod_k_computes_item_i(cpus, items, workers, forks, monkeypatch):
    # one worker per usable CPU, at most one per item; worker 0 is this process
    _usable(monkeypatch, cpus)
    got = list(ordered_map(_by_whom, range(items)))
    assert len(forks) == workers - 1
    assert len(set(forks)) == len(forks) and os.getpid() not in forks
    by = [os.getpid(), *forks]
    assert got == [(i, by[i % workers]) for i in range(items)]


@pytest.mark.parametrize(
    "failure", ["exit at its first item", "exit at its second item", "no fork", "no pipe"]
)
def test_the_results_do_not_depend_on_a_worker(failure, forks, monkeypatch):
    # of two workers, the forked one owns items 1 and 3; whatever it does
    # not send, this process computes
    parent = os.getpid()
    _usable(monkeypatch, 2)
    if failure == "no fork":

        def no_fork():
            raise OSError(errno.EAGAIN, "no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
    elif failure == "no pipe":

        def no_pipe():
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(os, "pipe", no_pipe)
    dies_at = {"exit at its first item": 1, "exit at its second item": 3}.get(failure)

    def fn(item: int) -> tuple[int, bool]:
        if os.getpid() != parent and item == dies_at:
            os._exit(1)
        return item * item, os.getpid() == parent

    ours = {0, 2, 4} | ({3} if dies_at == 3 else {1, 3})
    assert list(ordered_map(fn, range(5))) == [(i * i, i in ours) for i in range(5)]
    assert len(forks) == (1 if dies_at else 0)


def test_an_exception_in_a_worker_is_raised_again_by_the_caller(tmp_path, forks, monkeypatch):
    # the forked one of two workers owns item 3; it raises there, and this
    # process, computing the item in its place, raises the same
    _usable(monkeypatch, 2)

    def fn(item: int) -> int:
        if item == 3:
            (tmp_path / str(os.getpid())).touch()
            raise ValueError(f"item {item}")
        return item

    got = []
    with pytest.raises(ValueError, match="^item 3$"):
        for result in ordered_map(fn, range(5)):
            got.append(result)
    assert got == [0, 1, 2]
    assert {p.name for p in tmp_path.iterdir()} == {str(os.getpid()), str(forks[0])}


def test_workers_are_reaped_however_the_map_ends(forks, monkeypatch):
    # five items among three workers: this process computes items 0 and 3
    parent = os.getpid()
    _usable(monkeypatch, 3)
    results = ordered_map(_by_whom, range(5))
    next(results), next(results), next(results)
    results.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    results = ordered_map(_by_whom, range(5))
    next(results), next(results)
    del results
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    def failing(item: int) -> int:
        if os.getpid() == parent and item == 3:
            raise MemoryError
        return item

    with pytest.raises(MemoryError):
        list(ordered_map(failing, range(5)))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(forks) == 3 * 2


def test_a_worker_leaves_an_earlier_maps_workers_alone(monkeypatch):
    # a worker that collects a stale map must not stop the workers that map
    # forked: they are its siblings, not its own
    parent = os.getpid()
    _usable(monkeypatch, 2)

    def collecting(item: int) -> int:
        if os.getpid() != parent:
            gc.collect()
        return item

    gc.disable()
    try:
        # each result is larger than a pipe holds, so the stale map's
        # worker blocks on its pipe and outlives this test's own map
        stale = ordered_map(lambda item: bytes(1 << 20), range(4))
        next(stale)
        cycle = [stale]
        cycle.append(cycle)  # only a collection frees it now
        del stale, cycle
        assert list(ordered_map(collecting, range(4))) == list(range(4))
        assert os.waitpid(-1, os.WNOHANG) == (0, 0)
    finally:
        gc.enable()
        gc.collect()


def test_each_result_reaches_the_caller_as_soon_as_it_is_computed(tmp_path, monkeypatch):
    # of two workers, the forked one computes items 1 and 3; it computes
    # item 3 only once this process has taken item 1 and computed item 2,
    # so a result held back in the worker's pipe buffer would stall both
    _usable(monkeypatch, 2)
    parent, signal = os.getpid(), tmp_path / "item 2 computed"

    def fn(item: int) -> tuple[int, bool]:
        if os.getpid() == parent:
            if item == 2:
                signal.touch()
            return item, True
        if item == 3:
            deadline = time.monotonic() + 10.0
            while not signal.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
        return item, signal.exists() or item != 3

    assert list(ordered_map(fn, range(4))) == [(i, True) for i in range(4)]
