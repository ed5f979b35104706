"""The ordered map that tables and spun share among forked workers."""

import os
import time

import pytest

from focsim._fork import ordered_map


def test_each_result_reaches_the_caller_as_soon_as_it_is_computed(tmp_path, monkeypatch):
    # of two workers, the forked one computes items 1 and 3; it computes
    # item 3 only once this process has taken item 1 and computed item 2,
    # so a result held back in the worker's pipe buffer would stall both
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
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
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
