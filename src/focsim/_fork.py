"""An ordered map shared among the calling process and forked workers.

``ordered_map(fn, items)`` yields ``fn(item)`` for each item, in order. Of
k = min(usable CPUs, items) workers (``os.sched_getaffinity``; one where
the platform cannot fork or tell the usable CPUs), worker i mod k computes
item i. Worker 0 is the calling process; the others are forked when the
first result is taken, and each sends its results, pickled, through its
own pipe, where a full pipe holds it until the caller reads. The caller
never pickles its own results. Nothing sets the count.

Where a worker's stream ends early (fn raised in it, it died, or it could
not be forked), the caller computes that worker's items itself. So the
results, and any exception fn raises, are those of one process, whatever
the workers do. However the generator ends, its workers are killed and
reaped, by the process that forked them only.
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Callable, Generator, Sequence
from typing import NoReturn, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# what _receive returns where a worker's stream ended before the result
_ENDED = object()


def _workers(n_items: int) -> int:
    """One worker per usable CPU, at most one per item; one where the
    platform cannot fork or tell the usable CPUs."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n_items)


def _serve(fd: int, fn: Callable[[T], R], items: Sequence[T]) -> NoReturn:
    """A forked worker's whole life: write the pickle of ``fn(item)`` for
    each of ``items`` to ``fd`` as soon as it is computed, as its length in
    8 bytes and then its bytes, and exit. ``os._exit`` flushes none of the
    buffers the fork copied and unwinds none of the caller's frames."""
    code = 1
    try:
        with open(fd, "wb") as pipe:
            for item in items:
                data = pickle.dumps(fn(item), pickle.HIGHEST_PROTOCOL)
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
                # a small result would otherwise wait in the buffer, and
                # the caller with it, until the worker ends
                pipe.flush()
        code = 0
    finally:
        os._exit(code)


def _receive(pipe) -> object:
    """The next result a worker sent, or ``_ENDED`` where its stream ended early."""
    # no pickle is empty, so a size of 0 is a stream that ended before it
    size = int.from_bytes(pipe.read(8), "little")
    data = pipe.read(size)
    return pickle.loads(data) if 0 < size == len(data) else _ENDED


def _stop(pid: int, pipe) -> None:
    """Kill and reap one worker, whatever it is doing, and close its pipe."""
    # imported here: loading signal would cost every start of the CLI
    import signal

    os.kill(pid, signal.SIGKILL)
    pipe.close()
    os.waitpid(pid, 0)


def ordered_map(fn: Callable[[T], R], items: Sequence[T]) -> Generator[R, None, None]:
    """``fn(item)`` for each of ``items`` in order, item i computed by
    worker i mod k (see the module docstring)."""
    k = _workers(len(items))
    workers = {}  # j -> (pid, pipe) of forked worker j
    owner = os.getpid()
    try:
        for j in range(1, k):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                os.close(r)
                _serve(w, fn, items[j::k])
            os.close(w)
            workers[j] = (pid, open(r, "rb"))
        for i, item in enumerate(items):
            result = _ENDED
            if i % k in workers:
                result = _receive(workers[i % k][1])
                if result is _ENDED:  # the worker ended early: its items are ours
                    _stop(*workers.pop(i % k))
            yield fn(item) if result is _ENDED else result
    finally:
        # only the process that forked them stops the workers: a worker may
        # itself collect a generator left over from an earlier call
        if os.getpid() == owner:
            for worker in workers.values():
                _stop(*worker)
