"""Replica scheduling for Monte Carlo runs.

Every Monte Carlo estimate in the package is a loop over replicas, and this
module owns that loop.  A chunk function ``fn(lo, hi)`` maps a replica
range ``lo <= k < hi`` to an array with one row per replica, and
``run_chunked`` evaluates a chunk function over contiguous replica ranges,
one per process.  Row k always comes from replica k's own streams under
the entry point's `RngSpec`, so the concatenated result is a pure function
of (master seed, replica count) and does not depend on the worker count.

With W chunks (`workers_used`), the calling process forks W - 1 children
with ``os.fork``, one for each of chunks 1..W-1, and runs chunk 0 itself.
A child starts with the caller's memory: the chunk function, the imported
modules and the caches, so nothing crosses a process boundary on the way
in.  On the way out a child writes one pickled ``(True, rows)`` or
``(False, exception)`` to its own pipe and leaves by ``os._exit``.  The
caller reads the pipes in chunk order and re-raises the first exception,
with the type it was raised with; a child that ends without writing
raises `ChildProcessError`.  Every child is reaped before ``run_chunked``
returns or raises, and killed first if the caller is unwinding.  Where
``os.fork`` does not exist, every replica runs in the calling process,
with the same rows.  On Python 3.12 and later ``os.fork`` warns with a
DeprecationWarning when another thread is alive, as numpy's OpenBLAS
threads can be.

Entry points take the `RngSpec`; kernels take what was drawn from it.  A
model builds its chunk function as ``PerBlock(kernel, draw, letters,
**params)``, which runs a block kernel

    kernel(rows: np.ndarray, **params) -> array

on blocks of at most ``BLOCK_LETTERS // letters`` replicas (and at least
one), where ``letters`` is what one replica draws.  A draw takes the
block's replica ids, an int array, and returns one row per id from that
replica's own streams, as ``functools.partial(rng.bernoulli_rows,
probs=probs)`` or ``functools.partial(rng.uniform_rows, letters=n)``
does; the kernel returns one result per row.  Sampling happens only in
the draw, so the kernel sees nothing of the streams.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Callable

from ._lazy import np
from .errors import BudgetError

ChunkFn = Callable[[int, int], "np.ndarray"]
DrawFn = Callable[["np.ndarray"], "np.ndarray"]

# The most letters PerBlock draws into one block: 512 KiB of float64
# uniforms or int64 walk letters.
BLOCK_LETTERS = 1 << 16

# The most letters (8 bytes each) one replica of a bit-parallel kernel may
# draw, and bit-steps it may sweep in one int
MC_LETTERS = 1 << 24
MC_BIT_STEPS = 1 << 32


def check_replica(letters: int, bit_steps: int) -> None:
    """Refuse, before any draw, a replica past either bound."""
    if letters > MC_LETTERS or bit_steps > MC_BIT_STEPS:
        raise BudgetError("a replica draws %d letters and sweeps %d "
                          "bit-steps, over the bounds of %d letters and %d "
                          "bit-steps" % (letters, bit_steps, MC_LETTERS,
                                         MC_BIT_STEPS))


class PerBlock:
    """Chunk function of a block kernel: row k is func's result for the
    row ``draw`` gives replica k.

    Replicas lo <= k < hi are drawn in blocks of at most ``BLOCK_LETTERS``
    letters (one row, at least, per block) by ``draw(ids)``, with ids the
    block's replica ids, and each block goes to ``func(rows, **params)``;
    row k of the result is the kernel's result for replica k's draws,
    however the replicas are chunked.  The kernel sits in ``func``, the
    attribute name `functools.partial` uses, so tools that look through
    partials see the kernel's module.
    """

    def __init__(self, func: Callable, draw: DrawFn, letters: int,
                 **params):
        self.func = func
        self.draw = draw
        self.letters = letters
        self.params = params

    def __call__(self, lo: int, hi: int) -> np.ndarray:
        step = max(1, BLOCK_LETTERS // max(1, self.letters))
        return np.concatenate([
            self.func(self.draw(np.arange(a, min(a + step, hi))),
                      **self.params)
            for a in range(lo, hi, step)])


def chunk_bounds(replicas: int, workers: int) -> list[tuple[int, int]]:
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, replicas)
    base, extra = divmod(replicas, workers)
    bounds = []
    lo = 0
    for w in range(workers):
        hi = lo + base + (1 if w < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def workers_used(replicas: int, workers: int) -> int:
    """The number of processes run_chunked(fn, replicas, workers) runs in."""
    chunks = len(chunk_bounds(replicas, workers))
    return chunks if hasattr(os, "fork") else 1


def run_chunked(fn: ChunkFn, replicas: int, workers: int = 1) -> np.ndarray:
    """Evaluate fn over [0, replicas), possibly in parallel, in index order."""
    bounds = chunk_bounds(replicas, workers)
    if len(bounds) == 1 or not hasattr(os, "fork"):
        return np.asarray(fn(0, replicas))
    # numpy loads on first use (see _lazy): load it and numpy.random here,
    # once, so that the children inherit them instead of each importing them
    import numpy.random  # noqa: F401
    children = []  # (pid, read end of its pipe) for chunks 1.., in order
    reaped = 0
    try:
        for lo, hi in bounds[1:]:
            children.append(_fork_chunk(fn, lo, hi))
        parts = [fn(*bounds[0])]
        for c, (pid, pipe) in enumerate(children, 1):
            with open(pipe, "rb", closefd=False) as reader:
                message = reader.read()
            status = os.waitpid(pid, 0)[1]
            reaped += 1
            parts.append(_unpack(message, status, c, bounds[c]))
    finally:
        for pid, _ in children[reaped:]:  # left only when unwinding
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for _, pipe in children:
            os.close(pipe)
    return np.concatenate([np.asarray(p) for p in parts])


def _fork_chunk(fn: ChunkFn, lo: int, hi: int) -> tuple[int, int]:
    """Fork a child that sends back fn(lo, hi): its pid and pipe read end."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    code = 1
    try:
        os.close(read_end)
        try:
            message = (True, fn(lo, hi))
        except BaseException as exc:
            message = (False, exc)
        try:
            data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
            if not message[0]:
                pickle.loads(data)  # an exception may not rebuild from args
        except Exception as exc:
            data = pickle.dumps((False, TypeError(
                "replicas %d..%d gave what does not pickle: %s"
                % (lo, hi - 1, exc))))
        with open(write_end, "wb") as writer:
            writer.write(data)
        code = 0
    finally:
        os._exit(code)


def _unpack(message: bytes, status: int, chunk: int,
            bounds: tuple[int, int]):
    """The rows a child sent; raises what it sent, or how it ended."""
    try:
        ok, value = pickle.loads(message)
    except Exception:
        if os.WIFSIGNALED(status):
            how = "was killed by %s" % signal.Signals(os.WTERMSIG(status)).name
        else:
            how = "exited with status %d" % os.waitstatus_to_exitcode(status)
        raise ChildProcessError(
            "chunk %d (replicas %d..%d) %s without sending its rows"
            % (chunk, bounds[0], bounds[1] - 1, how)) from None
    if not ok:
        raise value
    return value
