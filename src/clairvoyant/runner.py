"""Replica scheduling for Monte Carlo runs.

Every Monte Carlo estimate in the package is a loop over replicas, and this
module owns that loop.  A chunk function maps a replica range ``lo <= k <
hi`` to an array with one row per replica, and ``run_chunked`` evaluates a
chunk function over contiguous replica ranges, one per process.  Row k
always comes from replica k's own streams under the entry point's
`RngSpec`, so the concatenated result is a pure function of (master seed,
replica count) and does not depend on the worker count.

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
threads can be; the fork-context process pool this runner replaced forked
the same process on 3.11 to 3.13.

Entry points take the `RngSpec`; kernels take the generators they draw
from.  A model builds its chunk function from one of two kinds of kernel:

* ``PerReplica(kernel, rng, streams=1, **params)`` runs a one-replica
  kernel

      kernel(*gens: np.random.Generator, **params) -> row

  once per replica, where ``gens`` holds generators at the start of
  streams ``streams * k + i``, i < streams, from ``rng.generators``; the
  kernel draws all of its randomness from them and returns a bool, an
  int, a tuple of them, or arrays of one shape for every replica.  The
  runner rewinds the same generators for every replica, so a kernel must
  not keep them past its return.
* ``PerBlock(kernel, draw, letters, **params)`` runs a block kernel

      kernel(rows: np.ndarray, **params) -> array

  on whole blocks of replicas, at most ``BLOCK_LETTERS // letters`` (and at
  least one) a block, where ``letters`` is what one replica draws.  Its
  rows come from a draw function ``draw(lo, hi)``, which, like a chunk
  function, returns one row per replica lo <= k < hi from replica k's own
  streams; the kernel returns one result per row.  There are two:
  ``functools.partial(rng.bernoulli_rows, probs=probs)`` draws Bernoulli
  letters with per-letter densities ``probs`` straight into the block,
  rows of at most ``rng.BATCHED_LETTERS`` letters from one numpy Philox
  pass over the whole block and longer rows from one Philox rewound per
  replica, and ``PerReplica(sampler, rng, **params)`` stacks what a
  one-replica sampler draws from each replica's generators.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Callable

import numpy as np

from .rng import RngSpec

ChunkFn = Callable[[int, int], np.ndarray]

# The most letters PerBlock draws into one block: 512 KiB of float64
# uniforms or int64 walk values.
BLOCK_LETTERS = 1 << 16


class PerReplica:
    """Chunk function of a one-replica kernel: row k is func(*gens_k).

    ``gens_k`` are the generators `RngSpec.generators` yields for replica
    k, at streams ``streams * k + i``.  The kernel sits in ``func``, the
    attribute name `functools.partial` uses, so tools that look through
    partials see the kernel's module.  Instances pickle whenever the
    kernel is a module-level function.
    """

    def __init__(self, func: Callable, rng: RngSpec, streams: int = 1,
                 **params):
        self.func = func
        self.rng = rng
        self.streams = streams
        self.params = params

    def __call__(self, lo: int, hi: int) -> np.ndarray:
        return np.array([self.func(*gens, **self.params) for gens in
                         self.rng.generators(lo, hi, self.streams)])


class PerBlock:
    """Chunk function of a block kernel: row k is func's result for the
    row ``draw`` gives replica k.

    Replicas lo <= k < hi are drawn in blocks of at most ``BLOCK_LETTERS``
    letters (one row, at least, per block) by ``draw(a, b)``, and each
    block goes to ``func(rows, **params)``; row k of the result is the
    kernel's result for stream k's draws, however the replicas are
    chunked.  Like `PerReplica`, the kernel sits in ``func``, and instances
    pickle whenever the kernel and the draw function do.
    """

    def __init__(self, func: Callable, draw: ChunkFn, letters: int,
                 **params):
        self.func = func
        self.draw = draw
        self.letters = letters
        self.params = params

    def __call__(self, lo: int, hi: int) -> np.ndarray:
        step = max(1, BLOCK_LETTERS // max(1, self.letters))
        return np.concatenate([
            self.func(self.draw(a, min(a + step, hi)), **self.params)
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
    bounds = chunk_bounds(replicas, workers_used(replicas, workers))
    if len(bounds) == 1:
        return np.asarray(fn(*bounds[0]))
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
