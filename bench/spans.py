"""Spans around clairvoyant's layer boundaries, recorded from outside it.

`Tracer.install` rebinds public functions of the clairvoyant modules to
wrappers that record one span per call, ``(sid, parent, name, t0, t1,
value)``.  ``sid`` packs the recording process id above a per-process
counter, so spans from worker processes never collide with the parent's.
``value`` keeps the part of a return value the layer metrics need (the
depth `survival_depth` reached, the outcome of `visible_word`).

The chunk function handed to `run_chunked` is wrapped too.  When a chunk
runs in a worker process, its spans are written to the tracer's spill
directory and read back into the parent once `run_chunked` returns.
Times come from `time.perf_counter`, which on Linux is the system-wide
monotonic clock, so parent and worker spans share one time base.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# The tracer installed in this process.  Patching module attributes is
# process-wide by nature; forked workers inherit this reference, spawned
# workers find None and install their own.
_active: Tracer | None = None

_ENTRY_POINTS = (
    ("compatibility", "psi_mc"),
    ("embedding", "embed_prob_mc"),
    ("embedding", "extremal_scan"),
    ("embedding", "embed_prob_exact"),
    ("embedding", "second_moment_ratio"),
    ("environment", "column_percolation_mc"),
    ("lattice", "ab_scan"),
    ("lattice", "block_good_mc"),
    ("scheduling", "survival_curve_mc"),
)
_KERNELS = (
    ("scheduling", "sample_grid", None),
    ("scheduling", "survival_depth", int),
    ("lattice", "visible_word", lambda outcome: outcome.value),
)
_CHUNKED_MODULES = ("runner", "compatibility", "embedding", "environment",
                    "lattice", "scheduling")


def _module(name: str):
    return importlib.import_module("clairvoyant." + name)


def layer_of(fn) -> str:
    """Short module name of a chunk function, seen through partials."""
    fn = getattr(fn, "func", fn)
    return fn.__module__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self, spill_dir):
        self.spill_dir = str(spill_dir)
        self.spans: list[tuple] = []
        self._undo: list[tuple] = []
        self._restart(0)

    def _restart(self, parent: int):
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self.stack = [parent]

    def wrap(self, name: str, fn, value=None):
        """fn, recording a span named `name` around every call."""
        def traced(*args, **kwargs):
            sid = (self.pid << 32) | next(self._ids)
            parent = self.stack[-1]
            self.stack.append(sid)
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                self.stack.pop()
                kept = None if value is None or out is None else value(out)
                self.spans.append((sid, parent, name, t0, t1, kept))
        return traced

    def _patch(self, owner, attr: str, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        global _active
        rng, stats = _module("rng"), _module("stats")
        self._patch(rng.RngSpec, "generator",
                    self.wrap("rng.generator", rng.RngSpec.generator))
        from_samples = stats.Estimate.__dict__["from_samples"].__func__
        self._patch(stats.Estimate, "from_samples", classmethod(
            self.wrap("stats.from_samples", from_samples)))
        for mod, attr, value in _KERNELS:
            m = _module(mod)
            self._patch(m, attr, self.wrap("%s.%s" % (mod, attr),
                                           getattr(m, attr), value))
        for mod, attr in _ENTRY_POINTS:
            m = _module(mod)
            self._patch(m, attr, self.wrap("%s.%s" % (mod, attr),
                                           getattr(m, attr)))
        cli = _module("cli")
        self._patch(cli, "main", self.wrap("cli.main", cli.main))
        chunked = self.wrap("runner.run_chunked",
                            self._chunked(_module("runner").run_chunked))
        for mod in _CHUNKED_MODULES:
            self._patch(_module(mod), "run_chunked", chunked)
        _active = self
        return self

    def uninstall(self):
        global _active
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        _active = None

    def _chunked(self, run_chunked):
        def chunked(fn, replicas, workers=1):
            chunk = _Chunk(fn, self.stack[-1], self.pid, self.spill_dir)
            try:
                return run_chunked(chunk, replicas, workers)
            finally:
                self.collect()
        return chunked

    def spill(self):
        """Write this process's spans to the spill directory and drop them."""
        path = Path(self.spill_dir) / ("%d-%d.json" % (self.pid,
                                                       next(self._ids)))
        path.write_text(json.dumps(self.spans))
        self.spans = []

    def collect(self):
        """Move spans that worker processes spilled into this tracer."""
        for path in sorted(Path(self.spill_dir).glob("*.json")):
            self.spans.extend(tuple(s) for s in json.loads(path.read_text()))
            path.unlink()


class _Chunk:
    """A chunk function that records its own span, in any process."""

    def __init__(self, fn, parent: int, owner_pid: int, spill_dir: str):
        self.fn = fn
        self.parent = parent
        self.owner_pid = owner_pid
        self.spill_dir = spill_dir

    def __call__(self, lo: int, hi: int):
        name = layer_of(self.fn) + ".chunk"
        if os.getpid() == self.owner_pid:
            return _active.wrap(name, self.fn)(lo, hi)
        tracer = _active if _active is not None \
            else Tracer(self.spill_dir).install()
        tracer.spans = []
        tracer._restart(self.parent)
        try:
            return tracer.wrap(name, self.fn)(lo, hi)
        finally:
            tracer.spill()


# ------------------------------------------------------------ analysis ----

def self_times(spans) -> dict[int, float]:
    """sid -> duration minus the part of it that child spans cover.

    Children of one span may overlap (chunks running in parallel worker
    processes), so the covered part is the length of the union of the
    children's intervals, clipped to the parent's.
    """
    children = defaultdict(list)
    for sid, parent, _, t0, t1, _ in spans:
        children[parent].append((t0, t1))
    out = {}
    for sid, _, _, t0, t1, _ in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


LAYER_UNITS = {
    "rng.generator_calls": "count",
    "rng.generator_s": "s",
    "rng.generator_us": "us",
    "rng.share": "ratio",
    "runner.calls": "count",
    "runner.pool_starts": "count",
    "runner.chunk_busy_s": "s",
    "runner.overhead_s": "s",
    "runner.imbalance": "ratio",
    "runner.parallel_efficiency": "ratio",
    "scheduling.survival_depth_calls": "count",
    "scheduling.survival_depth_s": "s",
    "scheduling.levels_swept": "count",
    "scheduling.us_per_level": "us",
    "scheduling.sample_grid_s": "s",
    "scheduling.chunk_self_s": "s",
    "lattice.visible_word_calls": "count",
    "lattice.visible_word_s": "s",
    "lattice.exhausted": "count",
    "lattice.settled_ratio": "ratio",
    "lattice.chunk_self_s": "s",
    "compatibility.psi_mc_calls": "count",
    "compatibility.chunk_self_s": "s",
    "embedding.extremal_scan_s": "s",
    "embedding.embed_prob_exact_s": "s",
    "embedding.second_moment_ratio_s": "s",
    "embedding.chunk_self_s": "s",
    "environment.chunk_self_s": "s",
    "stats.from_samples_s": "s",
    "cli.self_s": "s",
    "cli.payload_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans, payload_bytes: int) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s, from one pass."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def total(name):
        return sum(t1 - t0 for _, _, _, t0, t1, _ in by_name[name])

    def self_total(name):
        return sum(selfs[s[0]] for s in by_name[name])

    gen_calls = len(by_name["rng.generator"])
    gen_s = total("rng.generator")
    depths = by_name["scheduling.survival_depth"]
    levels = sum(s[5] or 0 for s in depths)
    visible = [s[5] for s in by_name["lattice.visible_word"]]

    chunks = defaultdict(list)
    for span in spans:
        if span[2].endswith(".chunk"):
            chunks[span[1]].append(span)
    pool_starts = 0
    busy = overhead = slowest = mean = capacity = 0.0
    for sid, _, _, t0, t1, _ in by_name["runner.run_chunked"]:
        durs = [c1 - c0 for _, _, _, c0, c1, _ in chunks[sid]]
        if not durs:
            continue
        pool_starts += any(c[0] >> 32 != sid >> 32 for c in chunks[sid])
        busy += sum(durs)
        overhead += (t1 - t0) - max(durs)
        slowest += max(durs)
        mean += sum(durs) / len(durs)
        capacity += len(durs) * (t1 - t0)
    return {
        "rng.generator_calls": gen_calls,
        "rng.generator_s": gen_s,
        "rng.generator_us": _ratio(gen_s, gen_calls) * 1e6,
        "rng.share": _ratio(gen_s, sum(selfs.values())),
        "runner.calls": len(by_name["runner.run_chunked"]),
        "runner.pool_starts": pool_starts,
        "runner.chunk_busy_s": busy,
        "runner.overhead_s": overhead,
        "runner.imbalance": _ratio(slowest, mean),
        "runner.parallel_efficiency": _ratio(busy, capacity),
        "scheduling.survival_depth_calls": len(depths),
        "scheduling.survival_depth_s": total("scheduling.survival_depth"),
        "scheduling.levels_swept": levels,
        "scheduling.us_per_level":
            _ratio(total("scheduling.survival_depth"), levels) * 1e6,
        "scheduling.sample_grid_s": total("scheduling.sample_grid"),
        "scheduling.chunk_self_s": self_total("scheduling.chunk"),
        "lattice.visible_word_calls": len(visible),
        "lattice.visible_word_s": total("lattice.visible_word"),
        "lattice.exhausted": visible.count("budget-exhausted"),
        "lattice.settled_ratio": _ratio(
            visible.count("found") + visible.count("absent"), len(visible)),
        "lattice.chunk_self_s": self_total("lattice.chunk"),
        "compatibility.psi_mc_calls": len(by_name["compatibility.psi_mc"]),
        "compatibility.chunk_self_s": self_total("compatibility.chunk"),
        "embedding.extremal_scan_s": total("embedding.extremal_scan"),
        "embedding.embed_prob_exact_s": total("embedding.embed_prob_exact"),
        "embedding.second_moment_ratio_s":
            total("embedding.second_moment_ratio"),
        "embedding.chunk_self_s": self_total("embedding.chunk"),
        "environment.chunk_self_s": self_total("environment.chunk"),
        "stats.from_samples_s": total("stats.from_samples"),
        "cli.self_s": self_total("cli.main"),
        "cli.payload_bytes": payload_bytes,
        "trace.spans": len(spans),
    }
