"""Run one benchmark workload of the clairvoyant CLI and print its metrics.

    python3 bench/run.py --workload mc_streams --seed 1 --seconds 40 --trace 0

With ``--trace 0``, set-up is timed first, in fresh interpreters that
import ``clairvoyant.cli`` and build its parser.  Then whole passes of the
workload's command list run, each in a fresh interpreter (`one_pass.py`),
for ``--seconds`` seconds.  Every payload is checked: against the digests
recorded in ``digests.json`` where they apply, against independent values
where they exist, and across passes, which must all give the same bytes.

With ``--trace 0`` the result carries the end-to-end metrics, medians over
the passes.  Every time in them is scaled to the nominal speed of the
reference computation (`reference.py`) timed next to it, because the VM
the benchmark runs on changes speed for longer than a run; the unscaled
medians print on the lines before the result.  With ``--trace 1``
untraced and traced passes alternate; the result carries the per-layer
metrics of the traced passes and the tracing overhead (traced minus
untraced wall time, unscaled).  The last line of output is
one JSON object; the lines before it repeat each metric with its unit and
record the run's environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
SETUP_SAMPLES = 5
PASS_TIMEOUT_S = 150

_SETUP = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import clairvoyant.cli
clairvoyant.cli.build_parser()
print(time.perf_counter() - t0, clairvoyant.cli.__file__)
"""

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
             "part1_s": "s", "part2_s": "s", "part3_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _python(args: list[str]) -> str:
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, text=True,
                              capture_output=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s ran over %d s" % (args[0], PASS_TIMEOUT_S))
    if proc.returncode != 0:
        raise BenchError("%s exited %d: %s" % (args[0], proc.returncode,
                                                proc.stderr[-2000:]))
    return proc.stdout


def setup_sample() -> float:
    seconds, source = _python(["-c", _SETUP, str(ROOT / "src")]).split()
    if ROOT / "src" not in Path(source).resolve().parents:
        raise BenchError("clairvoyant imported from %s, not %s/src"
                         % (source, ROOT))
    return float(seconds)


def setup_samples(n: int) -> list[tuple[float, float]]:
    """`n` set-up samples as (seconds, reference seconds), the reference
    timed in this process before the first sample and after each one."""
    samples = []
    before = reference.reference_s()
    for _ in range(n):
        seconds = setup_sample()
        after = reference.reference_s()
        samples.append((seconds, (before + after) / 2))
        before = after
    return samples


def run_pass(workload: str, seed: int, workers: int,
             spill_dir: str | None = None) -> dict:
    args = [str(BENCH / "one_pass.py"), "--workload", workload,
            "--seed", str(seed), "--workers", str(workers)]
    if spill_dir is not None:
        args += ["--trace", spill_dir]
    return json.loads(_python(args).splitlines()[-1])


def measure(workload: str, seed: int, workers: int, seconds: float,
            spill_dir: str | None) -> tuple[list[dict], list[dict]]:
    """Untraced and traced passes, alternating when tracing, for `seconds`.

    Each kind runs at least once; another pass starts only if it is
    expected to end before the deadline.
    """
    kinds = [None] if spill_dir is None else [None, spill_dir]
    done: dict = {None: [], spill_dir: []}
    took: dict = {None: 0.0, spill_dir: 0.0}
    deadline = time.monotonic() + seconds
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        if i >= len(kinds) and time.monotonic() + took[kind] > deadline:
            break
        t0 = time.monotonic()
        done[kind].append(run_pass(workload, seed, workers, kind))
        took[kind] = max(took[kind], time.monotonic() - t0)
        i += 1
    return done[None], (done[spill_dir] if spill_dir else [])


def expected_digests(wl: workloads.Workload, seed: int) -> dict[str, str]:
    """Recorded digests that apply to this workload at this seed.

    Digests were recorded at one seed with one worker.  Commands that take
    no seed give the same bytes at every seed, so theirs apply everywhere
    except at the held-out seed.
    """
    recorded = json.loads(DIGESTS.read_text())
    table = recorded["commands"][wl.name]
    if seed == workloads.HELD_OUT_SEED:
        return {}
    return {c.label: table[c.label] for c in wl.commands
            if seed == recorded["seed"] or not c.seeded}


def check_passes(wl: workloads.Workload, passes: list[dict],
                 expected: dict[str, str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every command of every pass.

    A command without an expected digest must give the bytes it gave in
    the first pass.
    """
    expected = dict(expected)
    attempted = failed = 0
    problems = []
    for p in passes:
        for cmd, res in zip(wl.commands, p["commands"]):
            attempted += 1
            want = expected.setdefault(cmd.label, res["sha256"])
            if res["rc"] != 0:
                why = "exit %s: %s" % (res["rc"], res["stderr_tail"])
            elif res["sha256"] != want:
                why = "payload sha256 %s, expected %s" % (res["sha256"], want)
            else:
                why = workloads.check_payload(
                    cmd.label, res["payload"].encode("ascii"))
            if why:
                failed += 1
                problems.append("%s: %s" % (cmd.label, why))
    return attempted, failed, problems


def pass_times(wl: workloads.Workload, p: dict,
               scale: bool = True) -> dict[str, float]:
    """A pass's wall time and part times, each command's time scaled to
    the nominal reference speed unless `scale` is false."""
    out = dict.fromkeys(("wall_s",) + workloads.PARTS, 0.0)
    for cmd, res in zip(wl.commands, p["commands"]):
        t = reference.scaled(res["wall_s"], res["ref_s"]) if scale \
            else res["wall_s"]
        out["wall_s"] += t
        if cmd.part is not None:
            out[workloads.PARTS[cmd.part - 1]] += t
    return out


def e2e_metrics(wl: workloads.Workload, setups: list[tuple[float, float]],
                passes: list[dict], scale: bool = True) -> dict[str, float]:
    """Medians over set-up samples and passes.  A set-up sample is
    (seconds, reference seconds) from the same interpreter."""
    med = statistics.median
    out = {
        "setup_s": med(reference.scaled(s, r) if scale else s
                       for s, r in setups),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }
    times = [pass_times(wl, p, scale) for p in passes]
    for name in ("wall_s",) + workloads.PARTS:
        out[name] = med(t[name] for t in times)
    return out


def part_details(wl: workloads.Workload, e2e: dict) -> list[tuple]:
    """The per-command view of each part: wall time and, for Monte Carlo
    parts, replicas per second."""
    rows = []
    for k, name in enumerate(wl.part_names, start=1):
        wall = e2e["part%d_s" % k]
        rows.append(("%s.wall_s" % name, wall, "s"))
        replicas = sum(c.replicas for c in wl.commands if c.part == k)
        if replicas:
            rows.append(("%s.replicas_per_s" % name, replicas / wall,
                         "replicas/s"))
    return rows


def layer_summary(untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer medians over traced passes, plus the tracing overhead.

    `median_low` picks a measured value, so counts stay whole numbers.
    """
    med = statistics.median
    out = {name: statistics.median_low(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = med(p["wall_s"] for p in traced) \
        - med(p["wall_s"] for p in untraced)
    return out


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run(args) -> dict:
    if not (ROOT / "src" / "clairvoyant" / "cli.py").is_file():
        raise BenchError("no clairvoyant sources under %s/src" % ROOT)
    wl = workloads.WORKLOADS[args.workload]
    available = len(os.sched_getaffinity(0))
    if wl.workers > available:
        raise BenchError("workload %s needs %d workers; only %d CPUs are "
                         "available" % (wl.name, wl.workers, available))

    if args.trace:
        setups = []
        with tempfile.TemporaryDirectory(prefix=".bench_tmp",
                                         dir=ROOT) as spill_dir:
            untraced, traced = measure(wl.name, args.seed, wl.workers,
                                       args.seconds, spill_dir)
    else:
        setups = setup_samples(SETUP_SAMPLES)
        untraced, traced = measure(wl.name, args.seed, wl.workers,
                                   args.seconds, None)

    expected = expected_digests(wl, args.seed)
    recorded = len(expected)
    serial = None
    if wl.workers > 1 and len(expected) < len(wl.commands):
        # The --workers contract: a serial pass must give the same bytes.
        serial = run_pass(wl.name, args.seed, 1)
        for cmd, res in zip(wl.commands, serial["commands"]):
            expected.setdefault(cmd.label, res["sha256"])
    attempted, failed, problems = check_passes(wl, untraced + traced,
                                               expected)
    for line in problems[:20]:
        print("FAILED %s" % line, file=sys.stderr)

    versions = untraced[0]["versions"]
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "workers": wl.workers,
        "oversubscribed": wl.workers > available,
        **versions,
        "git_commit": git_commit(),
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "recorded_digests_checked": recorded,
        "serial_reference_pass": serial is not None,
        "reference_s": statistics.median(
            r["ref_s"] for p in untraced for r in p["commands"]),
    }
    print("record %s" % json.dumps(record, sort_keys=True))

    if args.trace:
        values, units = layer_summary(untraced, traced), spans.LAYER_UNITS
        details = []
    else:
        values, units = e2e_metrics(wl, setups, untraced), E2E_UNITS
        unscaled = e2e_metrics(wl, setups, untraced, scale=False)
        details = part_details(wl, values) + [
            ("%s.unscaled" % k, unscaled[k], "s")
            for k in units if units[k] == "s"]
    shown = [(k, values[k], units[k]) for k in units] + details
    shown.append(("failed_ops", failed / attempted, "ratio"))
    for name, value, unit in shown:
        print("%-36s %14.6g %s" % (name, value, unit))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
