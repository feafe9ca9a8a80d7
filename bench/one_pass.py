"""One pass of a workload in a fresh interpreter; prints a JSON report.

    python3 bench/one_pass.py --workload NAME --seed N --workers W
                              [--trace SPILL_DIR]

The pass calls ``clairvoyant.cli.main(argv)`` once per command of the
workload, capturing each payload, and times the reference computation of
`reference.py` before the first command and after each one.  The pass
time is the sum of the command times.  With ``--trace`` every call into the
package's layers is recorded as a span and the report carries the
per-layer metrics.  `run.py` starts this script; it is not a user entry
point.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def run_commands(argvs: list[list[str]]) -> list[dict]:
    """Run each argv through clairvoyant.cli.main, capturing its output.

    The reference computation is timed before the first command and after
    each one; a command's ``ref_s`` is the mean of the two around it.
    """
    import clairvoyant.cli

    results = []
    ref_before = reference.reference_s()
    for argv in argvs:
        out = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        err = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = clairvoyant.cli.main(argv)
        except Exception:  # a traceback is a failed command, not a crash
            rc = None
            err.write(traceback.format_exc())
        wall = perf_counter() - t0
        out.flush()
        payload = out.buffer.getvalue()
        ref_after = reference.reference_s()
        results.append({
            "rc": rc,
            "wall_s": wall,
            "ref_s": (ref_before + ref_after) / 2,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload": payload.decode("ascii", "replace"),
            "stderr_tail": err.getvalue()[-400:] if rc != 0 else "",
        })
        ref_before = ref_after
    return results


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--trace", default=None, metavar="SPILL_DIR")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import clairvoyant.cli  # noqa: F401  set-up stays out of the pass time

    tracer = spans.Tracer(args.trace).install() if args.trace else None
    wl = workloads.WORKLOADS[args.workload]
    results = run_commands([c.full_argv(args.seed, args.workers)
                            for c in wl.commands])
    # The reference timings between commands stay out of the pass time.
    report = {"wall_s": sum(r["wall_s"] for r in results)}
    report["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["commands"] = results
    report["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    if tracer is not None:
        tracer.uninstall()
        payload_bytes = sum(len(r["payload"]) for r in results)
        report["layers"] = spans.layer_metrics(tracer.spans, payload_bytes)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
