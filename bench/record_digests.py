"""Re-record the payload digests that bench/run.py checks against.

    python3 bench/record_digests.py

Runs one pass of every workload at the default seed with one worker and
writes the SHA-256 of each command's payload to bench/digests.json.  It
refuses to record a payload that fails its own check.  Only a change that
alters output bytes on purpose runs this, as a benchmark change of its own;
see bench/README.md.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    table = {}
    for wl in workloads.WORKLOADS.values():
        p = run.run_pass(wl.name, workloads.DEFAULT_SEED, 1)
        _, failed, problems = run.check_passes(wl, [p], {})
        if failed:
            print("\n".join(problems), file=sys.stderr)
            return 1
        table[wl.name] = {c.label: r["sha256"]
                          for c, r in zip(wl.commands, p["commands"])}
    record = {"seed": workloads.DEFAULT_SEED, "workers": 1, "commands": table}
    run.DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
