"""The benchmark's workloads: clairvoyant CLI command lists and their checks.

Each workload is a list of `clairvoyant` commands, run once per pass in a
fresh interpreter.  Commands that draw random numbers get the workload seed
(and the workload's worker count) appended; exact commands get neither, so
their payloads do not depend on the seed.

Every command belongs to one of the workload's three timed parts
(``part1_s`` .. ``part3_s``) or to none; ``bench/README.md`` maps parts to
per-command metrics such as ``compat_mc.replicas_per_s``.

This module imports nothing from numpy or clairvoyant, so importing it does
not shift the set-up time measured in a pass.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 1
# Reserved for claim checks on a seed no change was tuned on.  No digests
# are recorded for it, so only the independent-value checks apply there.
HELD_OUT_SEED = 20091003

PARTS = ("part1_s", "part2_s", "part3_s")

# Independent values, from the alternating-word recursion and the
# closed-form block probability, written out so that a change to the
# package cannot move the reference along with the answer.
VN_2_12 = Fraction(33461, 262144)          # vn_recursion(2, 12)[12]
VN_3_20 = Fraction(479930538433590973, 1152921504606846976)  # (3, 20)[20]
VN_2_9 = Fraction(3363, 16384)             # vn_recursion(2, 9)[9]
VN_3_6 = Fraction(185813, 262144)          # vn_recursion(3, 6)[6]
BLOCK_GOOD_3 = Fraction(255, 256)          # block_good_prob(1/2, 3)

# Monte Carlo estimates must lie within this many standard errors of their
# independent value.  At 3 a fair estimator fails on 0.27% of seeds, which
# over the dozens of seeds a set of benchmark runs uses would flag correct
# code about one time in five; at 4 the rate is 6e-5 per check.
STDERR_TOLERANCE = 4.0


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    part: int | None          # 1..3, or None when only counted in wall_s
    replicas: int = 0         # replica evaluations, for replicas_per_s
    seeded: bool = True       # gets --seed and --workers appended

    def full_argv(self, seed: int, workers: int) -> list[str]:
        argv = list(self.argv)
        if self.seeded:
            argv += ["--seed", str(seed), "--workers", str(workers)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    part_names: tuple[str, str, str]
    commands: tuple[Command, ...]


def _cmd(label, text, part, replicas=0, seeded=True):
    return Command(label, tuple(text.split()), part, replicas, seeded)


# Replica counts are scaled from the first proposed sizes so a pass takes
# a few seconds.  The abscan search budget is lowered from 10**6 to 5000
# expansions: at 10**6 a few budget-exhausted searches of ~1.3 s each made
# up most of the command's time, so its time swung by half from seed to
# seed; a cap of 5000 bounds each search and keeps the spread small.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_streams", 1,
                 ("compat_mc", "embed_mc", "lattice_blocks"), (
            _cmd("compat_mc",
                 "compat mc --p 1/2,0.6 --n 25,50,100,200 --replicas 2500",
                 1, 2 * 4 * 2500),
            _cmd("embed_mc",
                 "embed mc --target alternating --M 3 --n 20 --replicas 25000",
                 2, 25000),
            _cmd("lattice_blocks",
                 "lattice blocks --p 1/2 --R 3 --replicas 25000",
                 3, 25000),
        )),
        Workload("mc_kernels", 2,
                 ("schedule_curve", "schedule_curve_long", "lattice_abscan"), (
            _cmd("schedule_curve",
                 "schedule curve --M 4 --depths 50,100,200 --replicas 1000",
                 1, 1000),
            _cmd("schedule_curve_long",
                 "schedule curve --M 6 --depths 250,500,1000 --replicas 100",
                 2, 100),
            _cmd("lattice_abscan",
                 "lattice abscan --p 1/2 --box 60 --replicas 1200 "
                 "--budget 5000",
                 3, 1200),
            _cmd("env_column",
                 "env column --mu 0.4:1/2,0.8:1/2 --box 50 --replicas 1000",
                 None, 1000),
        )),
        Workload("exact_enum", 1,
                 ("embed_scan", "embed_exact", "embed_moments"), (
            _cmd("embed_scan_n9", "embed scan --n 9 --M 2", 1, seeded=False),
            _cmd("embed_scan_n6", "embed scan --n 6 --M 3", 1, seeded=False),
            _cmd("embed_exact", "embed exact --v 010101010101 --M 2", 2,
                 seeded=False),
            _cmd("embed_moments", "embed moments --n 8 --M 2", 3,
                 seeded=False),
        )),
    )
}


# ------------------------------------------------------------- checks ----

def _rows(payload: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(payload.decode("ascii"))))


def _ratio(row: dict) -> Fraction:
    return Fraction(int(row["probability_num"]), int(row["probability_den"]))


def _near(row: dict, value: Fraction) -> bool:
    est, err = float(row["estimate"]), float(row["stderr"])
    return abs(est - float(value)) <= STDERR_TOLERANCE * err


def _unit(x: str) -> bool:
    return 0.0 <= float(x) <= 1.0


def _check_compat_mc(rows):
    if len(rows) != 8:
        return "expected 8 rows, got %d" % len(rows)
    if not all(_unit(r["estimate"]) for r in rows):
        return "estimate outside [0, 1]"
    return None


def _check_embed_mc(rows):
    if len(rows) != 1 or not _near(rows[0], VN_3_20):
        return "estimate not within %g stderr of vn_recursion(3, 20)[20]" \
            % STDERR_TOLERANCE
    return None


def _check_blocks(rows):
    if len(rows) != 1 or rows[0]["formula"] != "255/256":
        return "formula column is not 255/256"
    if not _near(rows[0], BLOCK_GOOD_3):
        return "estimate not within %g stderr of 255/256" % STDERR_TOLERANCE
    return None


def _check_curve(rows):
    ests = [float(r["estimate"]) for r in rows]
    if len(ests) != 3 or not all(0.0 <= e <= 1.0 for e in ests):
        return "expected 3 estimates in [0, 1]"
    if any(a < b for a, b in zip(ests, ests[1:])):
        return "survival estimates increase with depth"
    return None


def _check_abscan(rows):
    if [r["word"] for r in rows] != ["alternating", "constant"]:
        return "expected alternating and constant rows"
    for r in rows:
        if not _unit(r["estimate"]) \
                or int(r["exhausted"]) > int(r["replicas"]):
            return "estimate or exhausted count out of range"
    return None


def _check_env(rows):
    if len(rows) != 1 or not _unit(rows[0]["estimate"]):
        return "expected one estimate in [0, 1]"
    return None


def _scan_checker(n, M, alternating_value):
    alt = ("01" * n)[:n]

    def check(rows):
        if len(rows) != 2 ** n:
            return "expected %d rows, got %d" % (2 ** n, len(rows))
        table = {r["w"]: _ratio(r) for r in rows}
        flipped = alt.translate(str.maketrans("01", "10"))
        if table.get(alt) != alternating_value \
                or table.get(flipped) != alternating_value:
            return "alternating words differ from vn_recursion(%d, %d)" \
                % (M, n)
        return None
    return check


def _check_exact(rows):
    if len(rows) != 1 or _ratio(rows[0]) != VN_2_12:
        return "probability is not vn_recursion(2, 12)[12] = 33461/262144"
    return None


def _check_moments(rows):
    if len(rows) != 1 or rows[0]["mean"] != "1":
        return "mean embeddings at M=2 must be (M/2)**n = 1"
    return None


CHECKS = {
    "compat_mc": _check_compat_mc,
    "embed_mc": _check_embed_mc,
    "lattice_blocks": _check_blocks,
    "schedule_curve": _check_curve,
    "schedule_curve_long": _check_curve,
    "lattice_abscan": _check_abscan,
    "env_column": _check_env,
    "embed_scan_n9": _scan_checker(9, 2, VN_2_9),
    "embed_scan_n6": _scan_checker(6, 3, VN_3_6),
    "embed_exact": _check_exact,
    "embed_moments": _check_moments,
}


def check_payload(label: str, payload: bytes) -> str | None:
    """The first problem found in a command's payload, or None."""
    try:
        return CHECKS[label](_rows(payload))
    except (KeyError, ValueError, UnicodeDecodeError) as exc:
        return "payload does not parse: %r" % (exc,)
