"""Command-line front end.

Every run prints one table (CSV with a header row, or JSON objects one per
line) plus a run manifest (config echo, version, wall time, and a sha256 of
the emitted bytes).  Handlers return rows of Python values and one
function, `_cell`, writes every cell: exact rationals as "num/den", floats
in scientific notation with 12 significant digits, booleans as true/false,
lists as compact JSON, a missing value as an empty cell; JSON payloads hold
every value as a string.  Replicas map to rng streams by index, so outputs
are byte-identical for any --workers value.

Only subcommands that draw random numbers take --seed, and only those that
run replicas take --replicas and --workers; deterministic ones take neither
and echo neither in the manifest.

Exit codes: 0 success, 1 a runtime self-check failed, 2 usage error (a bad
value, a zero denominator, an unreadable file) or an exact computation
refused for exceeding its budget.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
import types
from fractions import Fraction

from . import __version__
from . import compatibility as compat
from . import embedding as emb
from . import environment as env
from . import lattice as lat
from . import scheduling as sched
from ._lazy import np
from .errors import BudgetError, PropertyViolation
from .rng import RngSpec
from .runner import workers_used
from .stats import Estimate
from .words import Word, alternating_word, bernoulli_word, constant_word


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.11e" % value
    if isinstance(value, (list, tuple)):
        return json.dumps(value, separators=(",", ":"))
    return "" if value is None else str(value)


def _est(e: Estimate) -> dict:
    return {"estimate": e.mean, "stderr": e.stderr, "replicas": e.replicas}


def _fields_row(record) -> list[dict]:
    """One row of a record's fields, in order."""
    return [{f: getattr(record, f) for f in record._fields}]


def _parse_ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t != ""]


def _density(text: str) -> float:
    """--p as a float, checked while still exact: float(Fraction("1e400"))
    raises OverflowError."""
    p = Fraction(text)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    return float(p)


def _seed(text: str) -> int:
    """--seed: one word of the Philox key, so 0 <= seed < 2^64, refused
    here in the flag's own words."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid int value: %r" % text) from None
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(
            "must be in [0, 2^64), got %s" % text)
    return seed


def _check_printable(bits: int) -> None:
    """Refuse, before computing it, an exact probability over 2**bits whose
    denominator could pass Python's limit on int-to-str digits, or its
    default limit when that is off (0) or missing."""
    limit = (getattr(sys, "get_int_max_str_digits", lambda: 0)()
             or getattr(sys.int_info, "default_max_str_digits", 4300))
    # exact rational arithmetic: bits may be too large for a float
    digits = int(bits * Fraction(math.log10(2))) + 1
    if digits > limit:
        raise BudgetError(
            "the exact probability has a denominator of up to 2^%d (%d "
            "digits), over the %d-digit limit of int-to-str conversion (set "
            "by PYTHONINTMAXSTRDIGITS)" % (bits, digits, limit))


# ---------------------------------------------------------------- embed ----

def _do_embed_decide(args):
    v = Word.from_string(args.v)
    y = Word.from_string(args.y)
    wit = emb.embed_decide(v, y, args.M)
    return [{"found": wit is not None,
             "positions": wit.positions if wit else (),
             "valid": wit is not None and emb.validate_embedding(wit, v, y)}]


def _do_embed_count(args):
    return [{"count": emb.embed_count(Word.from_string(args.v),
                                      Word.from_string(args.y), args.M)}]


def _do_embed_exact(args):
    v = Word.from_string(args.v)
    _check_printable(args.M * len(v))
    pr = emb.embed_prob_exact(v, args.M, budget=args.budget)
    return [{"w": v, "probability_num": pr.numerator,
             "probability_den": pr.denominator}]


def _do_embed_recursion(args):
    _check_printable(args.M * max(args.n, 1))
    return [{"n": i, "v": v}
            for i, v in enumerate(emb.vn_recursion(args.M, args.n))]


def _do_embed_roots(args):
    return _fields_row(emb.char_roots(args.M))


def _do_embed_scan(args):
    _check_printable(args.M * args.n)
    report = emb.extremal_scan(args.n, args.M, budget=args.budget)
    return [{"w": w, "probability_num": pr.numerator,
             "probability_den": pr.denominator} for w, pr in report.table]


def _do_embed_moments(args):
    return _fields_row(emb.moment_report(args.n, args.M))


def _do_embed_mc(args):
    rng = RngSpec(args.seed)
    if args.target == "random":
        est = emb.embed_survival_mc(args.M, args.n, args.p_x, args.p_y,
                                    args.replicas, rng, workers=args.workers)
        target = "random"
    else:
        if args.target == "alternating":
            target = alternating_word(args.n)
        elif args.target == "constant":
            target = constant_word(args.n)
        else:
            target = Word.from_string(args.target)
            if len(target) != args.n:
                raise ValueError("--target %s has %d letters, not --n %d"
                                 % (target, len(target), args.n))
        est = emb.embed_prob_mc(target, args.M, args.replicas, rng,
                                p_y=args.p_y, workers=args.workers)
    return [{"target": target, "M": args.M, "n": args.n, **_est(est)}]


# ------------------------------------------------------------- schedule ----

def _grid_from_args(args):
    if (args.x is None) != (args.y is None):
        raise ValueError("give both --x and --y or neither")
    if args.x is not None:
        x, y = _parse_ints(args.x), _parse_ints(args.y)
        if not x or not y:
            raise ValueError("--x and --y must each give at least one value")
        # object arrays keep literal values exact past int64
        return sched.ScheduleGrid(np.array(x, dtype=object),
                                  np.array(y, dtype=object), args.M)
    return sched.sample_grid(args.M, args.depth, RngSpec(args.seed))


def _do_schedule_survive(args):
    wit = sched.directed_survival(_grid_from_args(args), args.depth)
    return [{"survived": wit is not None, "path": wit.steps if wit else ()}]


def _check_walk_letters(letters: int, flags: str) -> None:
    """Refuse, before any draw, walks on more letters than numpy's int64
    integers can take: they would fail deep in the draw, naming no flag."""
    if letters >= 1 << 63:
        raise ValueError("%s must be below 2^63: walk letters are drawn as "
                         "int64" % flags)


def _do_schedule_curve(args):
    _check_walk_letters(args.M, "--M")
    depths = _parse_ints(args.depths)
    ests = sched.survival_curve_mc(args.M, depths, args.replicas,
                                   RngSpec(args.seed), workers=args.workers)
    return [{"depth": d, "estimate": e.mean, "stderr": e.stderr}
            for d, e in zip(depths, ests)]


def _do_schedule_coupling(args):
    _check_walk_letters(args.k * args.M, "--k times --M")
    return _fields_row(sched.coupling_check(
        args.M, args.k, args.depth, args.replicas, RngSpec(args.seed),
        workers=args.workers))


def _do_schedule_undirected(args):
    _check_walk_letters(args.M, "--M")
    est = sched.undirected_mc(args.M, args.box, args.replicas,
                              RngSpec(args.seed), workers=args.workers)
    return [{"M": args.M, "box": args.box, **_est(est)}]


def _parse_vertices(text: str) -> list[tuple[int, int]]:
    verts = []
    for part in text.split(";"):
        ij = _parse_ints(part)
        if len(ij) != 2:
            raise ValueError("vertices look like i,j;i,j;...")
        verts.append((ij[0], ij[1]))
    return verts


def _do_schedule_kwise(args):
    verts = _parse_vertices(args.vertices)
    letters = len({i for i, _ in verts}) + len({j for _, j in verts})
    _check_printable(letters * args.M.bit_length())
    pmf = sched.kwise_joint(verts, args.M, max_terms=args.max_terms)
    return [{"outcome": "".join(map(str, o)), "numerator": pr.numerator,
             "denominator": pr.denominator}
            for o, pr in sorted(pmf.probs.items())]


# --------------------------------------------------------------- compat ----

def _do_compat_decide(args):
    wit = compat.compatible_prefix(Word.from_string(args.x),
                                   Word.from_string(args.y))
    return [{"compatible": wit is not None,
             "kept_x": wit.kept_x if wit else (),
             "kept_y": wit.kept_y if wit else ()}]


def _do_compat_cert(args):
    cert = compat.majority_certificate(Word.from_string(args.x),
                                       Word.from_string(args.y))
    return [{"found": cert is not None, "N": cert.N if cert else None}]


def _do_compat_mc(args):
    ps = [_density(t) for t in args.p.split(",")]
    ns = _parse_ints(args.n)
    rows = []
    for p in ps:
        ests = compat.psi_curve_mc(p, ns, args.replicas, RngSpec(args.seed),
                                   workers=args.workers)
        rows += [{"p": p, "n": n, "estimate": e.mean, "stderr": e.stderr}
                 for n, e in zip(ns, ests)]
    return rows


# -------------------------------------------------------------- lattice ----

def _do_lattice_blocks(args):
    p = Fraction(args.p)
    # the formula's denominator divides den(p)^(R^2)
    _check_printable(math.ceil(args.R ** 2
                               * Fraction(math.log2(p.denominator))))
    formula = lat.block_good_prob(p, args.R)
    est = lat.block_good_mc(float(p), args.R, args.replicas,
                            RngSpec(args.seed), workers=args.workers)
    return [{"p": args.p, "R": args.R, "formula": formula, **_est(est)}]


def _do_lattice_embed2d(args):
    rng = RngSpec(args.seed)
    p = _density(args.p)
    # the word first: a missing or bad one is refused before the field
    if args.word is not None:
        w = Word.from_string(args.word)
    elif args.word_length is not None:
        w = bernoulli_word(args.word_length, 0.5, rng.stream(1))
    else:
        raise ValueError("give --word or --word-length")
    width = (args.depth + 1) * args.R
    height = (2 * args.depth + 1) * args.R
    field = lat.sample_field(p, width, height, rng.stream(0))
    path = lat.block_percolation(field, args.R, args.depth)
    if path is None:
        return [{"found": False, "block_path": (), "rows": (), "cols": (),
                 "gap_bound": None, "valid": None}]
    wit = lat.embed_word_2d(w, field, args.R, path)
    return [{"found": True, "block_path": path, "rows": wit.rows,
             "cols": wit.cols, "gap_bound": wit.gap_bound,
             "valid": lat.validate_embedding_2d(wit, w, field)}]


def _do_lattice_visible(args):
    with open(args.field, "r", encoding="ascii") as fh:
        field = lat.field_from_text(fh.read())
    origin = tuple(_parse_ints(args.origin))
    if len(origin) != 2:
        raise ValueError("origin looks like row,col (0-based)")
    out = lat.visible_word(field.cells, lat.LatticeKind(args.lattice),
                           origin, Word.from_string(args.word),
                           budget=args.budget)
    return [{"outcome": out.value}]


def _do_lattice_abscan(args):
    rep = lat.ab_scan(_density(args.p), args.box, args.replicas,
                      RngSpec(args.seed), budget=args.budget,
                      workers=args.workers)
    return [{"word": "alternating", **_est(rep.alternating),
             "exhausted": rep.alternating_exhausted},
            {"word": "constant", **_est(rep.constant),
             "exhausted": rep.constant_exhausted}]


# ------------------------------------------------------------------ env ----

def _do_env_column(args):
    mu = env.FiniteDistribution.parse(args.mu)
    est = env.column_percolation_mc(mu, args.box, args.replicas,
                                    RngSpec(args.seed), workers=args.workers)
    return [{"mu": mu, "box": args.box, **_est(est)}]


def _read_pmf_csv(path: str) -> env.JointPmf:
    import csv

    probs: dict[tuple[int, ...], Fraction] = {}
    width = None
    with open(path, "r", encoding="ascii", newline="") as fh:
        for rec in csv.DictReader(fh):
            try:
                o = tuple(int(ch) for ch in rec["outcome"])
                pr = Fraction(int(rec["numerator"]), int(rec["denominator"]))
            except (KeyError, TypeError):    # missing column or short row
                raise ValueError("pmf rows need outcome, numerator and "
                                 "denominator") from None
            if o in probs:
                raise ValueError("pmf lists outcome %s twice" % rec["outcome"])
            width = len(o) if width is None else width
            probs[o] = pr
    if width is None:
        raise ValueError("pmf file has no rows")
    labels = tuple("v%d" % i for i in range(width))
    return env.JointPmf(labels=labels, probs=probs)


def _do_env_kwise(args):
    rep = env.kwise_test(_read_pmf_csv(args.pmf), args.k)
    worst = rep.worst
    return [{"k": rep.k, "independent": rep.independent,
             "subset": worst.subset if worst else (),
             "outcome": "".join(map(str, worst.outcome)) if worst else None,
             "joint": worst.joint if worst else None,
             "expected": worst.expected if worst else None}]


# ------------------------------------------------------------- plumbing ----

_INT = dict(type=int, required=True)
_STR = dict(required=True)
_COMMON = (("--out", dict(default=None, help="output path (default stdout)")),
           ("--format", dict(choices=("csv", "json"), default="csv")))
# what a leaf draws: --seed alone, or --seed with --replicas and --workers
_SEED = (("--seed", dict(type=_seed, default=0,
                         help="master seed, 0 <= seed < 2^64")),)
_REPLICAS = _SEED + (("--replicas", dict(type=int, default=10000)),
                     ("--workers", dict(type=int, default=1)))

# One row per subcommand: group, op, the name of its handler (looked up
# when the parser is built, so a patched handler is the one that runs),
# the options it takes for drawing (none, _SEED or _REPLICAS), then its
# own options in help order.
LEAVES = (
    ("embed", "decide", "_do_embed_decide", (),
     (("--v", _STR), ("--y", _STR), ("--M", _INT))),
    ("embed", "count", "_do_embed_count", (),
     (("--v", _STR), ("--y", _STR), ("--M", _INT))),
    ("embed", "exact", "_do_embed_exact", (),
     (("--v", _STR), ("--M", _INT),
      ("--budget", dict(type=int, default=emb.DEFAULT_BUDGET)))),
    ("embed", "recursion", "_do_embed_recursion", (),
     (("--M", _INT), ("--n", _INT))),
    ("embed", "roots", "_do_embed_roots", (), (("--M", _INT),)),
    ("embed", "scan", "_do_embed_scan", (),
     (("--n", _INT), ("--M", _INT),
      ("--budget", dict(type=int, default=emb.DEFAULT_BUDGET)))),
    ("embed", "moments", "_do_embed_moments", (),
     (("--n", _INT), ("--M", _INT))),
    ("embed", "mc", "_do_embed_mc", _REPLICAS,
     (("--M", _INT), ("--n", _INT),
      ("--target", dict(default="random", help="random, alternating, "
                        "constant, or a 0/1 literal")),
      ("--p-x", dict(type=float, default=0.5)),
      ("--p-y", dict(type=float, default=0.5)))),
    ("schedule", "survive", "_do_schedule_survive", _SEED,
     (("--M", _INT), ("--depth", _INT),
      ("--x", dict(default=None, help="comma-separated walk letters")),
      ("--y", dict(default=None)))),
    ("schedule", "curve", "_do_schedule_curve", _REPLICAS,
     (("--M", _INT), ("--depths", _STR))),
    ("schedule", "coupling", "_do_schedule_coupling", _REPLICAS,
     (("--M", _INT), ("--k", _INT), ("--depth", _INT))),
    ("schedule", "undirected", "_do_schedule_undirected", _REPLICAS,
     (("--M", _INT), ("--box", _INT))),
    ("schedule", "kwise", "_do_schedule_kwise", (),
     (("--vertices", dict(required=True, help="i,j;i,j;...")),
      ("--M", _INT), ("--max-terms", dict(type=int, default=10_000_000)))),
    ("compat", "decide", "_do_compat_decide", (),
     (("--x", _STR), ("--y", _STR))),
    ("compat", "cert", "_do_compat_cert", (), (("--x", _STR), ("--y", _STR))),
    ("compat", "mc", "_do_compat_mc", _REPLICAS,
     (("--p", dict(required=True, help="density or comma list")),
      ("--n", dict(required=True, help="horizon or comma list")))),
    ("lattice", "blocks", "_do_lattice_blocks", _REPLICAS,
     (("--p", _STR), ("--R", _INT))),
    ("lattice", "embed2d", "_do_lattice_embed2d", _SEED,
     (("--p", dict(default="1/2")), ("--R", _INT), ("--depth", _INT),
      ("--word", dict(default=None)),
      ("--word-length", dict(type=int, default=None)))),
    ("lattice", "visible", "_do_lattice_visible", (),
     (("--field", dict(required=True, help="text grid file")),
      ("--lattice", dict(default="square",
                         choices=[k.value for k in lat.LatticeKind])),
      ("--origin", dict(required=True, help="row,col (0-based)")),
      ("--word", _STR), ("--budget", dict(type=int, default=None)))),
    ("lattice", "abscan", "_do_lattice_abscan", _REPLICAS,
     (("--p", dict(default="1/2")), ("--box", _INT),
      ("--budget", dict(type=int, default=1_000_000)))),
    ("env", "column", "_do_env_column", _REPLICAS,
     (("--mu", dict(required=True, help="v1:w1,v2:w2,...")),
      ("--box", _INT))),
    ("env", "kwise", "_do_env_kwise", (),
     (("--pmf", dict(required=True, help="pmf CSV file")), ("--k", _INT))),
)


def build_parser(only=None) -> argparse.ArgumentParser:
    """The parser of every leaf in LEAVES or, when `only` is the (group,
    op) of a leaf, of that leaf alone; its usage, help, errors and
    Namespace are those of the full tree."""
    leaves = [leaf for leaf in LEAVES if leaf[:2] == only] or LEAVES
    top = argparse.ArgumentParser(
        prog="clairvoyant",
        description="Clairvoyant-demon problems at desk scale: exact "
                    "solvers and seeded Monte Carlo.",
    )
    # a one-leaf tree still lists every group on the usage line that an
    # unrecognized-arguments error prints
    metavar = (None if leaves is LEAVES else
               "{%s}" % ",".join(dict.fromkeys(leaf[0] for leaf in LEAVES)))
    groups = top.add_subparsers(dest="group", required=True, metavar=metavar)
    ops = {}
    for group, op, handler, draws, options in leaves:
        if group not in ops:
            ops[group] = groups.add_parser(group).add_subparsers(
                dest="op", required=True)
        p = ops[group].add_parser(op)
        for flag, kwargs in _COMMON + draws + options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=globals()[handler])
    return top


def parse_args(argv=None) -> argparse.Namespace:
    """Parse a command line (default sys.argv[1:]) with the parser of the
    leaf its first two words name, or with the full tree when they name
    none (top-level or group help, a bad or missing group or op)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    return build_parser(tuple(argv[:2])).parse_args(argv)


def _serialize(rows, fmt: str) -> bytes:
    columns = list(rows[0])
    cells = [[_cell(row[c]) for c in columns] for row in rows]
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(map(_csv_cell, line)) for line in cells]
    else:
        lines = [json.dumps(dict(zip(columns, line)), separators=(",", ":"))
                 for line in cells]
    return ("\n".join(lines) + "\n").encode("ascii")


def _csv_cell(value: str) -> str:
    if any(ch in value for ch in ",\"\n"):
        return '"%s"' % value.replace('"', '""')
    return value


def _config_echo(args) -> dict:
    skip = {"handler"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _env(args) -> dict:
    """Where the run ran: versions, CPUs, and the worker processes used."""
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    workers = (workers_used(args.replicas, args.workers)
               if hasattr(args, "workers") else 1)
    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        # None when no numpy attribute was read, so numpy never loaded
        "numpy": np.__version__ if type(np) is types.ModuleType else None,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "workers_used": workers,
    }


def run(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.monotonic()
    payload = _serialize(args.handler(args), args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
        target = args.out
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
        target = "<stdout>"
    manifest = {
        "command": "%s %s" % (args.group, args.op),
        "config": _config_echo(args),
        "env": _env(args),
        "version": __version__,
        "wall_time_s": round(time.monotonic() - t0, 6),
        "output": target,
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    if args.out:
        with open(args.out + ".manifest.json", "w", encoding="ascii") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        print(json.dumps(manifest, sort_keys=True), file=sys.stderr)
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except BudgetError as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ZeroDivisionError as exc:
        print("error: zero denominator: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory: %s" % (str(exc) or "an allocation "
                                             "failed"), file=sys.stderr)
        return 2
    except PropertyViolation as exc:
        print("property violation: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
