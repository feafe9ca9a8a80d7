"""Command-line front end.

Every run prints one table (CSV with a header row, or JSON objects one per
line) plus a run manifest (config echo, version, wall time, and a sha256 of
the emitted bytes).  Exact rationals are serialized as "num/den"; floats use
scientific notation with 12 significant digits.  Replicas map to rng streams
by index, so outputs are byte-identical for any --workers value.

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
from fractions import Fraction

import numpy as np

from . import __version__
from . import compatibility as compat
from . import embedding as emb
from . import environment as env
from . import lattice as lat
from . import scheduling as sched
from .errors import BudgetError, PropertyViolation
from .rng import RngSpec
from .runner import workers_used
from .stats import Estimate
from .words import Word, alternating_word, bernoulli_word, constant_word


def _f(x: float) -> str:
    return "%.11e" % float(x)


def _q(x: Fraction) -> str:
    return str(Fraction(x))


def _est_cells(e: Estimate) -> dict:
    return {
        "estimate": _f(e.mean),
        "stderr": _f(e.stderr),
        "replicas": str(e.replicas),
    }


def _jlist(values) -> str:
    return json.dumps(list(values), separators=(",", ":"))


def _parse_ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t != ""]


def _word_arg(text: str) -> Word:
    return Word.from_string(text)


def _seed(text: str) -> int:
    """--seed: one word of the Philox key, so 0 <= seed < 2^64.  RngSpec
    reduces a seed mod 2^64, which would give two recorded seeds the same
    streams."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid int value: %r" % text) from None
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(
            "must be in [0, 2^64), got %s" % text)
    return seed


def _rng(args) -> RngSpec:
    return RngSpec(args.seed)


def _check_printable(bits: int) -> None:
    """Refuse, before computing it, an exact probability over 2**bits whose
    denominator could pass Python's limit on int-to-str digits."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # exact rational arithmetic: bits may be too large for a float
    digits = int(bits * Fraction(math.log10(2))) + 1
    if limit and digits > limit:
        raise BudgetError(
            "the exact probability has a denominator of up to 2^%d (%d "
            "digits), over the %d-digit limit of int-to-str conversion (set "
            "by PYTHONINTMAXSTRDIGITS)" % (bits, digits, limit))


# ---------------------------------------------------------------- embed ----

def _do_embed_decide(args):
    v = _word_arg(args.v)
    y = _word_arg(args.y)
    wit = emb.embed_decide(v, y, args.M)
    row = {
        "found": str(wit is not None).lower(),
        "positions": _jlist(wit.positions) if wit else "[]",
        "valid": str(bool(wit) and emb.validate_embedding(wit, v, y)).lower(),
    }
    return ["found", "positions", "valid"], [row]


def _do_embed_count(args):
    n = emb.embed_count(_word_arg(args.v), _word_arg(args.y), args.M)
    return ["count"], [{"count": str(n)}]


def _do_embed_exact(args):
    v = _word_arg(args.v)
    _check_printable(args.M * len(v))
    pr = emb.embed_prob_exact(v, args.M, budget=args.budget)
    row = {
        "w": str(v),
        "probability_num": str(pr.numerator),
        "probability_den": str(pr.denominator),
    }
    return ["w", "probability_num", "probability_den"], [row]


def _do_embed_recursion(args):
    vals = emb.vn_recursion(args.M, args.n)
    rows = [{"n": str(i), "v": _q(v)} for i, v in enumerate(vals)]
    return ["n", "v"], rows


def _do_embed_roots(args):
    r = emb.char_roots(args.M)
    row = {
        "M": str(args.M),
        "r_small": _f(r.r_small),
        "r_large": _f(r.r_large),
        "health": _f(r.health),
    }
    return ["M", "r_small", "r_large", "health"], [row]


def _do_embed_scan(args):
    _check_printable(args.M * args.n)
    report = emb.extremal_scan(args.n, args.M, budget=args.budget)
    rows = [
        {
            "w": str(w),
            "probability_num": str(pr.numerator),
            "probability_den": str(pr.denominator),
        }
        for w, pr in report.table
    ]
    return ["w", "probability_num", "probability_den"], rows


def _do_embed_moments(args):
    rep = emb.moment_report(args.n, args.M)
    row = {
        "n": str(rep.n),
        "M": str(rep.M),
        "mean": _q(rep.mean),
        "second_moment_ratio": _q(rep.second_moment_ratio),
        "growth_estimate": _f(rep.growth_estimate) if rep.growth_estimate
        is not None else "",
    }
    return ["n", "M", "mean", "second_moment_ratio", "growth_estimate"], [row]


def _do_embed_mc(args):
    rng = _rng(args)
    if args.target == "random":
        est = emb.embed_survival_mc(args.M, args.n, args.p_x, args.p_y,
                                    args.replicas, rng, workers=args.workers)
        target = "random"
    else:
        if args.target == "alternating":
            v = alternating_word(args.n)
        elif args.target == "constant":
            v = constant_word(args.n)
        else:
            v = _word_arg(args.target)
            if len(v) != args.n:
                raise ValueError("--target %s has %d letters, not --n %d"
                                 % (v, len(v), args.n))
        est = emb.embed_prob_mc(v, args.M, args.replicas, rng,
                                p_y=args.p_y, workers=args.workers)
        target = str(v)
    row = {"target": target, "M": str(args.M), "n": str(args.n)}
    row.update(_est_cells(est))
    return ["target", "M", "n", "estimate", "stderr", "replicas"], [row]


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
    return sched.sample_grid(args.M, args.depth, _rng(args).generator())


def _do_schedule_survive(args):
    grid = _grid_from_args(args)
    wit = sched.directed_survival(grid, args.depth)
    row = {
        "survived": str(wit is not None).lower(),
        "path": _jlist([list(s) for s in wit.steps]) if wit else "[]",
    }
    return ["survived", "path"], [row]


def _do_schedule_curve(args):
    depths = _parse_ints(args.depths)
    ests = sched.survival_curve_mc(args.M, depths, args.replicas, _rng(args),
                                   workers=args.workers)
    rows = [
        {"depth": str(d), "estimate": _f(e.mean), "stderr": _f(e.stderr)}
        for d, e in zip(depths, ests)
    ]
    return ["depth", "estimate", "stderr"], rows


def _do_schedule_coupling(args):
    rep = sched.coupling_check(args.M, args.k, args.depth, args.replicas,
                               _rng(args), workers=args.workers)
    row = {
        "M": str(rep.M),
        "k": str(rep.k),
        "depth": str(rep.depth),
        "samples": str(rep.samples),
        "reduced_survivals": str(rep.reduced_survivals),
        "big_survivals": str(rep.big_survivals),
    }
    return ["M", "k", "depth", "samples", "reduced_survivals",
            "big_survivals"], [row]


def _do_schedule_undirected(args):
    est = sched.undirected_mc(args.M, args.box, args.replicas, _rng(args),
                              workers=args.workers)
    row = {"M": str(args.M), "box": str(args.box)}
    row.update(_est_cells(est))
    return ["M", "box", "estimate", "stderr", "replicas"], [row]


def _parse_vertices(text: str) -> list[tuple[int, int]]:
    verts = []
    for part in text.split(";"):
        ij = _parse_ints(part)
        if len(ij) != 2:
            raise ValueError("vertices look like i,j;i,j;...")
        verts.append((ij[0], ij[1]))
    return verts


def _pmf_rows(pmf):
    rows = []
    for o in sorted(pmf.probs):
        pr = pmf.probs[o]
        rows.append({
            "outcome": "".join(str(b) for b in o),
            "numerator": str(pr.numerator),
            "denominator": str(pr.denominator),
        })
    return ["outcome", "numerator", "denominator"], rows


def _do_schedule_kwise(args):
    verts = _parse_vertices(args.vertices)
    letters = len({i for i, _ in verts}) + len({j for _, j in verts})
    _check_printable(letters * args.M.bit_length())
    pmf = sched.kwise_joint(verts, args.M, max_terms=args.max_terms)
    return _pmf_rows(pmf)


# --------------------------------------------------------------- compat ----

def _do_compat_decide(args):
    x = _word_arg(args.x)
    y = _word_arg(args.y)
    wit = compat.compatible_prefix(x, y)
    row = {
        "compatible": str(wit is not None).lower(),
        "kept_x": _jlist(wit.kept_x) if wit else "[]",
        "kept_y": _jlist(wit.kept_y) if wit else "[]",
    }
    return ["compatible", "kept_x", "kept_y"], [row]


def _do_compat_cert(args):
    cert = compat.majority_certificate(_word_arg(args.x), _word_arg(args.y))
    row = {
        "found": str(cert is not None).lower(),
        "N": str(cert.N) if cert else "",
    }
    return ["found", "N"], [row]


def _do_compat_mc(args):
    ps = [float(Fraction(t)) for t in args.p.split(",")]
    ns = _parse_ints(args.n)
    rows = []
    for p in ps:
        ests = compat.psi_curve_mc(p, ns, args.replicas, _rng(args),
                                   workers=args.workers)
        for n, est in zip(ns, ests):
            rows.append({
                "p": _f(p),
                "n": str(n),
                "estimate": _f(est.mean),
                "stderr": _f(est.stderr),
            })
    return ["p", "n", "estimate", "stderr"], rows


# -------------------------------------------------------------- lattice ----

def _do_lattice_blocks(args):
    p = Fraction(args.p)
    # the formula's denominator divides den(p)^(R^2)
    _check_printable(math.ceil(args.R ** 2
                               * Fraction(math.log2(p.denominator))))
    formula = lat.block_good_prob(p, args.R)
    est = lat.block_good_mc(float(p), args.R, args.replicas, _rng(args),
                            workers=args.workers)
    row = {"p": args.p, "R": str(args.R), "formula": _q(formula)}
    row.update(_est_cells(est))
    return ["p", "R", "formula", "estimate", "stderr", "replicas"], [row]


def _do_lattice_embed2d(args):
    rng = _rng(args)
    p = float(Fraction(args.p))
    width = (args.depth + 1) * args.R
    height = (2 * args.depth + 1) * args.R
    field = lat.sample_field(p, width, height, rng.stream(0))
    if args.word is not None:
        w = _word_arg(args.word)
    elif args.word_length is not None:
        w = bernoulli_word(args.word_length, 0.5, rng.stream(1))
    else:
        raise ValueError("give --word or --word-length")
    path = lat.block_percolation(field, args.R, args.depth)
    if path is None:
        row = {"found": "false", "block_path": "[]", "rows": "[]",
               "cols": "[]", "gap_bound": "", "valid": ""}
    else:
        wit = lat.embed_word_2d(w, field, args.R, path)
        row = {
            "found": "true",
            "block_path": _jlist([list(b) for b in path]),
            "rows": _jlist(wit.rows),
            "cols": _jlist(wit.cols),
            "gap_bound": str(wit.gap_bound),
            "valid": str(lat.validate_embedding_2d(wit, w, field)).lower(),
        }
    return ["found", "block_path", "rows", "cols", "gap_bound", "valid"], [row]


def _do_lattice_visible(args):
    with open(args.field, "r", encoding="ascii") as fh:
        field = lat.field_from_text(fh.read())
    origin = tuple(_parse_ints(args.origin))
    if len(origin) != 2:
        raise ValueError("origin looks like row,col (0-based)")
    out = lat.visible_word(field.cells, lat.LatticeKind.parse(args.lattice),
                           origin, _word_arg(args.word), budget=args.budget)
    return ["outcome"], [{"outcome": out.value}]


def _do_lattice_abscan(args):
    rep = lat.ab_scan(float(Fraction(args.p)), args.box, args.replicas,
                      _rng(args), budget=args.budget, workers=args.workers)
    rows = []
    for name, est, exhausted in (
        ("alternating", rep.alternating, rep.alternating_exhausted),
        ("constant", rep.constant, rep.constant_exhausted),
    ):
        row = {"word": name}
        row.update(_est_cells(est))
        row["exhausted"] = str(exhausted)
        rows.append(row)
    return ["word", "estimate", "stderr", "replicas", "exhausted"], rows


# ------------------------------------------------------------------ env ----

def _do_env_column(args):
    mu = env.FiniteDistribution.parse(args.mu)
    est = env.column_percolation_mc(mu, args.box, args.replicas, _rng(args),
                                    workers=args.workers)
    row = {"mu": str(mu), "box": str(args.box)}
    row.update(_est_cells(est))
    return ["mu", "box", "estimate", "stderr", "replicas"], [row]


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
    pmf = _read_pmf_csv(args.pmf)
    rep = env.kwise_test(pmf, args.k)
    worst = rep.worst
    row = {
        "k": str(rep.k),
        "independent": str(rep.independent).lower(),
        "subset": _jlist(worst.subset) if worst else "[]",
        "outcome": "".join(str(b) for b in worst.outcome) if worst else "",
        "joint": _q(worst.joint) if worst else "",
        "expected": _q(worst.expected) if worst else "",
    }
    return ["k", "independent", "subset", "outcome", "joint", "expected"], [row]


# ------------------------------------------------------------- plumbing ----

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="clairvoyant",
        description="Clairvoyant-demon problems at desk scale: exact "
                    "solvers and seeded Monte Carlo.",
    )
    groups = top.add_subparsers(dest="group", required=True)

    def leaf(group, name, fn, seed=False, replicas=False):
        """A subcommand; --seed where it draws, --replicas and --workers
        (and --seed) where it runs replicas."""
        p = group.add_parser(name)
        p.add_argument("--out", default=None,
                       help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if seed or replicas:
            p.add_argument("--seed", type=_seed, default=0,
                           help="master seed, 0 <= seed < 2^64")
        if replicas:
            p.add_argument("--replicas", type=int, default=10000)
            p.add_argument("--workers", type=int, default=1)
        p.set_defaults(handler=fn)
        return p

    g = groups.add_parser("embed").add_subparsers(dest="op", required=True)
    p = leaf(g, "decide", _do_embed_decide)
    p.add_argument("--v", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--M", type=int, required=True)
    p = leaf(g, "count", _do_embed_count)
    p.add_argument("--v", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--M", type=int, required=True)
    p = leaf(g, "exact", _do_embed_exact)
    p.add_argument("--v", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--budget", type=int, default=emb.DEFAULT_BUDGET)
    p = leaf(g, "recursion", _do_embed_recursion)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p = leaf(g, "roots", _do_embed_roots)
    p.add_argument("--M", type=int, required=True)
    p = leaf(g, "scan", _do_embed_scan)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--budget", type=int, default=emb.DEFAULT_BUDGET)
    p = leaf(g, "moments", _do_embed_moments)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p = leaf(g, "mc", _do_embed_mc, replicas=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", default="random",
                   help="random, alternating, constant, or a 0/1 literal")
    p.add_argument("--p-x", type=float, default=0.5)
    p.add_argument("--p-y", type=float, default=0.5)

    g = groups.add_parser("schedule").add_subparsers(dest="op", required=True)
    p = leaf(g, "survive", _do_schedule_survive, seed=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--x", default=None, help="comma-separated walk values")
    p.add_argument("--y", default=None)
    p = leaf(g, "curve", _do_schedule_curve, replicas=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--depths", required=True)
    p = leaf(g, "coupling", _do_schedule_coupling, replicas=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p = leaf(g, "undirected", _do_schedule_undirected, replicas=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--box", type=int, required=True)
    p = leaf(g, "kwise", _do_schedule_kwise)
    p.add_argument("--vertices", required=True, help="i,j;i,j;...")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--max-terms", type=int, default=10_000_000)

    g = groups.add_parser("compat").add_subparsers(dest="op", required=True)
    p = leaf(g, "decide", _do_compat_decide)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p = leaf(g, "cert", _do_compat_cert)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p = leaf(g, "mc", _do_compat_mc, replicas=True)
    p.add_argument("--p", required=True, help="density or comma list")
    p.add_argument("--n", required=True, help="horizon or comma list")

    g = groups.add_parser("lattice").add_subparsers(dest="op", required=True)
    p = leaf(g, "blocks", _do_lattice_blocks, replicas=True)
    p.add_argument("--p", required=True)
    p.add_argument("--R", type=int, required=True)
    p = leaf(g, "embed2d", _do_lattice_embed2d, seed=True)
    p.add_argument("--p", default="1/2")
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--word", default=None)
    p.add_argument("--word-length", type=int, default=None)
    p = leaf(g, "visible", _do_lattice_visible)
    p.add_argument("--field", required=True, help="text grid file")
    p.add_argument("--lattice", default="square",
                   choices=[k.value for k in lat.LatticeKind])
    p.add_argument("--origin", required=True, help="row,col (0-based)")
    p.add_argument("--word", required=True)
    p.add_argument("--budget", type=int, default=None)
    p = leaf(g, "abscan", _do_lattice_abscan, replicas=True)
    p.add_argument("--p", default="1/2")
    p.add_argument("--box", type=int, required=True)
    p.add_argument("--budget", type=int, default=1_000_000)

    g = groups.add_parser("env").add_subparsers(dest="op", required=True)
    p = leaf(g, "column", _do_env_column, replicas=True)
    p.add_argument("--mu", required=True, help="v1:w1,v2:w2,...")
    p.add_argument("--box", type=int, required=True)
    p = leaf(g, "kwise", _do_env_kwise)
    p.add_argument("--pmf", required=True, help="pmf CSV file")
    p.add_argument("--k", type=int, required=True)

    return top


def _serialize(columns, rows, fmt: str) -> bytes:
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_csv_cell(row.get(c, "")) for c in columns))
        return ("\n".join(lines) + "\n").encode("ascii")
    lines = [json.dumps({c: row.get(c, "") for c in columns},
                        separators=(",", ":")) for row in rows]
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
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "workers_used": workers,
    }


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    columns, rows = args.handler(args)
    payload = _serialize(columns, rows, args.format)
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
        print("error: out of memory: %s" % exc, file=sys.stderr)
        return 2
    except PropertyViolation as exc:
        print("property violation: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
