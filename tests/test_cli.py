import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from clairvoyant import cli
from clairvoyant.runner import BLOCK_LETTERS


def run_csv(tmp_path, argv, name="out.csv"):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    manifest = json.loads((tmp_path / (name + ".manifest.json")).read_text())
    return rows, manifest, out


def _startup_modules(*roots):
    """Modules under `roots` loaded by importing the CLI and its parser."""
    code = ("import sys, clairvoyant, clairvoyant.cli\n"
            "clairvoyant.cli.build_parser()\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in %r))"
            % (roots,))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_startup_imports_no_scipy():
    # scipy.ndimage alone took about half of every CLI run's start-up
    assert _startup_modules("scipy") == "[]"


def test_startup_imports_no_process_pool():
    # concurrent.futures.process took 16-22 ms of every CLI start-up
    assert _startup_modules("concurrent", "multiprocessing") == "[]"


def test_readme_cli_block_lists_every_leaf():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = {group: set(leaves.split(",")) for group, leaves in
                  re.findall(r"^clairvoyant (\w+) +\{([\w,]+)\}$", readme,
                             re.M)}

    def subcommands(parser):
        action, = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    assert documented == {group: set(subcommands(sub)) for group, sub in
                          subcommands(cli.build_parser()).items()}


def test_recursion_output(tmp_path):
    rows, manifest, _ = run_csv(tmp_path, ["embed", "recursion", "--M", "2",
                                           "--n", "2"])
    assert [r["v"] for r in rows] == ["1", "3/4", "5/8"]
    assert manifest["command"] == "embed recursion"
    assert manifest["config"]["M"] == 2


def test_manifest_hash_matches_payload(tmp_path):
    _, manifest, out = run_csv(tmp_path, ["embed", "roots", "--M", "3"])
    assert manifest["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest["version"]
    assert manifest["wall_time_s"] >= 0


def test_manifest_env(tmp_path):
    _, manifest, out = run_csv(tmp_path, ["compat", "mc", "--p", "1/2",
                                          "--n", "5", "--replicas", "2",
                                          "--workers", "3", "--seed", "1"])
    assert manifest["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
    env = manifest["env"]
    assert set(env) == {"python", "numpy", "cpu_count", "cpu_affinity",
                        "workers_used"}
    assert env["python"].count(".") == 2 and env["numpy"]
    assert env["cpu_count"] >= 1
    assert env["workers_used"] == 2          # two replicas, not three chunks
    _, manifest, _ = run_csv(tmp_path, ["embed", "roots", "--M", "3"])
    assert manifest["env"]["workers_used"] == 1


def test_manifest_without_fork_reports_one_worker(tmp_path, monkeypatch):
    argv = ["schedule", "curve", "--M", "3", "--depths", "4,8",
            "--replicas", "30", "--seed", "2", "--workers", "3"]
    _, forked, forked_out = run_csv(tmp_path, argv, "forked.csv")
    monkeypatch.delattr(os, "fork")
    _, alone, alone_out = run_csv(tmp_path, argv, "alone.csv")
    assert alone_out.read_bytes() == forked_out.read_bytes()
    assert forked["env"]["workers_used"] == 3
    assert alone["env"]["workers_used"] == 1


def test_scan_header_and_values(tmp_path):
    rows, _, out = run_csv(tmp_path, ["embed", "scan", "--n", "3", "--M", "2"])
    header = out.read_text().splitlines()[0]
    assert header == "w,probability_num,probability_den"
    assert len(rows) == 8
    got = {r["w"]: (int(r["probability_num"]), int(r["probability_den"]))
           for r in rows}
    num, den = got["010"]
    assert num * 32 == den * 17           # v_3 = 17/32


def test_exact_decide_count(tmp_path):
    rows, _, _ = run_csv(tmp_path, ["embed", "exact", "--v", "01", "--M", "2"])
    assert rows[0]["probability_num"] == "5"
    assert rows[0]["probability_den"] == "8"
    rows, _, _ = run_csv(tmp_path, ["embed", "decide", "--v", "01",
                                    "--y", "0101", "--M", "2"])
    assert rows[0] == {"found": "true", "positions": "[1,2]", "valid": "true"}
    rows, _, _ = run_csv(tmp_path, ["embed", "count", "--v", "01",
                                    "--y", "0101", "--M", "2"])
    assert rows[0]["count"] == "1"


def test_embed_mc_modes(tmp_path):
    args = ["embed", "mc", "--M", "2", "--n", "6", "--replicas", "300",
            "--seed", "5"]
    rows, _, _ = run_csv(tmp_path, args + ["--target", "alternating"])
    assert rows[0]["target"] == "010101"
    rows, _, _ = run_csv(tmp_path, args + ["--target", "random"])
    assert rows[0]["target"] == "random"
    rows, _, _ = run_csv(tmp_path, args + ["--target", "110010"])
    assert rows[0]["target"] == "110010"
    # a literal target fixes n: a mismatch is refused, not mislabelled
    assert cli.main(args + ["--target", "0101"]) == 2


def test_schedule_commands(tmp_path):
    rows, _, _ = run_csv(tmp_path, ["schedule", "survive", "--M", "2",
                                    "--depth", "2", "--x", "1,1,1",
                                    "--y", "2,2,2"])
    assert rows[0]["survived"] == "true"
    assert json.loads(rows[0]["path"])[0] == [0, 0]
    rows, _, _ = run_csv(tmp_path, ["schedule", "curve", "--M", "2",
                                    "--depths", "1,3", "--replicas", "200",
                                    "--seed", "1"])
    assert [r["depth"] for r in rows] == ["1", "3"]
    assert float(rows[0]["estimate"]) >= float(rows[1]["estimate"])
    rows, _, _ = run_csv(tmp_path, ["schedule", "coupling", "--M", "2",
                                    "--k", "2", "--depth", "10",
                                    "--replicas", "50", "--seed", "2"])
    assert int(rows[0]["reduced_survivals"]) <= int(rows[0]["big_survivals"])
    rows, _, _ = run_csv(tmp_path, ["schedule", "undirected", "--M", "3",
                                    "--box", "5", "--replicas", "100",
                                    "--seed", "3"])
    assert 0.0 <= float(rows[0]["estimate"]) <= 1.0


def test_kwise_csv_feeds_env_checker(tmp_path):
    _, _, out = run_csv(tmp_path, ["schedule", "kwise",
                                   "--vertices", "1,1;1,2;2,1", "--M", "2"],
                        name="pmf.csv")
    rows, _, _ = run_csv(tmp_path, ["env", "kwise", "--pmf", str(out),
                                    "--k", "3"], name="report.csv")
    assert rows[0]["independent"] == "true"
    # M = 10^6: 10^24 assignments, 15 equality patterns
    for M in ("4", "1000000"):
        _, _, out4 = run_csv(tmp_path, ["schedule", "kwise",
                                        "--vertices", "1,1;1,2;2,1;2,2",
                                        "--M", M], name="pmf4.csv")
        for k, independent in (("3", "true"), ("4", "false")):
            rows, _, _ = run_csv(tmp_path, ["env", "kwise", "--pmf",
                                            str(out4), "--k", k],
                                 name="report4.csv")
            assert rows[0]["independent"] == independent, (M, k)


_RECT = "1,1;1,2;2,1;2,2"
_WINDOW = "1,1;1,2;1,3;2,1;2,2;2,3;3,1;3,2;3,3"

# schedule kwise payloads as the M**(a+b) enumeration printed them
_KWISE_BYTES = {
    (_RECT, 2): b"outcome,numerator,denominator\n0000,1,8\n0011,1,8\n"
                b"0101,1,8\n0110,1,8\n1001,1,8\n1010,1,8\n1100,1,8\n"
                b"1111,1,8\n",
    (_RECT, 4): b"outcome,numerator,denominator\n0000,1,64\n0011,3,64\n"
                b"0101,3,64\n0110,3,64\n0111,3,32\n1001,3,64\n"
                b"1010,3,64\n1011,3,32\n1100,3,64\n1101,3,32\n"
                b"1110,3,32\n1111,21,64\n",
    (_RECT, 6): b"outcome,numerator,denominator\n0000,1,216\n0011,5,216\n"
                b"0101,5,216\n0110,5,216\n0111,5,54\n1001,5,216\n"
                b"1010,5,216\n1011,5,54\n1100,5,216\n1101,5,54\n"
                b"1110,5,54\n1111,35,72\n",
}
# the 3x3 window at M = 3: 110 rows, each over 3^5 = 243
_KWISE_WINDOW_M3_SHA256 = ("d9c2a40d42fc96ec0586e22b056079908a65c4cbb60b06c5"
                           "0bf24bcb40034562")


def test_kwise_payload_bytes_pinned(tmp_path):
    for (verts, M), want in _KWISE_BYTES.items():
        _, _, out = run_csv(tmp_path, ["schedule", "kwise", "--vertices",
                                       verts, "--M", str(M)])
        assert out.read_bytes() == want, M
    _, _, out = run_csv(tmp_path, ["schedule", "kwise", "--vertices",
                                   _WINDOW, "--M", "3"])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        _KWISE_WINDOW_M3_SHA256


def test_kwise_refuses_unprintable_denominator(tmp_path, capsys):
    # M = 10^3000 has 9966 bits, so M^2 may need 2^19932 (6001 digits)
    code = cli.main(["schedule", "kwise", "--vertices", "1,1",
                     "--M", str(10**3000)])
    err = capsys.readouterr().err
    assert code == 2
    assert "refused" in err and "2^19932 (6001 digits)" in err
    assert "Traceback" not in err
    # M = 10^2000: 2^13288 has 4001 digits, printed in full
    rows, _, _ = run_csv(tmp_path, ["schedule", "kwise", "--vertices", "1,1",
                                    "--M", str(10**2000)])
    assert rows == [{"outcome": "0", "numerator": "1",
                     "denominator": str(10**2000)},
                    {"outcome": "1", "numerator": str(10**2000 - 1),
                     "denominator": str(10**2000)}]


def test_compat_commands(tmp_path):
    rows, _, _ = run_csv(tmp_path, ["compat", "decide", "--x", "0110",
                                    "--y", "1001"])
    assert rows[0]["compatible"] == "true"
    rows, _, _ = run_csv(tmp_path, ["compat", "decide", "--x", "111",
                                    "--y", "111"])
    assert rows[0] == {"compatible": "false", "kept_x": "[]", "kept_y": "[]"}
    rows, _, _ = run_csv(tmp_path, ["compat", "cert", "--x", "111",
                                    "--y", "111"])
    assert rows[0] == {"found": "true", "N": "1"}
    rows, _, _ = run_csv(tmp_path, ["compat", "mc", "--p", "1/2",
                                    "--n", "10,20", "--replicas", "200",
                                    "--seed", "4"])
    assert [r["n"] for r in rows] == ["10", "20"]
    assert float(rows[0]["estimate"]) >= float(rows[1]["estimate"])


def test_lattice_commands(tmp_path):
    rows, _, _ = run_csv(tmp_path, ["lattice", "blocks", "--p", "1/2",
                                    "--R", "2", "--replicas", "500",
                                    "--seed", "6"])
    assert rows[0]["formula"] == "7/8"
    rows, _, _ = run_csv(tmp_path, ["lattice", "embed2d", "--p", "1/2",
                                    "--R", "2", "--depth", "8",
                                    "--word", "0101", "--seed", "7"])
    if rows[0]["found"] == "true":
        assert rows[0]["valid"] == "true"
        assert rows[0]["gap_bound"] == "10"
    field = tmp_path / "field.txt"
    field.write_text("010\n101\n010\n")
    rows, _, _ = run_csv(tmp_path, ["lattice", "visible", "--field",
                                    str(field), "--origin", "1,1",
                                    "--word", "1010"])
    assert rows[0]["outcome"] == "found"
    rows, _, _ = run_csv(tmp_path, ["lattice", "abscan", "--p", "1/2",
                                    "--box", "3", "--replicas", "40",
                                    "--seed", "8"])
    assert {r["word"] for r in rows} == {"alternating", "constant"}


def test_env_column(tmp_path):
    rows, _, _ = run_csv(tmp_path, ["env", "column", "--mu", "1:1",
                                    "--box", "4", "--replicas", "30",
                                    "--seed", "9"])
    assert float(rows[0]["estimate"]) == 1.0


def test_json_format_matches_csv(tmp_path):
    argv = ["embed", "roots", "--M", "5"]
    rows_csv, _, _ = run_csv(tmp_path, argv)
    out = tmp_path / "roots.jsonl"
    assert cli.main(argv + ["--format", "json", "--out", str(out)]) == 0
    rows_json = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows_json == rows_csv


def test_float_formatting(tmp_path):
    rows, _, _ = run_csv(tmp_path, ["embed", "roots", "--M", "2"])
    assert rows[0]["r_large"] == "8.53553390593e-01"


def test_exit_codes(tmp_path, capsys):
    # refusing an oversized exact computation is a usage-class failure
    assert cli.main(["embed", "scan", "--n", "24", "--M", "1"]) == 2
    assert "refused" in capsys.readouterr().err
    assert cli.main(["embed", "roots", "--M", "1"]) == 2
    with pytest.raises(SystemExit):
        cli.main(["embed", "nosuchop"])
    # a failed runtime self-check maps to 1
    def boom(argv=None):
        raise cli.PropertyViolation("forced")
    orig = cli.run
    cli.run = boom
    try:
        assert cli.main([]) == 1
    finally:
        cli.run = orig


def test_worker_count_does_not_change_bytes(tmp_path):
    argv = ["compat", "mc", "--p", "1/2,0.3", "--n", "30,4,12",
            "--replicas", "400", "--seed", "123"]
    outs = []
    for w, name in ((1, "a.csv"), (3, "b.csv")):
        out = tmp_path / name
        assert cli.main(argv + ["--workers", str(w), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# Payload bytes recorded while each replica was still swept on its own,
# before replicas were swept in blocks.  At these depths a block holds at
# most 10 (curve) or 81 (coupling) replicas, so every chunk spans several.
_SCHEDULE_BYTES = {
    "schedule curve --M 4 --depths 3000,0,40,3000,300 --replicas 90 --seed 5":
        b"depth,estimate,stderr\n"
        b"3000,7.33333333333e-01,4.68748699540e-02\n"
        b"0,1.00000000000e+00,0.00000000000e+00\n"
        b"40,7.66666666667e-01,4.48328843106e-02\n"
        b"3000,7.33333333333e-01,4.68748699540e-02\n"
        b"300,7.33333333333e-01,4.68748699540e-02\n",
    "schedule curve --M 4 --depths 3000,0,40,3000,300 --replicas 90 --seed 6":
        b"depth,estimate,stderr\n"
        b"3000,7.55555555556e-01,4.55541852965e-02\n"
        b"0,1.00000000000e+00,0.00000000000e+00\n"
        b"40,7.88888888889e-01,4.32582017782e-02\n"
        b"3000,7.55555555556e-01,4.55541852965e-02\n"
        b"300,7.55555555556e-01,4.55541852965e-02\n",
    "schedule coupling --M 4 --k 2 --depth 400 --replicas 600 --seed 7":
        b"M,k,depth,samples,reduced_survivals,big_survivals\n"
        b"4,2,400,600,451,588\n",
}


@pytest.mark.parametrize("argv", sorted(_SCHEDULE_BYTES))
def test_schedule_payload_bytes_pinned(tmp_path, argv):
    depth = int(re.search(r"--depths? (\d+)", argv).group(1))
    replicas = int(re.search(r"--replicas (\d+)", argv).group(1))
    assert BLOCK_LETTERS // (2 * (depth + 1)) < replicas // 3
    for workers in (1, 2, 3):
        out = tmp_path / ("w%d.csv" % workers)
        assert cli.main(argv.split() + ["--workers", str(workers),
                                        "--out", str(out)]) == 0
        assert out.read_bytes() == _SCHEDULE_BYTES[argv], workers


def _out_of_memory(args):
    raise MemoryError("forced")


# rows whose handler is replaced, so that the failure needs no real input
_FORCED = {
    "schedule undirected --M 2 --box 3 --replicas 1":
        ("_do_schedule_undirected", _out_of_memory),
}


# the message each of these rows must print
_SAYS = {
    "schedule kwise --vertices 1,1 --M 1": "alphabet size M must be >= 2",
    "schedule kwise --vertices 1,1 --M 0": "alphabet size M must be >= 2",
    "schedule kwise --vertices 1,1 --M 3 --max-terms -1":
        "max_terms must be >= 0",
    "lattice embed2d --R 2 --depth 2 --word-length -1": "n must be >= 0",
    "schedule undirected --M 2 --box -1 --replicas 5": "box must be >= 0",
    "schedule curve --M 1 --depths 5 --replicas 3":
        "alphabet size M must be >= 2",
    "schedule curve --M 0 --depths 5 --replicas 3":
        "alphabet size M must be >= 2",
    "lattice abscan --p 1/2 --box 3000000 --replicas 1": "out of memory",
    "embed mc --target alternating --M 3 --n 8 --replicas 20 --seed -1":
        "argument --seed: must be in [0, 2^64), got -1",
    "embed mc --target alternating --M 3 --n 8 --replicas 20 "
    "--seed 18446744073709551616":
        "argument --seed: must be in [0, 2^64), got 18446744073709551616",
}


@pytest.mark.parametrize("argv", [
    "embed mc --M 0 --n 5",
    "embed mc --M 0 --n 5 --target alternating",
    "embed mc --M 2 --n 7 --target 0101",
    "embed mc --M 2 --n -1",
    "embed mc --M 2 --n -1 --target constant",
    "lattice abscan --p 2 --box 3 --replicas 5",
    "lattice abscan --p -1 --box 3 --replicas 5",
    "schedule coupling --M 2 --k 2 --depth -1 --replicas 5",
    "lattice embed2d --R 2 --depth 3",
    "compat mc --p 1/0 --n 5 --replicas 5",
    "lattice blocks --p 1/0 --R 2 --replicas 5",
    "lattice abscan --p 1/0 --box 3 --replicas 5",
    "lattice abscan --box 2 --replicas 3 --budget -5",
    "lattice visible --field {field} --origin 1,1 --word 1010 --budget -1",
    "embed exact --v 0101 --M 2 --budget -1",
    "lattice embed2d --p 1/0 --R 2 --depth 3 --word 01",
    "env column --mu 1/0:1 --box 3 --replicas 5",
    "lattice visible --field {missing} --origin 0,0 --word 1",
    "env kwise --pmf {missing} --k 2",
    "env kwise --pmf {no_outcome} --k 2",
    # 00 listed twice: the rows sum to 5/4
    "env kwise --pmf {dup_outcome} --k 2",
    # the rows sum to 1, but 00 has probability -1/2
    "env kwise --pmf {negative} --k 2",
    # the leaf is gone: compat decide answers it with a checked witness
    "compat oracle --x 1 --y 1",
    # flags a subcommand would ignore are refused
    "embed decide --v 01 --y 01 --M 1 --seed 3",
    "schedule survive --M 2 --depth 1 --replicas 5",
    "lattice embed2d --R 2 --depth 3 --word 01 --workers 2",
    # running out of memory, forced by a patched handler (see _FORCED)
    "schedule undirected --M 2 --box 3 --replicas 1",
    # a 6000001 x 6000001 field: refused when it is drawn, with the words
    # of length 3000000 built in well under a second
    "lattice abscan --p 1/2 --box 3000000 --replicas 1",
    # the rows below are refused in the words of the flag given (see _SAYS)
    "schedule kwise --vertices 1,1 --M 1",
    "schedule kwise --vertices 1,1 --M 0",
    "schedule kwise --vertices 1,1 --M 3 --max-terms -1",
    "lattice embed2d --R 2 --depth 2 --word-length -1",
    "schedule undirected --M 2 --box -1 --replicas 5",
    "schedule curve --M 1 --depths 5 --replicas 3",
    "schedule curve --M 0 --depths 5 --replicas 3",
    # a seed outside [0, 2^64) would alias one inside: RngSpec reduces the
    # key mod 2^64, so -1 gave the streams of 2^64 - 1 and 2^64 those of 0
    "embed mc --target alternating --M 3 --n 8 --replicas 20 --seed -1",
    "embed mc --target alternating --M 3 --n 8 --replicas 20 "
    "--seed 18446744073709551616",
])
def test_bad_input_exits_2_with_message(tmp_path, capsys, monkeypatch, argv):
    if argv in _FORCED:
        monkeypatch.setattr(cli, *_FORCED[argv])
    no_outcome = tmp_path / "no_outcome.csv"
    no_outcome.write_text("numerator,denominator\n1,2\n")
    dup_outcome = tmp_path / "dup_outcome.csv"
    dup_outcome.write_text("outcome,numerator,denominator\n00,1,4\n01,1,4\n"
                           "10,1,4\n11,1,4\n00,1,4\n")
    negative = tmp_path / "negative.csv"
    negative.write_text("outcome,numerator,denominator\n00,-1,2\n11,3,2\n")
    field = tmp_path / "field.txt"
    field.write_text("010\n101\n010\n")
    argv = argv.format(missing=tmp_path / "missing", no_outcome=no_outcome,
                       dup_outcome=dup_outcome, negative=negative,
                       field=field).split()
    try:
        code = cli.main(argv)
    except SystemExit as exc:      # argparse exits on unknown flags and leaves
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err
    assert "Traceback" not in err
    assert _SAYS.get(" ".join(argv), "") in err


def test_survive_literal_walks_past_int64(tmp_path):
    # values past int64 stay exact Python ints in object arrays; numpy
    # would read 1 and 2^63 as float64, where 2^63 == 2^63 + 2 closes (1, 0)
    for M, x, y in (("100000000000000000000000",
                     "1,10000000000000000000000", "2,1"),
                    (str(2**64), "1,%d" % 2**63, "%d,1" % (2**63 + 2))):
        rows, _, _ = run_csv(tmp_path, ["schedule", "survive", "--M", M,
                                        "--depth", "1", "--x", x, "--y", y])
        assert rows == [{"survived": "true", "path": "[[0,0],[1,0]]"}]


def test_survive_refuses_empty_literal_walks(capsys):
    # an empty walk has no starting value; the depth check used to refuse
    # it as "grid has only -1 levels", naming no flag
    for x, y in (("", ""), ("", "1"), ("1,2", ","), (",", "2,1")):
        assert cli.main(["schedule", "survive", "--M", "2", "--depth", "0",
                         "--x", x, "--y", y]) == 2
        err = capsys.readouterr().err
        assert "--x and --y must each give at least one value" in err
        assert "Traceback" not in err


def test_exact_fraction_past_int_str_limit(tmp_path, capsys):
    # 2**15000 has 4516 digits, past Python's default limit of 4300 for
    # int-to-str conversion: refused up front, naming the size
    code = cli.main(["embed", "exact", "--v", "01" * 7500, "--M", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "refused" in err and "2^15000" in err and "4516 digits" in err
    assert "Traceback" not in err
    # 2**14000 has 4215 digits: printed in full
    rows, _, _ = run_csv(tmp_path, ["embed", "exact", "--v", "01" * 7000,
                                    "--M", "1"])
    assert rows[0]["probability_num"] == "1"
    assert int(rows[0]["probability_den"]) == 2**14000


def test_block_formula_past_int_str_limit(tmp_path, capsys):
    # the formula's denominator divides 2^(R^2): R = 120 gives 2^14400, 4335
    # digits, refused before any Fraction power; so is R = 10^5, and sizes
    # past the float range are refused too, not raised as OverflowError
    huge = 10**200
    blocks = "lattice blocks --replicas 1 --p 1/2 --R "
    for argv, size in (
            (blocks + "120", "2^14400 (4335 digits)"),
            (blocks + "100000", "2^10000000000 (3010299957 digits)"),
            (blocks + str(huge), "2^%d" % huge ** 2),
            ("embed exact --v 01 --M %d" % huge ** 2,
             "2^%d" % (2 * huge ** 2))):
        code = cli.main(argv.split())
        err = capsys.readouterr().err
        assert code == 2
        assert "refused" in err and size in err
        assert "Traceback" not in err
    # R = 119: 2^14161 has 4263 digits, printed in full
    rows, _, _ = run_csv(tmp_path, ["lattice", "blocks", "--p", "1/2",
                                    "--R", "119", "--replicas", "1"])
    assert Fraction(rows[0]["formula"]) == 1 - Fraction(2, 2**14161)


_literals = st.text("01", max_size=8)


@st.composite
def _embed_argv(draw):
    op = draw(st.sampled_from(("exact", "scan", "moments", "recursion",
                               "roots", "decide", "count", "mc")))
    M = draw(st.integers(-2, 8))
    argv = ["embed", op, "--M", str(M)]
    if op in ("exact", "decide", "count"):
        v = draw(_literals)
        assume(len(v) * M <= 16)
        argv += ["--v", v]
    if op in ("decide", "count"):
        argv += ["--y", draw(_literals)]
    if op in ("scan", "moments", "recursion", "mc"):
        n = draw(st.integers(-2, 8))
        assume(n * M <= 16 or op == "mc")
        argv += ["--n", str(n)]
    if op in ("exact", "scan") and draw(st.booleans()):
        argv += ["--budget", str(draw(st.integers(-1, 10**4)))]
    if op == "mc":
        argv += ["--target", draw(st.one_of(
            st.sampled_from(("random", "alternating", "constant", "zeros")),
            _literals, st.text("01", min_size=max(n, 0),
                               max_size=max(n, 0))))]
        for name in ("--p-x", "--p-y"):
            if draw(st.booleans()):
                argv += [name, draw(st.sampled_from(
                    ("0", "1", "0.5", "0.3", "-0.5", "1.5", "nan", "inf")))]
        argv += ["--replicas", str(draw(st.integers(-1, 5))),
                 "--workers", str(draw(_workers))]
        if draw(st.booleans()):
            argv += ["--seed", str(draw(st.integers(-3, 3)))]
    return argv


def _assert_exits_0_or_2(argv):
    out = io.TextIOWrapper(io.BytesIO())     # the payload goes to .buffer
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:      # argparse rejects the value itself
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    if code == 2:
        assert err.getvalue().strip()
    assert "Traceback" not in err.getvalue()


@given(_embed_argv())
@settings(max_examples=300, deadline=None)
def test_embed_argv_fuzz_exits_0_or_2(argv):
    _assert_exits_0_or_2(argv)


# Files the other leaves read: a good one, an empty one and broken ones.
_FILES = {
    "field": "010\n101\n010\n",
    "ragged_field": "01\n1\n",
    "letter_field": "0a\n10\n",
    "pmf": "outcome,numerator,denominator\n00,1,2\n11,1,2\n",
    "bad_pmf": "outcome,numerator,denominator\n0x,1,0\n",
    "no_outcome": "numerator,denominator\n1,2\n",
    "empty": "",
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in _FILES.items():
        (root / name).write_text(text)
    return root


_small = st.integers(-2, 6)
# valid values are drawn more often than each kind of invalid one
_density = st.sampled_from(("0", "1", "1/2", "0.3", "0.7", "1/3", "2", "-1",
                            "1/0", "nan", "x"))
_workers = st.sampled_from((1, 1, 1, 0, -1))


def _ints(draw, lo, hi):
    return ",".join(str(i) for i in draw(st.lists(st.integers(lo, hi),
                                                  max_size=4)))


@st.composite
def _other_argv(draw):
    group, op = draw(st.sampled_from((
        ("schedule", "survive"), ("schedule", "curve"),
        ("schedule", "coupling"), ("schedule", "undirected"),
        ("schedule", "kwise"), ("compat", "decide"), ("compat", "cert"),
        ("compat", "mc"), ("lattice", "blocks"),
        ("lattice", "embed2d"), ("lattice", "visible"), ("lattice", "abscan"),
        ("env", "column"), ("env", "kwise"))))
    argv = [group, op]

    def flag(name, value):
        argv.extend(["--" + name, str(value)])

    def maybe(name, strategy):
        if draw(st.booleans()):
            flag(name, draw(strategy))

    if group == "schedule":
        if op != "kwise":
            flag("M", draw(_small))
        if op == "survive":
            flag("depth", draw(st.integers(-1, 6)))
            if draw(st.booleans()):
                flag("x", _ints(draw, 1, 4))
                maybe("y", st.just(_ints(draw, 1, 4)))
        elif op == "curve":
            flag("depths", _ints(draw, -1, 8))
        elif op == "coupling":
            flag("k", draw(st.integers(-1, 3)))
            flag("depth", draw(st.integers(-1, 6)))
        elif op == "undirected":
            flag("box", draw(st.integers(-1, 4)))
        else:
            flag("M", draw(st.integers(-1, 4)))
            vertex = st.one_of(
                st.builds("{},{}".format, st.integers(-1, 3),
                          st.integers(-1, 3)),
                st.builds(_ints, st.just(draw), st.just(-1), st.just(3)))
            flag("vertices", ";".join(draw(st.lists(vertex, min_size=1,
                                                    max_size=3))))
            maybe("max-terms", st.integers(-1, 10**4))
    elif group == "compat":
        if op == "mc":
            flag("p", ",".join(draw(st.lists(_density, min_size=1,
                                             max_size=2))))
            flag("n", _ints(draw, -1, 24))
        else:
            flag("x", draw(_literals))
            flag("y", draw(_literals))
    elif group == "lattice":
        if op == "blocks":                    # --p is required there
            flag("p", draw(_density))
            flag("R", draw(st.integers(-1, 3)))
        elif op == "embed2d":
            maybe("p", _density)
            flag("R", draw(st.integers(-1, 3)))
            flag("depth", draw(st.integers(-1, 5)))
            maybe("word", _literals)
            maybe("word-length", st.integers(-1, 8))
        elif op == "visible":
            flag("field", "{%s}" % draw(st.sampled_from(
                ("field", "ragged_field", "letter_field", "empty",
                 "missing"))))
            flag("origin", _ints(draw, -1, 3))
            flag("word", draw(_literals))
            maybe("lattice", st.sampled_from(("square", "triangular",
                                              "hexagonal")))
            maybe("budget", st.integers(-1, 50))
        else:
            maybe("p", _density)
            flag("box", draw(st.integers(-1, 4)))
            maybe("budget", st.integers(-1, 50))
    else:
        if op == "column":
            entry = st.builds("{}:{}".format, _density, _density)
            flag("mu", ",".join(draw(st.lists(entry, min_size=1,
                                              max_size=3))))
            flag("box", draw(st.integers(-1, 4)))
        else:
            flag("pmf", "{%s}" % draw(st.sampled_from(
                ("pmf", "bad_pmf", "no_outcome", "empty", "missing"))))
            flag("k", draw(st.integers(-1, 3)))
    if op in ("curve", "coupling", "undirected", "mc", "blocks", "abscan",
              "column"):
        flag("replicas", draw(st.integers(-1, 5)))
        flag("workers", draw(_workers))
    if op in ("survive", "embed2d") or "--replicas" in argv:
        maybe("seed", st.integers(-3, 3))
    return argv


@given(_other_argv())
@settings(max_examples=300, deadline=None)
def test_other_argv_fuzz_exits_0_or_2(fuzz_files, argv):
    _assert_exits_0_or_2([a.replace("{", str(fuzz_files) + "/").rstrip("}")
                          if a.startswith("{") else a for a in argv])
