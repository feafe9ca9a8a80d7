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

import numpy
import pytest
from hypothesis import assume, given, settings, strategies as st

from clairvoyant import cli
from clairvoyant.rng import RngSpec
from clairvoyant.runner import BLOCK_LETTERS


def run_csv(tmp_path, argv, name="out.csv"):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    manifest = json.loads((tmp_path / (name + ".manifest.json")).read_text())
    return rows, manifest, out


def _fresh_python(code, *argv, check=True):
    """Run code in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          check=check, capture_output=True, text=True)


def _startup_modules(*roots):
    """Modules under `roots` loaded by importing the CLI and its parser."""
    code = ("import sys, clairvoyant, clairvoyant.cli\n"
            "clairvoyant.cli.build_parser()\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in %r))"
            % (roots,))
    return _fresh_python(code).stdout.strip()


def test_startup_imports_no_scipy():
    # scipy.ndimage alone took about half of every CLI run's start-up
    assert _startup_modules("scipy") == "[]"


def test_startup_imports_no_dataclasses():
    # importing dataclasses (which loads inspect, ast, dis and tokenize) and
    # decorating the value classes took about 20 ms of every CLI start-up
    assert _startup_modules("dataclasses", "inspect") == "[]"


def test_startup_imports_no_process_pool():
    # concurrent.futures.process took 16-22 ms of every CLI start-up
    assert _startup_modules("concurrent", "multiprocessing") == "[]"


# exact leaves run on Python ints and Fractions, so numpy never loads
_NUMPY_FREE = [
    "embed decide --v 0110 --y 00111100 --M 2",
    "embed count --v 0110 --y 00111100 --M 2",
    "embed exact --v 0101 --M 2",
    "embed recursion --M 2 --n 5",
    "embed roots --M 3",
    "embed scan --n 4 --M 2",
    "embed moments --n 4 --M 2",
    "compat decide --x 0101 --y 1010",
    "compat cert --x 0111 --y 1101",
    "schedule kwise --vertices 1,1;1,2;2,1 --M 2",
    "env kwise --pmf {pmf} --k 2",
]

# prints the exit code, whether numpy ran, and the numpy.* modules loaded
_RUN_LEAF = """\
import sys, types, clairvoyant.cli
code = clairvoyant.cli.main(sys.argv[1:])
np = sys.modules.get("numpy")
print(code, type(np) is types.ModuleType,
      sorted(m for m in sys.modules if m.startswith("numpy.")))
"""


def _run_leaf(tmp_path, argv):
    """(exit code, numpy loaded, numpy.* modules, manifest) of a CLI run
    in a fresh interpreter."""
    pmf = tmp_path / "pmf.csv"
    pmf.write_text("outcome,numerator,denominator\n"
                   "00,1,4\n01,1,4\n10,1,4\n11,1,4\n")
    out = tmp_path / "out.csv"
    argv = argv.format(pmf=pmf).split() + ["--out", str(out)]
    code, loaded, modules = _fresh_python(_RUN_LEAF, *argv
                                          ).stdout.split(" ", 2)
    manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
    return int(code), loaded == "True", modules.strip(), manifest


@pytest.mark.parametrize("argv", _NUMPY_FREE)
def test_exact_leaf_loads_no_numpy(tmp_path, argv):
    code, loaded, modules, manifest = _run_leaf(tmp_path, argv)
    assert (code, loaded, modules) == (0, False, "[]")
    assert manifest["env"]["numpy"] is None


def test_monte_carlo_leaf_records_numpy_version(tmp_path):
    # at p = 0 every replica's horizon reaches the end of its first 16
    # letters, so it redraws all 60 from a rewound numpy Philox
    code, loaded, modules, manifest = _run_leaf(
        tmp_path, "compat mc --p 0 --n 60 --replicas 3 --seed 1")
    assert (code, loaded) == (0, True) and "numpy.random" in modules
    assert manifest["env"]["numpy"] == numpy.__version__


def test_numpy_imported_after_the_package_is_its_numpy():
    code = ("import types, clairvoyant, clairvoyant.rng as r\n"
            "assert type(r.np) is not types.ModuleType\n"
            "import numpy\n"
            "assert numpy is r.np and type(numpy) is types.ModuleType\n"
            "print(numpy.arange(5).sum(), numpy.__version__)")
    assert _fresh_python(code).stdout.split() == ["10", numpy.__version__]


def test_forked_chunks_inherit_numpy():
    # the caller loads numpy and numpy.random before it forks, so no chunk
    # process imports them again
    code = ("import sys, types\n"
            "from clairvoyant.runner import run_chunked\n"
            "def loaded(lo, hi):\n"
            "    np = sys.modules.get('numpy')\n"
            "    return [type(np) is types.ModuleType\n"
            "            and 'numpy.random' in sys.modules] * (hi - lo)\n"
            "print(run_chunked(loaded, 4, 4).tolist())")
    assert _fresh_python(code).stdout.strip() == "[True, True, True, True]"


def test_missing_numpy_fails_at_import():
    # numpy not installed: the interpreter searches no site- or dist-packages
    code = ("import sys\n"
            "sys.path = [p for p in sys.path if '-packages' not in p]\n"
            "import clairvoyant")
    run = _fresh_python(code, check=False)
    assert run.returncode == 1
    assert "ModuleNotFoundError: No module named 'numpy'" in run.stderr


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


def _subparsers(parser):
    action, = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
    return action.choices


# (group, op, leaf parser) for every leaf of the full tree
_LEAVES = [(group, op, leaf)
           for group, ops in _subparsers(cli.build_parser()).items()
           for op, leaf in _subparsers(ops).items()]


def _exit(call, argv, capsys):
    """Exit code, stdout and stderr of a call that parses argv and exits."""
    with pytest.raises(SystemExit) as exc:
        call(argv)
    return (exc.value.code,) + tuple(capsys.readouterr())


@pytest.mark.parametrize("group,op,leaf", _LEAVES,
                         ids=["%s-%s" % leaf[:2] for leaf in _LEAVES])
def test_one_leaf_parser_matches_full_tree(group, op, leaf, capsys,
                                           monkeypatch):
    full = cli.build_parser().parse_args
    argv = [group, op, "--format", "json"]
    for action in leaf._actions:
        if action.required:
            argv += [action.option_strings[0],
                     "2" if action.type is int else "01"]
    assert cli.parse_args(argv) == full(argv)
    for bad, code in (([group, op], 2), (argv + ["--bogus", "1"], 2),
                      ([group, op, "--help"], 0)):
        got = _exit(cli.main, bad, capsys)
        assert got == _exit(full, bad, capsys) and got[0] == code
    # the console script calls main() with no argv
    monkeypatch.setattr(sys, "argv", ["clairvoyant"] + argv)
    assert cli.parse_args() == full(argv)
    monkeypatch.setattr(sys, "argv", ["clairvoyant", group, op, "--help"])
    assert _exit(lambda _: cli.main(), None, capsys) == \
        _exit(full, [group, op, "--help"], capsys)


def test_leaf_command_builds_only_its_own_parser(monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert cli.main(["embed", "roots", "--M", "3"]) == 0
    assert built == ["embed", "roots"]
    # help on a group needs every leaf, so it builds the full tree
    built.clear()
    assert _exit(cli.main, ["embed", "--help"], capsys)[0] == 0
    assert len(built) == len(_LEAVES) + len({g for g, _, _ in _LEAVES})


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


# every leaf's CSV and --format json payload, as sha256, with the branches
# that print not-found and empty cells; {field} and {pmf} name files the
# test writes.  A new leaf needs a row here.
_LEAF_PAYLOADS = {
    "embed decide --v 0110 --y 00111100 --M 2":
        ("4e7d5477385d440a23558070f1c873068bc66616e745ba3171bbb4f8331e88fe",
         "a7fd221f6209cd4d075e1c584b5438c7c47915dd12dbc8071602050cac221b2b"),
    "embed decide --v 11 --y 00 --M 1":
        ("f90ee3cf93a7f2528c0310865c443e82ec6b80a86a4bcb81da9f6a6d00ff39ee",
         "8eb07d6e919ba930e7531cf03b53a760ec8f669c633d28c5514d736581ebb889"),
    "embed count --v 0110 --y 00111100 --M 2":
        ("f8771c1196055b84f66d28565fcc3327d10c59ebe4203ad9cdbec47b0d81ddf1",
         "c70767fc0c6a2e944a3b922784dc0ae06cbbaa706d749a2aa03c1855ca40af69"),
    "embed exact --v 0101 --M 2":
        ("5c5d93491b15c26c601657f122a348144a407b8c7a78304fd5d748dfb7c3e5a7",
         "9d7f4936878c7e93f1b09add0930251afe2d5a0f44421af648479606d2ec8ed0"),
    "embed recursion --M 3 --n 6":
        ("05c7029a2234dc786794d5ff136dc223a5bfa5c12ca7e60a4c60c0b672e82923",
         "77e8a5c73af3c0fa6ecdc9d994921c2d29d3c423055f9f506b5bb2ee40b0fa2c"),
    "embed roots --M 3":
        ("00a99e9929ad9a4122032dd1dc17fd5852662251aa0360d4d12b146684cf7824",
         "c0cbac8eebccd8ecc645374d92d14d799a0b7fa11d355ee8010c5a2f56e7e281"),
    "embed scan --n 4 --M 2":
        ("a22b34099be2cc3397d4ea77deccd8ed7f940c2f7a9a179289575b094b8db914",
         "341ec219a8619ecbdc6400a90a9a8974d2ed4a1bdaac883fe516cf246caa360f"),
    "embed scan --n 0 --M 2":
        ("dad9232c17997ca9289126b806779a6d28e5a922e881b6d983c487ff9c1146d9",
         "d832e086d488688be23242a32b0dd41f4756809e94586ee387c0adef8e3c0b00"),
    "embed moments --n 4 --M 2":
        ("5b0fe1209c9f02569c672723c34ba69dcb1d90b91375953afe4f0fad71b2257b",
         "7781a8e1beea8a3efdd242d056113ae2277811be54d35e247523adcdf2c5a1de"),
    "embed moments --n 0 --M 2":
        ("8c931114921099c8fe8df3e3d6fae2f44459b216de3e73263b6c30ab4652247b",
         "86c13c02e95d9cd293242f6153b1cd8554f694356b41a1bd995edf68044c393e"),
    "embed mc --M 2 --n 6 --replicas 20 --seed 1":
        ("2e9c223a307ba47a8d22d3d2ac954d2053c5077b742d3ca67d54ed6f4ce2dab9",
         "426d62b97d110262334958db474465e9416e926dd2d6a57092e5afc930aec5b4"),
    "embed mc --M 2 --n 6 --replicas 20 --target constant":
        ("ecc860a102f97daa2523340c9a7b573cbdad295f3f59709b4895f8ca1233a031",
         "20d1a5f9f8add59c83f06e20207e3afd5f2c4f1e8815f65162e233cc25f520cd"),
    "embed mc --M 2 --n 4 --replicas 20 --target 0110":
        ("feeb26308d7c67fee6082eaa745fbaca1e95ddd9812f2cccfbd0932565c6eb08",
         "b86a359f0138491b0d08ff42aa55da8931ea4e667ed8f21451a820ace56b72a4"),
    "schedule survive --M 4 --depth 8 --seed 1":
        ("830c7ce946d965ee3192f750dd777a044c8b4658589dca34f226c6fb2076c596",
         "79dd50887e7a2b1baddf4d0a2b71635b7b9f349950214fdee512694a73e542c1"),
    "schedule survive --M 2 --depth 1 --x 1,1 --y 1,1":
        ("0d508b1dd95d189fe319fc05252836af9542cbeabdccd82d32adfd8a46c4a83b",
         "09b37614892697a48f10b3b791cb5549896680b81bfb61ad4710896c57dea3bb"),
    "schedule curve --M 4 --depths 3,10 --replicas 20 --seed 2":
        ("3afeb4b309d1b8aca472d6748806f7ab867f9e72dfd66370ab572cede649fabc",
         "fc4511a37e337fa802bbda841958a63cc367709a8af7a7583322908e50c11094"),
    "schedule coupling --M 4 --k 2 --depth 10 --replicas 20":
        ("70a085d80f8bbf71f9a3e0365ec82139cd557d138c05e7454009a1f38cb439d9",
         "fd08fa7e6fd3ca2aff75d46a266ac836b58246ea658c6ba4e8b73aa926d7abd0"),
    "schedule undirected --M 3 --box 5 --replicas 20":
        ("50755ea5b88b67e85d551e1cf09b1bb5935716e72680c2ed2a73ef6fd01aa6cb",
         "9410b64a4fbe313731123342069263d3096d8aff11cf27bde41d7a609a5ebfb5"),
    "schedule kwise --vertices 1,1;1,2;2,1 --M 3":
        ("cc34376015a3ab87828b6739d0dd002c93416d7652453eb964caed92281486c2",
         "b369d3287274ae577530e063ef6091c5d957a8c419394567dcace44b1fd0b769"),
    "compat decide --x 0101 --y 1010":
        ("8c542d326125607f6a316f3c4b8d20a9477a14ddf9deb7070af57d9335474fde",
         "d5b91af971b7f0d275d2fa511e0cfdd5c6eea5f28ab5ba157d931ef39f2ae455"),
    "compat decide --x 111 --y 111":
        ("ebbdd5c586a6beac7bcf898abbe20e5639c502f7da5e2757010d19712d817cdc",
         "ae36110aae1acbc3fffe44f1302e4f74fc6d000e81876f789dbc817aaf18b1b3"),
    "compat cert --x 0111 --y 1101":
        ("d75f197692bc0799ff9a3572c720728a42f707fbc4caf32a695f352442794686",
         "586056ae8e0536dedc1325539a3ce5b69af4ced74da3ff572a9417e168387a6e"),
    "compat cert --x 0101 --y 1010":
        ("709b4b17a0c8b21787797b57cadf562ed4ccca175d80ccc6ffa76452aaae1691",
         "e1622c941bf20d161841fe4aeb59240f4e78c68c7d0f71156f6944126726ae92"),
    "compat mc --p 0.1,1/2 --n 3,20 --replicas 20":
        ("b132a13cb7cbfc7cfdc0d67d8ce657796c4a76b795474371102c9f6755f2808c",
         "10bc0ce8ec157ecb61826ae9eccd92b974afbd174adadc3f6ce144cc5e9dc126"),
    "lattice blocks --p 1/2 --R 2 --replicas 30":
        ("c4f808c7576329fe07b6c2fa10f7a9b7e9de5b12b3d23aadc4b2a5446035fc64",
         "bb95b703a9ce38b9081e5db8df6b08c979b95c68e30f1a5b049e534f95b37b69"),
    "lattice embed2d --R 2 --depth 3 --word 0110 --seed 1":
        ("be879e48e2321c40112c6e6ababa90a2bd1c163e704a2fcc276cac4370a60ef8",
         "4786e3abf3a1b6ef3218820427070dcf2d31adb6ee4d9b7d79050cd3db3599a0"),
    "lattice embed2d --p 0 --R 1 --depth 1 --word 0":
        ("60438582878945211c768015dcf93b3fdace708b03047e2d444d330348d8b856",
         "7bc56401f850aaad317f2453a1e8bc438cebd1f299f6fc269dc4674dbafb4fe4"),
    "lattice visible --field {field} --origin 1,1 --word 1010":
        ("1b55774acfa7b5e5e355d2452d2bba55c23c7ef42bd4e6be6b428eed6e3a1d27",
         "0f052f4594241acd2c4fdad88e67cf67358d6a777f748a45f6f9a6bd17b9e2d9"),
    "lattice abscan --box 3 --replicas 10":
        ("e2b3e3eb41a9defa3b56f69e167793bc9fd234ee3b4baba72c6fc2e2c4a48e5c",
         "3d7390ffd059318136e1f27e43cfd5234581a2119d0dd2ff820eb9b85f095170"),
    "env column --mu 0.4:1/2,0.8:1/2 --box 4 --replicas 20":
        ("054b55d3d3ba1601e52a4334e1ac9efdac0caadf254db193bd385da0e1634ba5",
         "90774090e27ded76bf4f806a73d76cfbb4aeec555130ea7f2bdb7a037fba6813"),
    "env kwise --pmf {pmf} --k 2":
        ("b87fd95357b098a917799bef9d0d27dea1dbbde6bd4c3a40e66033109e97b347",
         "eee7389eed7511d627be48b40a96a58ccc5d3c0900c77768488b136813423bc3"),
    "env kwise --pmf {pmf} --k 1":
        ("f1347d5c9c9b24bd83c544af9de6d812f09f4b9dbebf55dff14af9d3136cc79c",
         "c230cc799f6c2eb1f69e5e475e025775b7ce5ebc9b2154b5187501a31ce0c7a2"),
}


def test_every_leaf_payload_pinned(tmp_path):
    field = tmp_path / "field.txt"
    field.write_text("010\n101\n010\n")
    pmf = tmp_path / "pmf.csv"
    pmf.write_text("outcome,numerator,denominator\n00,3,8\n11,1,2\n"
                   "10,1,8\n")
    for argv, shas in _LEAF_PAYLOADS.items():
        for fmt, want in zip(("csv", "json"), shas):
            out = tmp_path / ("out." + fmt)
            assert cli.main(argv.format(field=field, pmf=pmf).split()
                            + ["--format", fmt, "--out", str(out)]) == 0
            got = hashlib.sha256(out.read_bytes()).hexdigest()
            assert got == want, (argv, fmt)
    assert {tuple(argv.split()[:2]) for argv in _LEAF_PAYLOADS} == \
        {leaf[:2] for leaf in cli.LEAVES}


def test_float_formatting(tmp_path):
    rows, _, _ = run_csv(tmp_path, ["embed", "roots", "--M", "2"])
    assert rows[0]["r_large"] == "8.53553390593e-01"


def test_roots_end_for_every_M(tmp_path):
    # the exact path squared Fractions of 2^M denominators: 2 s at M = 10^6,
    # and never an answer at 10^23, where the floats are the limits
    M = str(10**23)
    rows, _, _ = run_csv(tmp_path, ["embed", "roots", "--M", M])
    assert rows == [{"M": M, "r_small": "0.00000000000e+00",
                     "r_large": "1.00000000000e+00",
                     "health": "1.00000000000e+00"}]


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


def _bare_out_of_memory(args):
    raise MemoryError()     # as an allocation that fails in C raises it


# rows whose handler is replaced, so that the failure needs no real input
_FORCED = {
    "schedule undirected --M 2 --box 3 --replicas 1":
        ("_do_schedule_undirected", _out_of_memory),
    "schedule undirected --M 3 --box 3 --replicas 1":
        ("_do_schedule_undirected", _bare_out_of_memory),
}


# the message each of these rows must print
_SAYS = {
    "schedule kwise --vertices 1,1 --M 1": "alphabet size M must be >= 2",
    "schedule kwise --vertices 1,1 --M 0": "alphabet size M must be >= 2",
    "schedule kwise --vertices 1,1 --M 3 --max-terms -1":
        "max_terms must be >= 0",
    "lattice embed2d --R 2 --depth 2 --word-length -1": "n must be >= 0",
    "schedule undirected --M 2 --box -1 --replicas 5": "box must be >= 0",
    "schedule undirected --M 1 --box 3 --replicas 5":
        "alphabet size M must be >= 2",
    "env column --mu 0.4:1 --box 0 --replicas 5": "box size must be >= 1",
    "schedule curve --M 1 --depths 5 --replicas 3":
        "alphabet size M must be >= 2",
    "schedule curve --M 0 --depths 5 --replicas 3":
        "alphabet size M must be >= 2",
    "schedule curve --M 4 --depths , --replicas 3": "give at least one depth",
    "lattice abscan --p 1/2 --box 3000000 --replicas 1": "out of memory",
    "embed mc --target alternating --M 3 --n 8 --replicas 20 --seed -1":
        "argument --seed: must be in [0, 2^64), got -1",
    "embed mc --target alternating --M 3 --n 8 --replicas 20 "
    "--seed 18446744073709551616":
        "argument --seed: must be in [0, 2^64), got 18446744073709551616",
    "embed moments --n 1449 --M 2":
        "refused: the offset DP needs 8398404 steps, over the budget of "
        "8388608",
    "embed moments --n 1 --M 2897":
        "refused: the offset DP needs 8392609 steps",
    "schedule curve --M 9223372036854775808 --depths 5 --replicas 3":
        "--M must be below 2^63",
    "schedule undirected --M 100000000000000000000 --box 3 --replicas 3":
        "--M must be below 2^63",
    "schedule coupling --M 4611686018427387904 --k 2 --depth 3 "
    "--replicas 3": "--k times --M must be below 2^63",
    "compat mc --p 1e400 --n 5 --replicas 3": "p must lie in [0, 1]",
    "lattice abscan --p 1e400 --box 2 --replicas 3": "p must lie in [0, 1]",
    "lattice embed2d --p 1e400 --R 1 --depth 1 --word 0":
        "p must lie in [0, 1]",
    "schedule undirected --M 3 --box 3 --replicas 1":
        "error: out of memory: an allocation failed",
    "embed recursion --M 1000000 --n 3":
        "refused: the exact probability has a denominator of up to "
        "2^3000000 (903090 digits)",
    "embed recursion --M 100000000000000000000000 --n 0":
        "refused: the exact probability has a denominator of up to "
        "2^100000000000000000000000 ",
    "embed mc --M 100000 --n 1000 --replicas 1":
        "refused: a replica draws 100001000 letters and sweeps "
        "100000000000 bit-steps, over the bounds of 16777216 letters and "
        "4294967296 bit-steps",
    "compat mc --p 0.2 --n 1000000 --replicas 20":
        "refused: a replica draws 2000000 letters and sweeps 1000002000000 "
        "bit-steps, over the bounds of 16777216 letters and 4294967296 "
        "bit-steps",
    "schedule curve --M 1000 --depths 30000 --replicas 2":
        "refused: a replica draws 60002 letters and sweeps 900060001000 "
        "bit-steps, over the bounds of 16777216 letters and 4294967296 "
        "bit-steps",
    "schedule coupling --M 4 --k 2 --depth 1000000 --replicas 2":
        "refused: a replica draws 2000002 letters and sweeps "
        "12000024000012 bit-steps, over the bounds",
    "schedule undirected --M 2 --box 100000 --replicas 1":
        "refused: a replica draws 200002 letters and sweeps "
        "1000030000200000 bit-steps, over the bounds of 16777216 letters "
        "and 4294967296 bit-steps",
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
    # refused before its 6003 x 12003 field is drawn, where it took 2 s
    "lattice embed2d --R 3 --depth 2000",
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
    # running out of memory, forced by a patched handler (see _FORCED);
    # a MemoryError with no message still prints a reason
    "schedule undirected --M 2 --box 3 --replicas 1",
    "schedule undirected --M 3 --box 3 --replicas 1",
    # a 6000001 x 6000001 field: refused when it is drawn, with the words
    # of length 3000000 built in well under a second
    "lattice abscan --p 1/2 --box 3000000 --replicas 1",
    # the rows below are refused in the words of the flag given (see _SAYS)
    "schedule kwise --vertices 1,1 --M 1",
    "schedule kwise --vertices 1,1 --M 0",
    "schedule kwise --vertices 1,1 --M 3 --max-terms -1",
    "lattice embed2d --R 2 --depth 2 --word-length -1",
    "schedule undirected --M 2 --box -1 --replicas 5",
    # refused before any replica is drawn
    "schedule undirected --M 1 --box 3 --replicas 5",
    "env column --mu 0.4:1 --box 0 --replicas 5",
    "schedule curve --M 1 --depths 5 --replicas 3",
    "schedule curve --M 0 --depths 5 --replicas 3",
    "schedule curve --M 4 --depths , --replicas 3",
    # a seed outside [0, 2^64) once aliased one inside: RngSpec reduced the
    # key mod 2^64, so -1 gave the streams of 2^64 - 1 and 2^64 those of 0
    "embed mc --target alternating --M 3 --n 8 --replicas 20 --seed -1",
    "embed mc --target alternating --M 3 --n 8 --replicas 20 "
    "--seed 18446744073709551616",
    # the offset DP's M^2 (n + (M - 1) n (n - 1)) steps, one past the budget
    # in n and in M: refused before the DP starts
    "embed moments --n 1449 --M 2",
    "embed moments --n 1 --M 2897",
    # walk letters are int64: 2^63 letters, or k M = 2^62 * 2, are refused
    # before any draw, where numpy said "high is out of bounds for int64"
    "schedule curve --M 9223372036854775808 --depths 5 --replicas 3",
    "schedule undirected --M 100000000000000000000 --box 3 --replicas 3",
    "schedule coupling --M 4611686018427387904 --k 2 --depth 3 "
    "--replicas 3",
    # a density past the float range is refused while still a Fraction,
    # where float() raised OverflowError
    "compat mc --p 1e400 --n 5 --replicas 3",
    "lattice abscan --p 1e400 --box 2 --replicas 3",
    "lattice embed2d --p 1e400 --R 1 --depth 1 --word 0",
    # v_n's denominators grow to 2^(M n), and building 2^M alone took
    # seconds: refused before the recursion, at n = 0 too
    "embed recursion --M 1000000 --n 3",
    "embed recursion --M 100000000000000000000000 --n 0",
    # one replica of 10^8 letters: refused before its 800 MB draw
    "embed mc --M 100000 --n 1000 --replicas 1",
    # one replica sweeps 10^6 rows of a 10^6-bit lane: refused before any
    # draw, where it ran past 20 s
    "compat mc --p 0.2 --n 1000000 --replicas 20",
    # while a walk pair survives, each level shifts masks of about depth
    # bits once per shared letter: refused before any draw, where each ran
    # past 15 s
    "schedule curve --M 1000 --depths 30000 --replicas 2",
    "schedule coupling --M 4 --k 2 --depth 1000000 --replicas 2",
    # an escaping cluster floods box layers of a (box + 1)(box + 2)-bit
    # field: refused before any draw, where it tried to allocate 9.31 GiB
    "schedule undirected --M 2 --box 100000 --replicas 1",
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
    assert err.startswith("refused: ") or "error" in err
    assert "Traceback" not in err
    assert _SAYS.get(" ".join(argv), "") in err


@pytest.mark.parametrize("argv", [
    "embed mc --M 100000 --n 1000 --replicas 1",
    "embed mc --target alternating --M 100000 --n 1000 --replicas 1",
    "schedule undirected --M 2 --box 100000 --replicas 1",
])
def test_refused_replica_draws_nothing(monkeypatch, capsys, argv):
    def no_draw(*args, **kwargs):
        raise AssertionError("drawn before the refusal")
    for name in ("bernoulli_rows", "integer_rows"):
        monkeypatch.setattr(RngSpec, name, no_draw)
    assert cli.main(argv.split()) == 2
    assert capsys.readouterr().err.startswith("refused: a replica draws ")


@pytest.mark.parametrize("argv, says", [
    ("lattice embed2d --R 3 --depth 2000", "give --word or --word-length"),
    ("lattice embed2d --R 3 --depth 2000 --word-length -1",
     "n must be >= 0"),
])
def test_embed2d_refuses_its_word_before_drawing_the_field(
        monkeypatch, capsys, argv, says):
    def no_draw(*args, **kwargs):
        raise AssertionError("drawn before the refusal")
    monkeypatch.setattr(RngSpec, "bernoulli_rows", no_draw)
    assert cli.main(argv.split()) == 2
    assert says in capsys.readouterr().err


@pytest.mark.parametrize("off", ["zero", "missing"])
def test_digit_bound_holds_with_the_limit_off(monkeypatch, capsys, off):
    # PYTHONINTMAXSTRDIGITS=0 turns the interpreter's limit off, and older
    # interpreters have none; the default limit, 4300 digits, then applies
    if off == "zero":
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    else:
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        monkeypatch.setattr(sys, "int_info", argparse.Namespace())
    assert cli.main(["embed", "recursion", "--M", "1000000", "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("refused: the exact probability has a denominator "
                          "of up to 2^3000000 (903090 digits), over the "
                          "4300-digit limit")
    # 2^14284 has 4300 digits and prints; 2^14285 has 4301
    for bits, code in ((14284, 0), (14285, 2)):
        assert cli.main(["embed", "recursion", "--M", str(bits),
                         "--n", "1"]) == code
        capsys.readouterr()


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
