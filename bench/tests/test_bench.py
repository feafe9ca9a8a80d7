"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import one_pass  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MAIN, WORKER_A, WORKER_B = 100, 200, 300


def _sid(pid, n):
    return (pid << 32) | n


def _synthetic_trace():
    """cli.main -> run_chunked -> two overlapping chunks in two workers."""
    main, chunked = _sid(MAIN, 1), _sid(MAIN, 2)
    chunk_a, chunk_b = _sid(WORKER_A, 1), _sid(WORKER_B, 1)
    return [
        (main, 0, "cli.main", 0.0, 10.0, None),
        (chunked, main, "runner.run_chunked", 1.0, 9.0, None),
        (chunk_a, chunked, "scheduling.chunk", 2.0, 6.0, None),
        (chunk_b, chunked, "scheduling.chunk", 3.0, 8.0, None),
        (_sid(WORKER_A, 2), chunk_a, "rng.generator", 2.5, 3.0, None),
        (_sid(WORKER_A, 3), chunk_a, "scheduling.survival_depth", 3.0, 5.0,
         17),
    ]


def test_self_time_counts_overlapping_worker_spans_once():
    trace = _synthetic_trace()
    selfs = spans.self_times(trace)
    assert selfs[_sid(MAIN, 1)] == pytest.approx(2.0)
    # The two chunks overlap on [3, 6]: the union [2, 8] covers 6 of 8 s.
    assert selfs[_sid(MAIN, 2)] == pytest.approx(2.0)
    assert selfs[_sid(WORKER_A, 1)] == pytest.approx(1.5)
    assert selfs[_sid(WORKER_B, 1)] == pytest.approx(5.0)

    m = spans.layer_metrics(trace, payload_bytes=10)
    assert m["runner.pool_starts"] == 1
    assert m["runner.chunk_busy_s"] == pytest.approx(9.0)
    assert m["runner.overhead_s"] == pytest.approx(8.0 - 5.0)
    assert m["runner.imbalance"] == pytest.approx(5.0 / 4.5)
    assert m["runner.parallel_efficiency"] == pytest.approx(9.0 / 16.0)
    assert m["scheduling.chunk_self_s"] == pytest.approx(1.5 + 5.0)
    assert m["scheduling.levels_swept"] == 17
    assert m["cli.self_s"] == pytest.approx(2.0)
    # Busy time counts each process once: 2 + 2 + 1.5 + 5 + 0.5 + 2.
    assert m["rng.share"] == pytest.approx(0.5 / 13.0)


_TINY = [
    "schedule curve --M 4 --depths 10,20 --replicas 40 --workers 2",
    "lattice abscan --box 6 --replicas 8 --budget 500 --workers 2",
    "compat mc --p 1/2 --n 10,20 --replicas 50",
    "embed exact --v 0101 --M 2",
]


def _traced_counts(spill_dir):
    tracer = spans.Tracer(spill_dir).install()
    try:
        results = one_pass.run_commands([c.split() for c in _TINY])
    finally:
        tracer.uninstall()
    assert all(r["rc"] == 0 for r in results)
    metrics = spans.layer_metrics(tracer.spans, 0)
    return {k: v for k, v in metrics.items()
            if spans.LAYER_UNITS[k] == "count"}


def test_count_metrics_repeat_across_traced_runs(tmp_path):
    import clairvoyant.rng

    original = clairvoyant.rng.RngSpec.generator
    first = _traced_counts(tmp_path)
    second = _traced_counts(tmp_path)
    assert first == second
    assert clairvoyant.rng.RngSpec.generator is original
    assert first["runner.pool_starts"] == 2
    # 40 grids, 8 fields and 2 x 2 x 50 word pairs each build a stream,
    # whether the chunk ran in the parent or in a worker.
    assert first["rng.generator_calls"] == 40 + 8 + 200
    assert first["lattice.visible_word_calls"] == 16
    assert first["scheduling.survival_depth_calls"] == 40
    assert list(tmp_path.iterdir()) == []


_EXACT_OK = b"w,probability_num,probability_den\n010101010101,33461,262144\n"


def _pass_of(payload):
    return {"commands": [{"rc": 0, "payload": payload.decode("ascii"),
                          "sha256": hashlib.sha256(payload).hexdigest(),
                          "stderr_tail": ""}]}


def test_output_check_flags_corrupted_payload():
    assert workloads.check_payload("embed_exact", _EXACT_OK) is None
    corrupted = _EXACT_OK.replace(b"33461", b"33462")
    assert "33461/262144" in workloads.check_payload("embed_exact", corrupted)
    assert workloads.check_payload("embed_exact", b"\x00garbage") is not None

    wl = workloads.Workload("one", 1, ("a", "b", "c"), (
        workloads.Command("embed_exact", (), 2, seeded=False),))
    good = _pass_of(_EXACT_OK)
    assert run.check_passes(wl, [good, good], {})[:2] == (2, 0)
    # Right value, different bytes from the recorded digest.
    bad = _pass_of(_EXACT_OK + b"\n")
    want = good["commands"][0]["sha256"]
    attempted, failed, problems = run.check_passes(
        wl, [good, bad], {"embed_exact": want})
    assert (attempted, failed) == (2, 1)
    assert "sha256" in problems[0]


def test_recorded_digests_cover_every_command():
    recorded = json.loads(run.DIGESTS.read_text())
    for wl in workloads.WORKLOADS.values():
        assert set(recorded["commands"][wl.name]) == \
            {c.label for c in wl.commands}
        seeded = [c for c in wl.commands if c.seeded]
        assert len(run.expected_digests(wl, 1)) == len(wl.commands)
        assert len(run.expected_digests(wl, 2)) == \
            len(wl.commands) - len(seeded)
        assert run.expected_digests(wl, workloads.HELD_OUT_SEED) == {}


def test_printed_metric_names_equal_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.E2E_UNITS
    assert layers == spans.LAYER_UNITS

    wl = workloads.WORKLOADS["exact_enum"]
    nominal = reference.NOMINAL_S
    p = {"wall_s": 1.0, "peak_rss_mb": 50.0,
         "commands": [{"wall_s": 0.25, "ref_s": nominal}
                      for _ in wl.commands]}
    metrics = run.e2e_metrics(wl, [(0.5, nominal)], [p])
    assert set(metrics) == set(e2e)
    # Both scans make up exact_enum's first part.
    assert metrics["part1_s"] == pytest.approx(0.5)
    assert metrics["wall_s"] == pytest.approx(1.0)
    p["layers"] = spans.layer_metrics([], 0)
    assert set(run.layer_summary([p], [p])) == set(layers)


def test_times_scale_with_the_reference_timed_next_to_them():
    wl = workloads.WORKLOADS["mc_streams"]
    nominal = reference.NOMINAL_S
    # The machine ran at half speed during the first command only.
    p = {"wall_s": 4.0, "peak_rss_mb": 50.0,
         "commands": [{"wall_s": 2.0, "ref_s": 2 * nominal},
                      {"wall_s": 1.0, "ref_s": nominal},
                      {"wall_s": 1.0, "ref_s": nominal}]}
    scaled = run.e2e_metrics(wl, [(0.8, 2 * nominal)], [p])
    assert scaled["part1_s"] == pytest.approx(1.0)
    assert scaled["part2_s"] == pytest.approx(1.0)
    assert scaled["wall_s"] == pytest.approx(3.0)
    assert scaled["setup_s"] == pytest.approx(0.4)
    unscaled = run.e2e_metrics(wl, [(0.8, 2 * nominal)], [p], scale=False)
    assert unscaled["part1_s"] == pytest.approx(2.0)
    assert unscaled["wall_s"] == pytest.approx(4.0)
    assert unscaled["setup_s"] == pytest.approx(0.8)


def test_pass_reports_reference_time_per_command():
    results = one_pass.run_commands([["embed", "exact", "--v", "0101",
                                      "--M", "2"]] * 2)
    assert [r["rc"] for r in results] == [0, 0]
    assert all(r["ref_s"] > 0 for r in results)
