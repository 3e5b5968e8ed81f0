"""Self-tests of the benchmark's own logic: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from repro.obs.tracer import TraceEvent  # noqa: E402


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "n, rank, percentile",
    [(1, None, None), (10, None, None), (11, 1, 100 / 11), (20, 10, 50.0),
     (40, 30, 75.0), (100, 90, 90.0), (1000, 990, 99.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, rank, percentile):
    assert stats.tail_rank(n) == rank
    samples = list(range(n, 0, -1))
    if rank is None:
        with pytest.raises(ValueError):
            stats.tail(samples)
        return
    value, pct = stats.tail(samples)
    assert value == rank
    assert sum(1 for x in samples if x > value) == stats.TAIL_BEYOND
    assert pct == pytest.approx(percentile)


def test_printed_metrics_are_declared():
    spec = declared()
    assert run.END_TO_END == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = {w.name for w in workloads.WORKLOADS}
    assert {w["name"] for w in spec["workloads"]} <= names
    w = workloads.workload("serial-m3")
    records = [workloads.RunRecord(i % 3, 0.1 + i / 100, w.generations) for i in range(25)]
    metrics = run.end_to_end_metrics(w, records, {"setup": [0.01, 0.02]})
    assert set(metrics) == set(run.END_TO_END)
    assert all(value > 0 for value in metrics.values())


def flip_one_bit(matrix: np.ndarray) -> np.ndarray:
    bad = matrix.copy()
    bad.flat[bad.size // 2] ^= 1
    return bad


def small(name: str, **changes):
    base = dict(n_ssets=6, n_configs=1)
    base.update(changes)
    return replace(workloads.workload(name), **base)


@pytest.mark.parametrize(
    "w",
    [small("serial-m3", generations=30), small("eager-m6", memory=2, generations=2),
     small("scaling-lazy", generations=40)],
    ids=lambda w: w.name,
)
def test_corrupted_matrix_counts_as_a_failed_run(w):
    bench = workloads.SimulationBench(w, seed=5)
    record, _ = bench.run_one(0)
    assert record.error is None
    bench.references[0] = flip_one_bit(bench.references[0])
    record, _ = bench.run_one(0)
    assert record.error is not None and "differs" in record.error
    metrics = run.per_layer_metrics(w, [record], {}, {})
    assert metrics["error_rate"] == 1.0


def test_corrupted_service_result_counts_as_a_failed_run(tmp_path):
    w = small("service", n_ssets=8, generations=20)
    bench = workloads.ServiceBench(w, ROOT, tmp_path)
    configs = w.configs(5, 2)
    references = workloads.reference_matrices(configs)
    references[1] = flip_one_bit(references[1])
    server = bench.launch(traced=False)
    try:
        server.wait_ready()
        records, _ = bench.run_window(configs, references, server, tag="x")
    finally:
        server.stop()
    assert records[0].error is None
    assert "differs" in records[1].error


def test_parallel_checks_fire_on_games_and_message_counts():
    w = small("eager-m6", memory=2, generations=2)
    bench = workloads.SimulationBench(w, seed=5)
    _, result = bench.run_one(0)
    cfg, ref = bench.configs[0], bench.references[0]
    pinned = {0: result.counters["send"].messages}
    assert workloads.check_parallel(w, cfg, ref, result, pinned, 0) is None
    short = replace(result, games_played_per_rank=(0,) * len(result.games_played_per_rank))
    assert "games played" in workloads.check_parallel(w, cfg, ref, short, {}, 0)
    assert "messages" in workloads.check_parallel(w, cfg, ref, result, {0: -1}, 0)


def span(name, ts, dur, rank=0, cat=layers.SPAN_CAT, args=None):
    return TraceEvent(ph="X", name=name, cat=cat, rank=rank, ts=ts, dur=dur, args=args)


def test_self_time_excludes_nested_layer_spans():
    events = [
        span("generation", 0, 100, cat="phase"),
        span("population.fitness", 10, 50, args={"pairs_computed": 3}),
        span("game.play", 20, 30, args={"games": 4}),
        span("mpi.bcast", 70, 20),
        span("mpi.recv", 75, 10),
        span("game.play", 0, 7, rank=1),
    ]
    ranks = layers.attribute(events)
    r0 = ranks[0]
    assert r0.spans["population.fitness"].self_us == 20
    assert r0.spans["game.play"].self_us == 30
    assert r0.spans["mpi.bcast"].self_us == 10
    assert r0.spans["population.fitness"].counts["pairs_computed"] == 3
    assert r0.root_us == 100
    assert r0.attributed_us == 70
    # A rank without generation spans has no wall time to cover.
    assert ranks[1].root_us == 0 and ranks[1].attributed_us == 0


def test_wrappers_record_and_uninstall():
    from repro.game.batch_engine import BatchEngine
    from repro.obs.tracer import Tracer

    original = BatchEngine.__dict__["play"]
    uninstall = layers.install()
    try:
        assert BatchEngine.__dict__["play"] is not original
        w = small("serial-m3", generations=20)
        bench = workloads.SimulationBench(w, seed=3)
        tracer = Tracer()
        record, _ = bench.run_one(0, tracer=tracer)
        assert record.error is None
    finally:
        uninstall()
    assert BatchEngine.__dict__["play"] is original
    totals = layers.attribute(tracer.events())[-1]
    assert totals.spans["game.play"].calls > 0
    assert totals.spans["game.play"].counts["game_rounds"] == (
        totals.spans["game.play"].counts["games"] * 200
    )
    assert 0 < totals.attributed_us <= totals.root_us
