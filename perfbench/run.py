"""End-to-end benchmark of the evolutionary-game model, with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload serial-m3 --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``serial-m3``, ``eager-m6``,
``scaling-lazy`` and ``service``.  Every run's output is checked bit for
bit against a serial reference outside the timed region; a failed check
counts as a failed run and does not stop the benchmark.

``--trace 0`` times the workload with tracing off and reports the
end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` alternates
untraced and traced runs of the same configurations, attributes the
traced runs' wall time to the repository's packages (``layers.py``) and
reports the per-layer metrics, the tracing overhead and, on ``eager-m6``,
the cost model's prediction beside the measured game-play time.
Per-layer times and counts are per traced run unless a name says
otherwise; a layer the workload does not exercise reads 0.

Human-readable tables go to standard output first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full
result, with provenance, is also written to
``.bench_work/<workload>-seed<seed>-trace<k>/result.json``, and a traced
run leaves a Chrome trace of its first traced run beside it.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: no package source at {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from repro.obs import Tracer, write_chrome_trace  # noqa: E402

#: Set-up samples per run (after one warm-up, except for the service).
SETUP_REPEATS = {"serial": 15, "parallel": 9, "service": 3}

END_TO_END = {
    "gens_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
}

PER_LAYER = {
    "error_rate": "ratio",
    "game.play.calls": "count",
    "game.play.games": "count",
    "game.play.games_per_call": "count",
    "game.play.game_rounds": "count",
    "game.play.busy_s": "s",
    "game.play.ns_per_game_round": "ns",
    "population.fitness.calls": "count",
    "population.fitness.self_s": "s",
    "population.fitness.pairs_computed": "count",
    "population.fitness.pair_lookups": "count",
    "population.fitness.hit_ratio": "ratio",
    "population.nature.self_s": "s",
    "population.update.busy_s": "s",
    "mpi.bcast.busy_s": "s",
    "mpi.recv.wait_s": "s",
    "mpi.send.busy_s": "s",
    "mpi.messages_per_gen": "count",
    "mpi.bytes_per_gen": "B",
    "mpi.shm.segments": "count",
    "mpi.shm.reuse": "count",
    "mpi.shm.fallback": "count",
    "parallel.self_s": "s",
    "parallel.nature.wait_share": "ratio",
    "parallel.worker.imbalance": "ratio",
    "parallel.coverage": "ratio",
    "io.checkpoint.calls": "count",
    "io.checkpoint.busy_s": "s",
    "io.checkpoint.bytes": "B",
    "io.store.busy_s": "s",
    "io.events.lines_per_run": "count",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.spawn_s": "s",
    "service.worker_run_s": "s",
    "service.reap_s": "s",
    "service.result_fetch_s": "s",
    "service.generator_late_s": "s",
    "obs.tracing_overhead": "ratio",
    "model.play_s_per_gen.predicted": "s",
    "model.play_s_per_gen.measured": "s",
    "model.play_s_per_gen.rel_error": "ratio",
}


LAYERS = ("game", "population", "mpi", "io", "service")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest (reaped) child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def latency_stats(records):
    xs = [r.latency_s for r in records if r.error is None]
    if not xs:
        raise RuntimeError("no run completed; no latency to report")
    value, pct = stats.tail(xs)
    return statistics.median(xs), value, pct, len(xs)


# -- simulation workloads ---------------------------------------------------------------


def measure_simulation(w, seed, seconds, trace, out_dir):
    bench = workloads.SimulationBench(w, seed)
    info = {}
    if not trace:
        info["setup"] = bench.setup_seconds(SETUP_REPEATS[w.kind])
    records, ranks, first_tracer = [], defaultdict(layers.RankTotals), None
    start = time.perf_counter()
    while True:
        for i in range(len(bench.configs)):
            record, _ = bench.run_one(i)
            records.append(record)
            if not trace:
                continue
            tracer = Tracer()
            uninstall = layers.install()
            try:
                record, _ = bench.run_one(i, tracer=tracer)
            finally:
                uninstall()
            records.append(record)
            for rank, totals in layers.attribute(tracer.events()).items():
                merge_rank(ranks[rank], totals)
            if first_tracer is None:
                first_tracer = tracer
        if time.perf_counter() - start >= seconds and len(records) >= workloads.MIN_RUNS:
            break
    if first_tracer is not None:
        info["chrome_trace"] = str(write_chrome_trace(first_tracer, out_dir / "trace.json"))
    return records, ranks, info


def merge_rank(into, other) -> None:
    for name, st in other.spans.items():
        layers.add_totals(into.spans[name], st)
    into.root_us += other.root_us
    into.attributed_us += other.attributed_us


# -- the service workload --------------------------------------------------------------------


def measure_service(w, seed, seconds, trace, out_dir):
    bench = workloads.ServiceBench(w, ROOT, out_dir)
    n = bench.count(seconds)
    configs = w.configs(seed, n)
    references = workloads.reference_matrices(configs)
    info = {}
    windows = [(False, configs, references)]
    if trace:
        half = max(1, n // 2)
        windows = [(False, configs[:half], references[:half]),
                   (True, configs[half:], references[half:])]
    else:
        info["setup"] = bench.setup_seconds(SETUP_REPEATS["service"] - 1)
    records, timings, ranks = [], {}, defaultdict(layers.RankTotals)
    for traced, cfgs, refs in windows:
        server = bench.launch(traced=traced)
        try:
            ready = server.wait_ready()
            if not trace:
                info["setup"].append(ready)
            recs, tim = bench.run_window(cfgs, refs, server, tag="t" if traced else "u")
        finally:
            server.stop()
        for r in recs:
            r.traced = traced
        records += recs
        timings[traced] = tim
        if traced:
            totals_dir = out_dir / f"totals{bench.servers}"
            for path in sorted(totals_dir.glob("*.totals.json")):
                for rank, totals in layers.read_totals(path).items():
                    merge_rank(ranks[rank], totals)
            if (totals_dir / "trace.json").exists():
                info["chrome_trace"] = str(totals_dir / "trace.json")
        shutil.rmtree(server.root, ignore_errors=True)
    info["timings"] = timings
    return records, ranks, info


# -- metrics -----------------------------------------------------------------------------------


def end_to_end_metrics(w, records, info) -> dict:
    ok = [r for r in records if r.error is None]
    p50, tail_value, pct, n = latency_stats(records)
    if w.kind == "service":
        tim = info["timings"][False]
        span = max(r.latency_s + i / w.rate for i, r in enumerate(records) if r.error is None)
        gens_per_s = sum(r.generations for r in ok) / span
        info["generator_late_max_s"] = max(tim["late_s"])
    else:
        gens_per_s = sum(r.generations for r in ok) / sum(r.latency_s for r in ok)
    info["latency_tail_percentile"] = pct
    info["latency_samples"] = n
    return {
        "gens_per_s": gens_per_s,
        "setup_s": statistics.median(info["setup"]),
        "peak_rss_mib": peak_rss_mib(),
        "latency_p50_s": p50,
        "latency_tail_s": tail_value,
    }


def per_layer_metrics(w, records, ranks, info) -> dict:
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    n_runs = max(1, len(traced))
    gens = max(1, sum(r.generations for r in traced))
    spans = defaultdict(layers.SpanTotals)
    for rank_totals in ranks.values():
        for name, st in rank_totals.spans.items():
            layers.add_totals(spans[name], st)

    def calls(name):
        return spans[name].calls

    def busy(name):
        return spans[name].busy_us / 1e6

    def self_s(name):
        return spans[name].self_us / 1e6

    def count(name, key):
        return spans[name].counts[key]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {name: 0.0 for name in PER_LAYER}
    attempted = len(records)
    m["error_rate"] = ratio(sum(1 for r in records if r.error), attempted)
    games = count("game.play", "games")
    rounds = count("game.play", "game_rounds")
    m["game.play.calls"] = calls("game.play") / n_runs
    m["game.play.games"] = games / n_runs
    m["game.play.games_per_call"] = ratio(games, calls("game.play"))
    m["game.play.game_rounds"] = rounds / n_runs
    m["game.play.busy_s"] = busy("game.play") / n_runs
    m["game.play.ns_per_game_round"] = ratio(busy("game.play") * 1e9, rounds)
    computed = count("population.fitness", "pairs_computed")
    lookups = count("population.fitness", "pair_lookups")
    m["population.fitness.calls"] = calls("population.fitness") / n_runs
    m["population.fitness.self_s"] = self_s("population.fitness") / n_runs
    m["population.fitness.pairs_computed"] = computed / n_runs
    m["population.fitness.pair_lookups"] = lookups / n_runs
    m["population.fitness.hit_ratio"] = ratio(lookups, lookups + computed)
    m["population.nature.self_s"] = self_s("population.nature") / n_runs
    m["population.update.busy_s"] = busy("population.update") / n_runs
    m["mpi.bcast.busy_s"] = self_s("mpi.bcast") / n_runs
    m["mpi.recv.wait_s"] = busy("mpi.recv") / n_runs
    m["mpi.send.busy_s"] = busy("mpi.send") / n_runs
    m["mpi.messages_per_gen"] = sum(r.messages for r in traced) / gens
    m["mpi.bytes_per_gen"] = sum(r.bytes for r in traced) / gens
    for op in ("segments", "reuse", "fallback"):
        m[f"mpi.shm.{op}"] = sum(r.shm.get(f"shm.{op}", (0, 0))[0] for r in traced) / n_runs

    workers = {rank: t for rank, t in ranks.items() if rank >= 0}
    unattributed_us = sum(t.root_us - t.attributed_us for t in workers.values())
    m["parallel.self_s"] = unattributed_us / 1e6 / n_runs
    nature = ranks.get(0)
    if nature is not None and nature.root_us:
        m["parallel.nature.wait_share"] = nature.spans["mpi.recv"].busy_us / nature.root_us
    plays = [t.spans["game.play"].busy_us for rank, t in workers.items() if rank >= 1]
    if plays and sum(plays):
        m["parallel.worker.imbalance"] = max(plays) / (sum(plays) / len(plays))
    covered = [t.attributed_us / t.root_us for t in ranks.values() if t.root_us]
    m["parallel.coverage"] = min(covered) if covered else 0.0

    m["io.checkpoint.calls"] = calls("io.checkpoint") / n_runs
    m["io.checkpoint.busy_s"] = busy("io.checkpoint") / n_runs
    m["io.checkpoint.bytes"] = count("io.checkpoint", "bytes") / n_runs
    m["io.store.busy_s"] = busy("io.store") / n_runs

    if w.kind == "service":
        tim = info["timings"][True]
        phases = tim["phases"]
        m["io.events.lines_per_run"] = ratio(sum(p["events_lines"] for p in phases), len(phases))
        for key in ("queue_wait_s", "spawn_s", "worker_run_s", "reap_s"):
            xs = [p[key] for p in phases if key in p]
            m[f"service.{key}"] = statistics.median(xs) if xs else 0.0
        m["service.submit_s"] = statistics.median(tim["submit_s"])
        if tim["fetch_s"]:
            m["service.result_fetch_s"] = statistics.median(tim["fetch_s"])
        m["service.generator_late_s"] = max(tim["late_s"])
        base = [r.latency_s for r in untraced if r.error is None]
        with_trace = [r.latency_s for r in traced if r.error is None]
        if base and with_trace:
            ratio_of_medians = statistics.median(with_trace) / statistics.median(base)
            m["obs.tracing_overhead"] = ratio_of_medians - 1.0
    else:
        base = sum(r.latency_s for r in untraced if r.error is None)
        with_trace = sum(r.latency_s for r in traced if r.error is None)
        if base and with_trace:
            m["obs.tracing_overhead"] = with_trace / base - 1.0

    if "calibration" in info:
        model = info["calibration"].model
        n_workers = w.n_ranks - 1
        games_per_worker_gen = w.n_ssets * (w.n_ssets - 1) / n_workers
        predicted = games_per_worker_gen * model.seconds_per_game(
            w.memory, 200, engine="incremental"
        )
        measured = busy("game.play") / n_workers / gens
        m["model.play_s_per_gen.predicted"] = predicted
        m["model.play_s_per_gen.measured"] = measured
        m["model.play_s_per_gen.rel_error"] = ratio(predicted - measured, measured)
    return m


# -- report -----------------------------------------------------------------------------------


def print_rank_table(w, ranks, n_runs) -> None:
    print(f"# per-layer self time per traced run, by rank ({w.name}; s)")
    head = ["rank", "wall"] + list(LAYERS) + ["parallel", "coverage"]
    print("  ".join(f"{h:>10}" for h in head))
    for rank in sorted(ranks):
        t = ranks[rank]
        row = [str(rank), f"{t.root_us / 1e6 / n_runs:.4f}"]
        for layer in LAYERS:
            s = sum(st.self_us for name, st in t.spans.items() if name.split(".")[0] == layer)
            row.append(f"{s / 1e6 / n_runs:.4f}")
        if t.root_us:
            row.append(f"{(t.root_us - t.attributed_us) / 1e6 / n_runs:.4f}")
            row.append(f"{t.attributed_us / t.root_us:.3f}")
        else:
            row += ["-", "-"]
        print("  ".join(f"{c:>10}" for c in row))


def print_metrics(title, metrics, units) -> None:
    print(f"# {title}")
    for name, value in metrics.items():
        print(f"{name:<36} {value:>16.6g} {units[name]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so that the finally blocks stop the servers and
    # rank processes this run started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        w = workloads.workload(args.workload)
    except KeyError:
        names = ", ".join(x.name for x in workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r} (choose from {names})", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    out_dir = ROOT / ".bench_work" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    info = {}
    if trace and w.eager:
        from repro.perf.calibration import calibrate

        info["calibration"] = calibrate()
    measure = measure_service if w.kind == "service" else measure_simulation
    records, ranks, measured = measure(w, args.seed, args.seconds, trace, out_dir)
    info.update(measured)

    attempted = len(records)
    failed = sum(1 for r in records if r.error)
    for r in records:
        if r.error:
            print(f"# FAILED run (config {r.config_index}, traced={r.traced}): {r.error}")
    if trace:
        metrics = per_layer_metrics(w, records, ranks, info)
        units = PER_LAYER
        n_runs = max(1, sum(1 for r in records if r.traced))
        print_rank_table(w, ranks, n_runs)
    else:
        metrics = end_to_end_metrics(w, records, info)
        units = END_TO_END

    report = {
        "workload": w.name,
        "why": w.why,
        "params": w.params(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": stats.provenance(ROOT),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "runs": [
            {"config": r.config_index, "latency_s": r.latency_s, "traced": r.traced,
             "error": r.error}
            for r in records
        ],
    }
    for key in ("latency_tail_percentile", "latency_samples", "generator_late_max_s",
                "chrome_trace", "setup"):
        if key in info:
            report[key] = info[key]
    if "calibration" in info:
        report["cost_model"] = info["calibration"].model.label
    (out_dir / "result.json").write_text(json.dumps(report, indent=2, default=str))

    print(f"# workload {w.name} (seed {args.seed}): {w.why}")
    print(f"# params {json.dumps(w.params())}")
    print(f"# provenance {json.dumps(report['provenance'])}")
    print(f"# runs attempted {attempted}, failed {failed}, error_rate {failed / attempted:.4f}")
    if not trace:
        print(f"# latency tail is p{info['latency_tail_percentile']:.1f}"
              f" of {info['latency_samples']} runs")
        if w.kind == "service":
            print(f"# open-loop generator at {w.rate:g} runs/s,"
                  f" at most {info['generator_late_max_s']:.4f} s late")
    if trace and w.eager:
        p = metrics["model.play_s_per_gen.predicted"]
        q = metrics["model.play_s_per_gen.measured"]
        print("# model error (informational): per-worker game.play s/generation")
        print(f"#   predicted {p:.6f}  measured {q:.6f}"
              f"  relative error {metrics['model.play_s_per_gen.rel_error']:+.3f}")
    print_metrics("per-layer metrics" if trace else "end-to-end metrics", metrics, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
