"""Full-generation throughput: bit-packed batch kernel vs the reference engine.

The bottleneck of a generation is game play in ``repro.game``, and the fix
is to play a whole round robin of 200-round matchups as one batched
bit-packed kernel call.  This bench times exactly that workload — a
32-strategy generation (496 games x 200 rounds) at memory 1/3/6 — through
three engines:

* the scalar reference engine (``play_ipd``, one Python call per game),
* the dense ``VectorEngine`` (one gather per player per round),
* the bit-packed ``BatchEngine`` (uint64 lane per matchup).

A second table, the lanes-per-call sweep, times ``BatchEngine.play`` at
memory 3 and 6 over call widths from one SSet's 63-opponent slate up to
262,144 lanes, in ns per game-round.  It prices the kernel's fixed per-call
overhead and shows where wide calls spill cache; the parallel runner's
eager-slate lane cap sits at its minimum.

Results land in ``benchmarks/output/engine_speedup.txt`` and machine-readably
in ``BENCH_engine.json`` at the repo root, with an ``env`` block naming the
machine and commit (``docs/kernels.md`` explains how to read it).  The gates
assert the batch kernel beats the reference engine by >= 10x at memory-6,
and that at memory-6 a call at the eager lane cap costs at most a third of
a 63-lane call per game-round; parity (bit-identical fitness) is asserted
inline on every measured configuration.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.game.batch_engine import BatchEngine
from repro.game.engine import play_ipd
from repro.game.states import StateSpace
from repro.game.strategy import Strategy
from repro.game.vector_engine import VectorEngine
from repro.parallel.runner import _EAGER_LANES

from ._util import emit, env_block

N_STRATEGIES = 32
ROUNDS = 200
REPEATS = 5

MEMORIES = [1, 3, 6]

SWEEP_MEMORIES = [3, 6]
SWEEP_LANES = [63, 256, 1024, 2016, 4096, _EAGER_LANES, 65536, 262144]
#: Narrow calls take milliseconds, so they get more repeats to keep
#: best-of timing stable on a shared box.
SWEEP_MIN_REPEATS, SWEEP_MAX_REPEATS = 3, 20
#: Strategies behind the sweep's lanes: the eager-m6 population, so 63
#: lanes are one SSet's slate and 2,016 are one of two workers' slates.
SWEEP_POOL = 64

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _reference_generation(strategies, ia, ib):
    """One full generation through the scalar reference engine."""
    fit = np.empty(ia.size, dtype=np.float64)
    for g in range(ia.size):
        fit[g] = play_ipd(strategies[ia[g]], strategies[ib[g]], rounds=ROUNDS).fitness_a
    return fit


def _time_engine(engine, mat, ia, ib, repeats=REPEATS):
    """Best-of-``repeats`` seconds for one ``play`` call, after a warm-up."""
    engine.play(mat, ia, ib)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = engine.play(mat, ia, ib)
        best = min(best, time.perf_counter() - t0)
    return best, res


def _lanes_sweep():
    """ns per game-round of one ``BatchEngine.play`` call, per memory and width.

    Lane ``g`` replays ordered pair ``g mod P(P-1)`` of a ``P``-strategy
    pool in eager-slate order (SSet, then opponent), so every width's
    fitness must equal the tiled fitness of one full pool slate — itself
    checked against ``VectorEngine``.
    """
    rows = []
    for memory in SWEEP_MEMORIES:
        space = StateSpace(memory)
        rng = np.random.default_rng(100 + memory)
        mat = rng.integers(0, 2, size=(SWEEP_POOL, space.n_states)).astype(np.uint8)
        grid = np.broadcast_to(np.arange(SWEEP_POOL), (SWEEP_POOL, SWEEP_POOL))
        base_a = np.repeat(np.arange(SWEEP_POOL), SWEEP_POOL - 1)
        base_b = grid[grid != np.arange(SWEEP_POOL)[:, None]]
        bat = BatchEngine(space, rounds=ROUNDS)
        base_fit = bat.play(mat, base_a, base_b).fitness_a
        vec_fit = VectorEngine(space, rounds=ROUNDS).play(mat, base_a, base_b).fitness_a
        assert np.array_equal(base_fit, vec_fit)
        for lanes in SWEEP_LANES:
            lane = np.arange(lanes) % base_a.size
            ia, ib = base_a[lane], base_b[lane]
            repeats = max(SWEEP_MIN_REPEATS, min(SWEEP_MAX_REPEATS, _EAGER_LANES // lanes))
            best, res = _time_engine(bat, mat, ia, ib, repeats)
            assert np.array_equal(res.fitness_a, base_fit[lane])
            rows.append(
                {
                    "memory": memory,
                    "lanes": lanes,
                    "repeats": repeats,
                    "seconds": best,
                    "ns_per_game_round": best / (lanes * ROUNDS) * 1e9,
                }
            )
    return rows


def test_engine_generation_speedup():
    rows = []
    for memory in MEMORIES:
        space = StateSpace(memory)
        rng = np.random.default_rng(memory)
        mat = rng.integers(0, 2, size=(N_STRATEGIES, space.n_states)).astype(np.uint8)
        strategies = [Strategy(space, mat[i]) for i in range(N_STRATEGIES)]
        vec = VectorEngine(space, rounds=ROUNDS)
        bat = BatchEngine(space, rounds=ROUNDS)
        ia, ib = vec.round_robin_pairs(N_STRATEGIES)

        t0 = time.perf_counter()
        ref_fit = _reference_generation(strategies, ia, ib)
        t_ref = time.perf_counter() - t0
        t_vec, res_vec = _time_engine(vec, mat, ia, ib)
        t_bat, res_bat = _time_engine(bat, mat, ia, ib)

        # Parity gate, inline: all three engines agree bit-for-bit.
        assert np.array_equal(res_vec.fitness_a, res_bat.fitness_a)
        assert np.array_equal(res_vec.fitness_b, res_bat.fitness_b)
        assert np.array_equal(ref_fit, res_bat.fitness_a)

        rows.append(
            {
                "memory": memory,
                "n_strategies": N_STRATEGIES,
                "games": int(ia.size),
                "rounds": ROUNDS,
                "kernel": bat.kernel,
                "reference_s": t_ref,
                "vector_s": t_vec,
                "batch_s": t_bat,
                "speedup_vs_reference": t_ref / t_bat if t_bat else float("inf"),
                "speedup_vs_vector": t_vec / t_bat if t_bat else float("inf"),
            }
        )

    lines = [
        f"{N_STRATEGIES}-strategy generation: {rows[0]['games']} games x {ROUNDS}"
        f" rounds, best of {REPEATS} (batch kernel: {rows[0]['kernel']})",
        f"{'memory':<8} {'reference s':>12} {'vector s':>10} {'batch s':>10}"
        f" {'vs ref':>8} {'vs vector':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row['memory']:<8} {row['reference_s']:>12.3f} {row['vector_s']:>10.4f}"
            f" {row['batch_s']:>10.4f} {row['speedup_vs_reference']:>7.1f}x"
            f" {row['speedup_vs_vector']:>9.2f}x"
        )

    sweep = _lanes_sweep()
    lines += [
        "",
        "lanes per BatchEngine.play call: ns per game-round, best of"
        f" {SWEEP_MIN_REPEATS}-{SWEEP_MAX_REPEATS} (eager lane cap {_EAGER_LANES})",
        f"{'memory':<8}" + "".join(f"{lanes:>9}" for lanes in SWEEP_LANES),
    ]
    for memory in SWEEP_MEMORIES:
        lines.append(
            f"{memory:<8}"
            + "".join(
                f"{row['ns_per_game_round']:>9.1f}" for row in sweep if row["memory"] == memory
            )
        )
    emit("engine_speedup", "\n".join(lines))
    BENCH_JSON.write_text(
        json.dumps(
            {
                "experiment": "engine_generation_speedup",
                "env": env_block(),
                "n_strategies": N_STRATEGIES,
                "rounds": ROUNDS,
                "repeats": REPEATS,
                "rows": rows,
                "lanes_sweep": {
                    "pool": SWEEP_POOL,
                    "eager_lanes_cap": _EAGER_LANES,
                    "rows": sweep,
                },
            },
            indent=2,
        )
        + "\n"
    )

    # >= 10x full-generation throughput at memory-6 against the reference
    # engine.
    mem6 = next(row for row in rows if row["memory"] == 6)
    assert mem6["speedup_vs_reference"] >= 10.0, (
        f"expected >= 10x at memory-6, got {mem6['speedup_vs_reference']:.1f}x"
    )
    # Passing whole slates pays: at memory-6 a call at the eager lane cap
    # costs at most a third of a one-SSet (63-lane) call per game-round.
    ns6 = {row["lanes"]: row["ns_per_game_round"] for row in sweep if row["memory"] == 6}
    assert ns6[_EAGER_LANES] <= ns6[63] / 3, (
        f"expected <= 1/3 of {ns6[63]:.1f} ns at {_EAGER_LANES} lanes, got"
        f" {ns6[_EAGER_LANES]:.1f} ns"
    )
