"""Tests for eager (paper-faithful) game execution in the parallel runner."""

import math

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.game.noise import NoiseModel
from repro.parallel import runner
from repro.parallel.decomposition import SSetDecomposition
from repro.parallel.runner import ParallelSimulation


@pytest.fixture(scope="module")
def runs():
    cfg = SimulationConfig(memory=1, n_ssets=12, generations=60, seed=19, rounds=20)
    lazy = ParallelSimulation(cfg, n_ranks=4).run()
    eager = ParallelSimulation(cfg, n_ranks=4, eager_games=True).run()
    return cfg, lazy, eager


class TestTrajectoryUnchanged:
    def test_same_final_population(self, runs):
        _, lazy, eager = runs
        assert np.array_equal(lazy.matrix, eager.matrix)

    def test_same_nature_counters(self, runs):
        _, lazy, eager = runs
        assert lazy.n_pc_events == eager.n_pc_events
        assert lazy.n_adoptions == eager.n_adoptions


class TestWorkAccounting:
    def test_lazy_plays_nothing_eagerly(self, runs):
        _, lazy, _ = runs
        assert all(g == 0 for g in lazy.games_played_per_rank)

    def test_eager_counts_match_decomposition(self, runs):
        """Each rank plays exactly owned_ssets x (n_ssets - 1) games/gen —
        the quantity the performance model's compute term is built from."""
        cfg, _, eager = runs
        decomp = SSetDecomposition(cfg.n_ssets, 4)
        for rank, games in enumerate(eager.games_played_per_rank):
            owned = decomp.ssets_of_rank(rank).size
            assert games == owned * (cfg.n_ssets - 1) * cfg.generations

    def test_nature_rank_plays_no_games(self, runs):
        _, _, eager = runs
        assert eager.games_played_per_rank[0] == 0

    def test_total_matches_workload_spec(self, runs):
        """The real execution's total game count equals the WorkloadSpec
        arithmetic that drives the analytic model."""
        from repro.perf.workload import WorkloadSpec

        cfg, _, eager = runs
        workload = WorkloadSpec(
            n_ssets=cfg.n_ssets,
            games_per_sset=cfg.n_ssets - 1,
            memory=cfg.memory,
            rounds=cfg.rounds,
            generations=cfg.generations,
        )
        assert sum(eager.games_played_per_rank) == (
            workload.total_games_per_generation * cfg.generations
        )

    def test_self_play_adds_one_game_per_sset(self):
        cfg = SimulationConfig(
            memory=1, n_ssets=7, generations=3, seed=2, rounds=10, include_self_play=True,
        )
        eager = ParallelSimulation(cfg, n_ranks=3, eager_games=True).run()
        decomp = SSetDecomposition(cfg.n_ssets, 3)
        for rank, games in enumerate(eager.games_played_per_rank):
            assert games == decomp.ssets_of_rank(rank).size * cfg.n_ssets * cfg.generations


class TestEagerStochastic:
    def test_mixed_population_trajectory_still_matches_lazy(self):
        cfg = SimulationConfig(
            memory=1, n_ssets=8, generations=40, seed=3, rounds=10,
            strategy_kind="mixed",
        )
        lazy = ParallelSimulation(cfg, n_ranks=3).run()
        eager = ParallelSimulation(cfg, n_ranks=3, eager_games=True).run()
        assert np.array_equal(lazy.matrix, eager.matrix)

    def test_pure_noisy_trajectory_still_matches_lazy(self):
        cfg = SimulationConfig(
            memory=2, n_ssets=9, generations=40, seed=5, rounds=10,
            noise=NoiseModel(0.05),
        )
        lazy = ParallelSimulation(cfg, n_ranks=3).run()
        eager = ParallelSimulation(cfg, n_ranks=3, eager_games=True).run()
        assert np.array_equal(lazy.matrix, eager.matrix)


class TestIdleWorker:
    def test_rank_owning_no_sset_plays_nothing(self):
        cfg = SimulationConfig(memory=1, n_ssets=2, generations=5, seed=7, rounds=10)
        result = ParallelSimulation(cfg, n_ranks=4, eager_games=True).run()
        assert result.games_played_per_rank == (0, 5, 5, 0)


# Noisy games exercise the shared per-rank-generation stream across chunks.
CALL_CFG = SimulationConfig(
    memory=3, n_ssets=12, generations=4, seed=23, rounds=10, noise=NoiseModel(0.02),
)
CALL_RANKS = 3


def _slate_calls(result) -> dict[tuple[int, int], int]:
    """(rank, gen) -> ``batch_engine.play`` spans inside that eager ``play`` span."""
    events = [e for e in result.trace.events() if e.ph == "X"]
    plays = [e for e in events if e.name == "play"]
    kernels = [e for e in events if e.name == "batch_engine.play"]
    return {
        (p.rank, p.args["gen"]): sum(
            k.rank == p.rank and p.ts <= k.ts and k.ts + k.dur <= p.ts + p.dur
            for k in kernels
        )
        for p in plays
    }


@pytest.fixture(scope="module")
def unchunked():
    return ParallelSimulation(CALL_CFG, n_ranks=CALL_RANKS, eager_games=True, trace=True).run()


class TestCallShape:
    def test_one_kernel_call_per_worker_generation(self, unchunked):
        calls = _slate_calls(unchunked)
        workers = range(1, CALL_RANKS)
        gens = range(1, CALL_CFG.generations + 1)
        assert set(calls) == {(r, g) for r in workers for g in gens}
        assert set(calls.values()) == {1}

    @pytest.mark.parametrize("lanes", [5, 11, 25, 44])
    def test_chunked_slate_plays_the_same_games(self, unchunked, monkeypatch, lanes):
        monkeypatch.setattr(runner, "_EAGER_LANES", lanes)
        chunked = ParallelSimulation(
            CALL_CFG, n_ranks=CALL_RANKS, eager_games=True, trace=True
        ).run()
        assert np.array_equal(chunked.matrix, unchunked.matrix)
        assert chunked.games_played_per_rank == unchunked.games_played_per_rank
        per = CALL_CFG.n_ssets - 1
        per_chunk = max(1, lanes // per)
        decomp = SSetDecomposition(CALL_CFG.n_ssets, CALL_RANKS)
        for (rank, _), n_calls in _slate_calls(chunked).items():
            owned = decomp.ssets_of_rank(rank).size
            assert n_calls == math.ceil(owned * per / (per_chunk * per))
