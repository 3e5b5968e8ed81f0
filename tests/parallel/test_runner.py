"""Integration tests: the parallel runner vs the serial driver.

The central correctness claim of the reproduction: at any rank count, the
parallel execution produces a population trajectory *bit-identical* to the
serial driver, because all randomness flows through the same named streams
and all fitness evaluations are deterministic given the population state.
"""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import MPIError
from repro.game.noise import NoiseModel
from repro.parallel.runner import ParallelSimulation
from repro.population.dynamics import EvolutionDriver


def serial_matrix(cfg):
    return EvolutionDriver(cfg).run().population.matrix()


class TestBitIdenticalTrajectories:
    @pytest.mark.parametrize("n_ranks", [2, 3, 5, 8])
    def test_pure_population(self, n_ranks):
        cfg = SimulationConfig(memory=1, n_ssets=12, generations=200, seed=21)
        par = ParallelSimulation(cfg, n_ranks=n_ranks).run()
        assert np.array_equal(par.matrix, serial_matrix(cfg))

    def test_memory_three(self):
        cfg = SimulationConfig(memory=3, n_ssets=8, generations=80, seed=4)
        par = ParallelSimulation(cfg, n_ranks=4).run()
        assert np.array_equal(par.matrix, serial_matrix(cfg))

    def test_mixed_sampled_fitness(self):
        cfg = SimulationConfig(
            memory=1, n_ssets=8, generations=60, seed=13, strategy_kind="mixed"
        )
        par = ParallelSimulation(cfg, n_ranks=3).run()
        assert np.array_equal(par.matrix, serial_matrix(cfg))

    def test_mixed_expected_fitness(self):
        cfg = SimulationConfig(
            memory=1, n_ssets=8, generations=60, seed=17,
            strategy_kind="mixed", fitness_mode="expected",
        )
        par = ParallelSimulation(cfg, n_ranks=5).run()
        assert np.array_equal(par.matrix, serial_matrix(cfg))

    def test_noisy_games(self):
        cfg = SimulationConfig(
            memory=1, n_ssets=6, generations=50, seed=3, noise=NoiseModel(0.05)
        )
        par = ParallelSimulation(cfg, n_ranks=3).run()
        assert np.array_equal(par.matrix, serial_matrix(cfg))

    def test_fermi_pc_rule(self):
        cfg = SimulationConfig(
            memory=1, n_ssets=10, generations=100, seed=8, pc_rule="fermi", beta=0.01
        )
        par = ParallelSimulation(cfg, n_ranks=4).run()
        assert np.array_equal(par.matrix, serial_matrix(cfg))

    def test_more_workers_than_ssets(self):
        cfg = SimulationConfig(memory=1, n_ssets=4, generations=60, seed=6)
        par = ParallelSimulation(cfg, n_ranks=8).run()
        assert np.array_equal(par.matrix, serial_matrix(cfg))

    def test_counters_match_serial_nature(self):
        cfg = SimulationConfig(memory=1, n_ssets=12, generations=150, seed=30)
        serial = EvolutionDriver(cfg).run()
        par = ParallelSimulation(cfg, n_ranks=4).run()
        assert par.n_pc_events == serial.n_pc_events
        assert par.n_adoptions == serial.n_adoptions
        assert par.n_mutations == serial.n_mutations


class TestCommunicationPattern:
    def test_bcast_count_matches_protocol(self):
        """Per generation: 1 header bcast + 1 mutation bcast + 1 outcome
        bcast per PC event, plus the final digest allgather's bcast leg."""
        cfg = SimulationConfig(memory=1, n_ssets=6, generations=40, seed=2)
        par = ParallelSimulation(cfg, n_ranks=3).run()
        bcasts = par.counters["bcast"].calls
        expected = 2 * cfg.generations + par.n_pc_events + 1
        assert bcasts == expected

    def test_fitness_returns_are_point_to_point(self):
        cfg = SimulationConfig(
            memory=1, n_ssets=6, generations=30, seed=2, pc_rate=1.0, mutation_rate=0.0
        )
        par = ParallelSimulation(cfg, n_ranks=3).run()
        # Every generation has a PC -> exactly 2 fitness messages land at
        # the Nature rank per generation, plus collective-internal traffic.
        sends = par.counters["send"].messages
        assert sends >= 2 * cfg.generations

    def test_traffic_is_pinned_on_both_channels(self):
        """Exact message counts of the tree and the fault-free star.

        Only counts with no timing dependence are pinned; byte totals
        depend on the pickle and NumPy versions.
        """
        cfg = SimulationConfig(memory=1, n_ssets=12, generations=150, seed=30)
        tree = ParallelSimulation(cfg, n_ranks=4).run().counters
        assert tree["bcast"].calls == 307
        assert tree["send"].messages == 936
        assert tree["gather"].calls == 1

        cfg = SimulationConfig(memory=2, n_ssets=10, generations=60, seed=9)
        star = ParallelSimulation(cfg, n_ranks=3, fault_tolerant=True).run().counters
        assert star["reliable_send"].calls == 364
        assert star["heartbeat"].calls == 120


class TestValidation:
    def test_needs_two_ranks(self, small_config):
        with pytest.raises(MPIError):
            ParallelSimulation(small_config, n_ranks=1)

    def test_result_fields(self):
        cfg = SimulationConfig(memory=1, n_ssets=6, generations=10, seed=1)
        par = ParallelSimulation(cfg, n_ranks=2).run()
        assert par.generation == 10
        assert par.n_ranks == 2
        assert par.matrix.shape == (6, 4)

    @pytest.mark.parametrize("timeout", [0.0, -1.0])
    def test_heartbeat_timeout_must_be_positive(self, small_config, timeout):
        # A non-positive timeout would declare every worker dead at once.
        with pytest.raises(MPIError, match="heartbeat_timeout"):
            ParallelSimulation(
                small_config, n_ranks=3, fault_tolerant=True, heartbeat_timeout=timeout
            )
