"""Tests for the real-MPI bridge (offline: interface compatibility)."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import MPIError
from repro.mpi.executor import run_spmd
from repro.parallel.mpi4py_backend import CommLike, _build_parser, run_on_comm
from repro.parallel.runner import ParallelSimulation


class TestInterfaceCompatibility:
    def test_virtual_comm_satisfies_the_protocol(self):
        res = run_spmd(2, lambda comm: isinstance(comm, CommLike), timeout=30)
        assert all(res.returns)

    def test_run_on_comm_matches_parallel_simulation(self):
        """run_on_comm is the same rank program ParallelSimulation wraps."""
        cfg = SimulationConfig(memory=1, n_ssets=8, generations=50, seed=13, rounds=10)

        res = run_spmd(3, run_on_comm, args=(cfg,), timeout=60)
        reference = ParallelSimulation(cfg, n_ranks=3).run()
        assert np.array_equal(res.returns[0]["matrix"], reference.matrix)
        assert res.returns[0]["n_pc_events"] == reference.n_pc_events

    def test_run_on_comm_needs_only_the_commlike_surface(self):
        """The bridge runs on a communicator with nothing but CommLike's members."""

        class Bare:
            def __init__(self, comm):
                self.rank, self.size = comm.rank, comm.size
                self.send = comm.send
                self.bcast = comm.bcast
                self.allgather = comm.allgather
                self._comm = comm

            def recv(self, source, tag):
                return self._comm.recv(source=source, tag=tag)

        cfg = SimulationConfig(memory=1, n_ssets=8, generations=50, seed=13, rounds=10)
        res = run_spmd(3, lambda comm: run_on_comm(Bare(comm), cfg), timeout=60)
        reference = ParallelSimulation(cfg, n_ranks=3).run()
        assert np.array_equal(res.returns[0]["matrix"], reference.matrix)
        assert res.returns[0]["n_pc_events"] == reference.n_pc_events

    def test_needs_two_ranks(self):
        cfg = SimulationConfig(memory=1, n_ssets=4, generations=1, seed=0)
        with pytest.raises(MPIError):
            run_spmd(1, run_on_comm, args=(cfg,), timeout=30)


class TestCli:
    def test_parser_defaults(self):
        args = _build_parser().parse_args([])
        assert args.n_ssets == 64
        assert not args.eager_games

    def test_parser_flags(self):
        args = _build_parser().parse_args(
            ["--memory", "3", "--n-ssets", "128", "--eager-games", "--output", "m.npy"]
        )
        assert (args.memory, args.n_ssets) == (3, 128)
        assert args.eager_games
        assert args.output == "m.npy"

    def test_main_without_mpi4py_raises_cleanly(self):
        try:
            import mpi4py  # noqa: F401

            pytest.skip("mpi4py installed; the error path is not reachable")
        except ImportError:
            pass
        from repro.parallel.mpi4py_backend import main

        with pytest.raises(MPIError, match="mpi4py is not installed"):
            main([])
