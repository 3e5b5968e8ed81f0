"""The parallel algorithm: Nature rank plus worker ranks over virtual MPI.

This is the paper's §V implementation, expressed on the virtual runtime:

* rank 0 is the **Nature Agent** — it owns the random decision streams,
  announces each generation's events, receives fitness returns from the
  owning workers, and publishes the resulting strategy updates;
* ranks 1..P-1 are **workers** — each owns a block of SSets
  (:class:`~repro.parallel.decomposition.SSetDecomposition`), keeps a full
  replica of the global strategy view (the paper's per-node "local view of
  the strategy space"), evaluates the fitness of its own SSets when asked,
  and applies every published update.

One rank program runs one Nature loop and one worker loop over a channel:
the paper's collective **tree** (:class:`_Tree`), or the fault-tolerant
reliable **star** (:class:`_Star`); ``ParallelSimulation(fault_tolerant=...)``
picks it.  Because every rank derives its randomness from the same
:class:`~repro.rng.StreamFactory` keys as the serial driver, a parallel run
produces a population trajectory *bit-identical* to
:class:`~repro.population.dynamics.EvolutionDriver` at any rank count, on
either channel — the integration tests assert this, which is the strongest
correctness statement the reproduction makes.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.config import SimulationConfig
from repro.errors import MPIError, RankCrashError, RankFailedError, RecvTimeoutError
from repro.io.checkpoints import (
    ParallelCheckpoint,
    latest_valid_parallel_checkpoint,
    load_parallel_checkpoint,
    save_parallel_checkpoint,
    write_torn_parallel_checkpoint,
)
from repro.mpi.comm import ANY_SOURCE, Comm
from repro.mpi.counters import OpCount
from repro.mpi.executor import RespawnRecord, run_spmd
from repro.mpi.faults import FaultInjector, FaultPlan, FaultRecord
from repro.parallel.decomposition import SSetDecomposition, owner_map_with_failures
from repro.parallel.protocol import (
    TAG_CONTROL,
    TAG_FITNESS,
    TAG_HELLO,
    TAG_RECOVERY,
    TAG_REPORT,
    DegradationEvent,
    FTFinal,
    FTFitnessRequest,
    FTHeader,
    FTHello,
    FTRejoin,
    FTRetire,
    FTShutdown,
    FTUpdate,
    GenerationHeader,
    MembershipChange,
    MembershipEvent,
    MutationUpdate,
    PCOutcome,
    RecoveryEvent,
    WorkerReport,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.population.fitness import FitnessEvaluator
from repro.population.nature import NatureAgent, PCSelection
from repro.population.population import Population
from repro.rng import StreamFactory

__all__ = ["ParallelSimulation", "ParallelRunResult"]

_TAG_TEACHER = TAG_FITNESS
_TAG_LEARNER = TAG_FITNESS + 1


@dataclass(frozen=True)
class ParallelRunResult:
    """Outcome of a parallel run.

    Attributes
    ----------
    matrix:
        Final (n_ssets, n_states) strategy matrix (identical on all ranks;
        verified by digest).
    generation:
        Generations completed.
    n_pc_events, n_adoptions, n_mutations:
        Nature Agent counters.
    counters:
        Virtual-network traffic tallies by operation.
    n_ranks:
        World size the program ran on.
    games_played_per_rank:
        Directed games each rank actually played (all zeros unless the run
        was ``eager_games`` — lazy fitness only plays at PC events).
    """

    matrix: np.ndarray
    generation: int
    n_pc_events: int
    n_adoptions: int
    n_mutations: int
    counters: dict[str, OpCount]
    n_ranks: int
    games_played_per_rank: tuple[int, ...]
    #: Ranks lost to faults during the run (empty for fault-free runs).
    failed_ranks: tuple[int, ...] = ()
    #: Graceful-degradation steps, in the order Nature detected them.
    degradations: tuple[DegradationEvent, ...] = ()
    #: The injector's fired-fault log in canonical order (chaos tests
    #: assert two runs with the same plan saw the identical schedule).
    fault_events: tuple[FaultRecord, ...] = ()
    #: Checkpoint files written during the run, oldest first.
    checkpoints: tuple[str, ...] = ()
    #: Successful heals under ``on_rank_failure="respawn"``: each event
    #: records a respawned rank rejoining the computation (the mirror image
    #: of ``degradations``).  A healed rank does not appear in
    #: ``failed_ranks``.
    recoveries: tuple[RecoveryEvent, ...] = ()
    #: Replacement processes launched by the executor under
    #: ``on_rank_failure="respawn"`` (a superset of ``recoveries`` — a
    #: replacement may die again before it manages to rejoin).
    respawns: tuple[RespawnRecord, ...] = ()
    #: Elastic-membership changes executed during the run (``World.grow``
    #: and ``World.shrink`` via ``membership_plan``), in generation order.
    membership: tuple[MembershipChange, ...] = ()
    #: The run's :class:`~repro.obs.Tracer` when tracing was requested
    #: (``ParallelSimulation(..., trace=...)``); ``None`` otherwise.  Export
    #: it with :func:`repro.obs.write_chrome_trace` or summarise with
    #: :func:`repro.obs.timeline_text`.
    trace: Tracer | None = None


def _replica_digest(matrix: np.ndarray) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(str(matrix.dtype).encode())
    h.update(np.ascontiguousarray(matrix).tobytes())
    return h.digest()


#: Most matchup lanes one eager ``engine.play`` call carries.  Per-call
#: overhead dominates narrow calls (over 20x the per-game-round cost at
#: 63 lanes, memory-6) and the kernel's lane arrays spill cache past ~16k
#: lanes: the lanes-per-call curve in ``BENCH_engine.json`` bottoms out
#: here.  The cap also bounds lane memory when ``n_ssets`` is large.
_EAGER_LANES = 1 << 14


def _eager_slate(config, population, evaluator, streams, owned, gen, rank) -> int:
    """Play every owned SSet's full opponent slate (the paper's §IV-D workload).

    The slates of all ``owned`` SSets are concatenated — ascending SSet,
    then ascending opponent — and played in as few ``engine.play`` calls as
    fit: each call carries whole SSets and at most :data:`_EAGER_LANES`
    lanes (at least one SSet).  Noisy or mixed games draw from one
    generator, ``streams.fresh("eager", gen, rank)``, shared by that
    rank-generation's calls in order.  The results are discarded: PC
    fitness still comes from :class:`FitnessEvaluator`, so neither the
    stream key nor the chunking can move the trajectory.  Returns the
    number of games played.
    """
    owned = np.asarray(owned, dtype=np.intp)
    if owned.size == 0:
        return 0
    n, per = config.n_ssets, config.opponents_per_sset
    assign = population.assignment()
    tables = population.tables_view()
    rng = None if config.deterministic_games else streams.fresh("eager", gen, rank)
    step = max(1, _EAGER_LANES // per)
    for start in range(0, owned.size, step):
        chunk = owned[start:start + step]
        grid = np.broadcast_to(np.arange(n, dtype=np.intp), (chunk.size, n))
        opponents = grid if config.include_self_play else grid[grid != chunk[:, None]]
        ia = np.repeat(assign[chunk], per)
        evaluator.engine.play(tables, ia, assign[opponents.ravel()], rng=rng)
    return owned.size * per


@dataclass(frozen=True)
class _StarOptions:
    """Knobs of the star channel and the state a resumed run starts from (internal)."""

    heartbeat_timeout: float = 5.0
    checkpoint_dir: str | None = None
    checkpoint_every: int = 0
    start_generation: int = 0
    start_matrix: np.ndarray | None = None
    start_nature_rng: dict | None = None
    start_counters: tuple[int, int, int] = (0, 0, 0)
    start_failed: tuple[int, ...] = ()
    membership_plan: tuple[MembershipEvent, ...] = ()


def _rank_program(
    comm: Comm, config: SimulationConfig, eager_games: bool, star: _StarOptions | None = None
) -> dict:
    """The SPMD body executed by every rank: the tree channel, or the star when ``star`` is set."""
    streams = StreamFactory(config.seed)
    opts = star if star is not None else _StarOptions()
    if opts.start_matrix is None:
        population = Population.random(config, streams.fresh("init"))
    else:
        population = Population(config, np.array(opts.start_matrix, copy=True))
    net = _Tree(comm, config) if star is None else _Star(comm, config, star)
    if comm.rank == 0:
        return _nature_loop(net, config, population, streams, opts)
    try:
        return _worker_loop(net, config, eager_games, population, streams)
    except (RankFailedError, RecvTimeoutError) as exc:
        if star is None or comm.world.is_failed(0):
            raise  # Nature is dead (or there is no failure handling): fail loudly.
        # Partitioned from a live Nature (or falsely declared dead): die
        # quietly and let Nature's failure detection degrade the run.
        raise RankCrashError(f"rank {comm.rank}: lost contact with Nature ({exc})") from exc


def _nature_loop(net, config, population, streams, opts: _StarOptions) -> dict:
    """Rank 0: draw each generation's events, gather fitness, publish the updates."""
    comm, tracer = net.comm, net.tracer
    nature = NatureAgent(config, streams)
    if opts.start_nature_rng is not None:
        streams.stream("nature").bit_generator.state = opts.start_nature_rng
        nature.n_pc_events, nature.n_adoptions, nature.n_mutations = opts.start_counters
    checkpoints: list[str] = []
    for gen in range(opts.start_generation + 1, config.generations + 1):
        with tracer.span("generation", rank=comm.rank, args={"gen": gen}):
            net.begin(gen, population)
            selection = nature.select_pc()
            pi_t, pi_l = net.gather_fitness(gen, selection)
            outcome = None
            if selection is not None:
                decision = nature.decide_adoption(selection, float(pi_t), float(pi_l))
                outcome = PCOutcome(
                    teacher=selection.teacher,
                    learner=selection.learner,
                    adopted=decision.adopted,
                    pi_teacher=decision.pi_teacher,
                    pi_learner=decision.pi_learner,
                    probability=decision.probability,
                )
                if outcome.adopted:
                    population.adopt(outcome.learner, outcome.teacher)
            mut_sel = nature.select_mutation(population.random_strategy_table)
            mutation = None
            if mut_sel is not None:
                mutation = MutationUpdate(sset=mut_sel.sset, table=mut_sel.table)
                population.set_strategy(mut_sel.sset, mut_sel.table)
            net.publish(gen, outcome, mutation)
            if opts.checkpoint_dir is not None and opts.checkpoint_every > 0 and (
                gen % opts.checkpoint_every == 0
            ):
                with tracer.span("checkpoint", rank=comm.rank, args={"gen": gen}):
                    checkpoints.append(
                        _checkpoint(net, config, population, streams, nature, opts, gen)
                    )
    matrix = population.matrix()
    out = net.finish(matrix)
    out.update(
        matrix=matrix,
        games_played=0,
        n_pc_events=nature.n_pc_events,
        n_adoptions=nature.n_adoptions,
        n_mutations=nature.n_mutations,
        checkpoints=tuple(checkpoints),
    )
    return out


def _checkpoint(net, config, population, streams, nature, opts, gen) -> str:
    state = ParallelCheckpoint(
        config=config,
        generation=gen,
        matrix=population.matrix(),
        nature_rng_state=streams.stream("nature").bit_generator.state,
        n_pc_events=nature.n_pc_events,
        n_adoptions=nature.n_adoptions,
        n_mutations=nature.n_mutations,
        failed_ranks=tuple(sorted(net.failed)),
    )
    if net.comm.checkpoint_fault_point(gen):
        # Injected kill_during_checkpoint: reproduce the pre-atomic-write
        # failure mode — partial bytes at the final path — then die
        # mid-write.  The supervisor must skip this torn file and resume
        # from the last valid one.
        write_torn_parallel_checkpoint(state, opts.checkpoint_dir)
        raise RankCrashError(
            f"rank {net.comm.rank}: injected kill during checkpoint at generation {gen}"
        )
    return str(save_parallel_checkpoint(state, opts.checkpoint_dir))


def _worker_loop(net, config, eager_games, population, streams) -> dict:
    """Ranks 1..P-1: play, return fitness for owned SSets, apply every update."""
    population = net.join(population)
    if population is None:
        return {"digest": b"", "games_played": 0, "rejoined": False}
    rank, tracer = net.comm.rank, net.tracer
    evaluator = FitnessEvaluator(config, population, streams)

    def fitness(sset: int, gen: int) -> float:
        return float(evaluator.fitness([sset], generation=gen)[0])

    games_played = 0
    for msg in net.messages():
        if isinstance(msg, FTHeader):
            gen = msg.generation
            with tracer.span("generation", rank=rank, args={"gen": gen}):
                if eager_games:
                    # Faithful mode: every generation, every owned SSet plays
                    # its full opponent slate (§IV-D), whether or not a PC
                    # will consume the fitness.  The trajectory is unaffected
                    # — PC fitness still comes from the evaluator's
                    # deterministic/keyed-stream path.
                    with tracer.span("play", rank=rank, args={"gen": gen}):
                        owners = owner_map_with_failures(
                            config.n_ssets,
                            msg.n_ranks if msg.n_ranks > 0 else net.comm.size,
                            msg.failed_ranks,
                        )
                        games_played += _eager_slate(
                            config, population, evaluator, streams,
                            np.flatnonzero(owners == rank), gen, rank,
                        )
                pi_t = pi_l = None
                if msg.has_pc:
                    with tracer.span("fitness", rank=rank, args={"gen": gen}):
                        if msg.teacher_owner == rank:
                            pi_t = fitness(msg.pc_teacher, gen)
                        if msg.learner_owner == rank:
                            pi_l = fitness(msg.pc_learner, gen)
                net.report(gen, pi_t, pi_l)
        elif isinstance(msg, FTUpdate):
            if msg.outcome is not None and msg.outcome.adopted:
                population.adopt(msg.outcome.learner, msg.outcome.teacher)
            if msg.mutation is not None:
                population.set_strategy(msg.mutation.sset, msg.mutation.table)
        elif isinstance(msg, FTFitnessRequest):
            net.report(
                msg.generation,
                fitness(msg.pc_teacher, msg.generation) if msg.want_teacher else None,
                fitness(msg.pc_learner, msg.generation) if msg.want_learner else None,
            )
        elif isinstance(msg, FTRetire):
            # Planned exit (World.shrink): finish cleanly with a digest
            # Nature validates, then leave the world.
            out = net.final(population.matrix(), games_played)
            tracer.instant("retire", rank=rank, args={"gen": msg.generation})
            return {**out, "retired": True}
        else:
            raise MPIError(f"rank {rank}: unexpected control message {type(msg).__name__}")
    return net.final(population.matrix(), games_played)


# -- the tree channel -----------------------------------------------------------------


class _Tree:
    """The paper's message pattern: collective-tree broadcasts, p2p fitness returns.

    Per generation Nature broadcasts a :class:`GenerationHeader`, the
    owners of the teacher and learner send their fitness on
    ``TAG_FITNESS``/``TAG_FITNESS + 1``, and Nature broadcasts the
    :class:`PCOutcome` (PC generations only) and the mutation (every
    generation, ``None`` when idle); a final ``allgather`` checks that
    every replica agrees.  Only the :class:`~repro.parallel.mpi4py_backend.CommLike`
    surface is touched (plus ``comm.world.tracer`` where the communicator
    has a world), so this channel also runs on mpi4py.
    """

    #: The tree has no failure handling: a dead rank aborts the run.
    failed: frozenset[int] = frozenset()

    def __init__(self, comm, config: SimulationConfig) -> None:
        self.comm = comm
        self.generations = config.generations
        self.decomp = SSetDecomposition(config.n_ssets, comm.size)
        world = getattr(comm, "world", None)
        self.tracer = world.tracer if world is not None else NULL_TRACER

    def _span(self, name: str, gen: int):
        return self.tracer.span(name, rank=self.comm.rank, args={"gen": gen})

    def _agreed_digest(self, matrix: np.ndarray) -> bytes:
        digests = self.comm.allgather(_replica_digest(matrix))
        if len(set(digests)) != 1:
            raise MPIError(f"rank {self.comm.rank}: population replicas diverged: {digests}")
        return digests[0]

    # Nature's side.

    def begin(self, gen: int, population: Population) -> None:
        pass

    def gather_fitness(self, gen: int, selection: PCSelection | None):
        header = GenerationHeader(
            generation=gen,
            pc_teacher=selection.teacher if selection else -1,
            pc_learner=selection.learner if selection else -1,
        )
        with self._span("header", gen):
            self.comm.bcast(header, root=0)
        if selection is None:
            return None, None
        with self._span("pc_step", gen):
            pi_t = self.comm.recv(source=self.decomp.owner_of(selection.teacher), tag=_TAG_TEACHER)
            pi_l = self.comm.recv(source=self.decomp.owner_of(selection.learner), tag=_TAG_LEARNER)
        return pi_t, pi_l

    def publish(self, gen: int, outcome: PCOutcome | None, mutation: MutationUpdate | None):
        if outcome is not None:
            with self._span("pc_step", gen):
                self.comm.bcast(outcome, root=0)
        with self._span("mutation", gen):
            self.comm.bcast(mutation, root=0)

    def finish(self, matrix: np.ndarray) -> dict:
        return {"digest": self._agreed_digest(matrix)}

    # A worker's side.

    def join(self, population: Population) -> Population:
        return population

    def messages(self):
        """Yield an :class:`FTHeader`, then an :class:`FTUpdate`, per generation."""
        comm = self.comm
        for gen in range(1, self.generations + 1):
            with self._span("header", gen):
                header = comm.bcast(None, root=0)
            if header.generation != gen:
                raise MPIError(
                    f"rank {comm.rank} desynchronised: header {header.generation} != {gen}"
                )
            yield FTHeader(
                generation=gen,
                pc_teacher=header.pc_teacher,
                pc_learner=header.pc_learner,
                teacher_owner=self.decomp.owner_of(header.pc_teacher) if header.has_pc else -1,
                learner_owner=self.decomp.owner_of(header.pc_learner) if header.has_pc else -1,
                n_ranks=comm.size,
            )
            outcome = None
            if header.has_pc:
                with self._span("pc_step", gen):
                    outcome = comm.bcast(None, root=0)
            with self._span("mutation", gen):
                mutation = comm.bcast(None, root=0)
            yield FTUpdate(generation=gen, outcome=outcome, mutation=mutation)

    def report(self, gen: int, pi_t: float | None, pi_l: float | None) -> None:
        if pi_t is not None:
            self.comm.send(pi_t, dest=0, tag=_TAG_TEACHER)
        if pi_l is not None:
            self.comm.send(pi_l, dest=0, tag=_TAG_LEARNER)

    def final(self, matrix: np.ndarray, games_played: int) -> dict:
        return {"digest": self._agreed_digest(matrix), "games_played": games_played}


# -- the star channel -----------------------------------------------------------------

#: How long a respawned worker keeps re-sending its hello before giving up.
_REJOIN_DEADLINE = 60.0

#: Hello retry cadence: also the recv timeout on the rejoin answer.
_HELLO_RETRY = 0.2


class _Star:
    """The fault-tolerant channel: a reliable point-to-point star.

    Nature heartbeats every live worker each generation (see
    :mod:`repro.parallel.protocol`); dead or silent workers are detected,
    their SSets redistributed to survivors, and the run continues.  Because
    fitness is a deterministic function of (population, generation, sset)
    on every rank, redistribution does not perturb the trajectory: a
    crash-degraded run still matches the fault-free population bit for bit.
    """

    def __init__(self, comm: Comm, config: SimulationConfig, opts: _StarOptions) -> None:
        self.comm = comm
        self.config = config
        self.tracer = comm.world.tracer
        self.hb = opts.heartbeat_timeout
        self.size = comm.size
        self.failed = set(opts.start_failed)
        self.live = [r for r in range(1, self.size) if r not in self.failed]
        self.degradations: list[DegradationEvent] = []
        self.recoveries: list[RecoveryEvent] = []
        self.membership: list[MembershipChange] = []
        #: Cleanly retired ranks (World.shrink) — excluded from ownership like
        #: failures, but not failures: they finished with a validated digest.
        self.retired: set[int] = set()
        self.retired_finals: dict[int, FTFinal] = {}
        #: Fresh ranks (World.grow) whose rejoin handshake is still pending.
        self.joining: set[int] = set()
        self.plan_by_gen: dict[int, list[MembershipEvent]] = {}
        for event in opts.membership_plan:
            self.plan_by_gen.setdefault(event.generation, []).append(event)
        #: A worker ignores control traffic at or before this generation.
        self.min_generation = 0

    def _gone(self) -> tuple[int, ...]:
        return tuple(sorted(self.failed | self.retired))

    def _owners(self) -> np.ndarray:
        return owner_map_with_failures(self.config.n_ssets, self.size, self._gone())

    # Nature's side.

    def _declare_failed(self, rank: int, gen: int, reason: str) -> None:
        if rank in self.failed:
            return
        lost = tuple(int(s) for s in np.flatnonzero(self._owners() == rank))
        self.failed.add(rank)
        if rank in self.live:
            self.live.remove(rank)
        self.comm.world.mark_failed(rank, reason)
        self.comm.world.counters.record("degradation", messages=0, nbytes=0)
        self.tracer.instant(
            "degradation", rank=self.comm.rank,
            args={"gen": gen, "failed_rank": rank, "reason": reason},
        )
        self.degradations.append(
            DegradationEvent(generation=gen, rank=rank, reason=reason, reassigned_ssets=lost)
        )

    def _recv_report(self, rank: int, gen: int):
        """``rank``'s next report, skipping heartbeats from before ``gen``."""
        report = self.comm.recv_reliable(source=rank, tag=TAG_REPORT, timeout=self.hb)
        while isinstance(report, WorkerReport) and report.generation < gen:
            # Stale heartbeat from a previous incarnation of the rank (resent
            # frames the replacement's rejoin revived); already accounted
            # for — wait for the current one.
            report = self.comm.recv_reliable(source=rank, tag=TAG_REPORT, timeout=self.hb)
        return report

    def _process_hellos(self, gen: int, population: Population) -> None:
        """Rejoin any respawned workers whose hellos have arrived.

        Called at the generation boundary, *before* this generation's
        events are drawn, so the replacement is seeded with the state as of
        ``gen - 1`` and participates from ``gen`` onward.  Nature's own RNG
        is untouched by the handshake — the healed trajectory is the
        fault-free trajectory, bit for bit.
        """
        comm = self.comm
        while comm.probe(source=ANY_SOURCE, tag=TAG_HELLO):
            try:
                hello = comm.recv(source=ANY_SOURCE, tag=TAG_HELLO, timeout=0.1)
            except (RecvTimeoutError, RankFailedError):
                return
            rank = hello.rank
            if rank not in self.failed and rank not in self.joining:
                # Not yet declared dead (or never was): the replacement
                # keeps re-sending its hello; answer once we have degraded.
                continue
            rejoin = FTRejoin(
                generation=gen - 1,
                matrix=population.matrix(),
                failed_ranks=tuple(sorted((self.failed | self.retired) - {rank})),
            )
            # Revive before sending: the reliable ack wait fails fast on
            # ranks marked dead.  Roll back if the handshake fails.
            comm.world.mark_alive(rank)
            try:
                comm.send_reliable(rejoin, dest=rank, tag=TAG_RECOVERY, max_retries=2)
            except RankFailedError:
                comm.world.mark_failed(rank, "rejoin handshake failed")
                continue
            # The replacement starts a fresh reliable-recv history; drop
            # ours for its predecessor so its new frames are not mistaken
            # for duplicates (our send sequence stays monotonic).
            comm.forget_reliable_peer(rank)
            self.failed.discard(rank)
            self.joining.discard(rank)
            self.live.append(rank)
            self.live.sort()
            restored = tuple(int(s) for s in np.flatnonzero(self._owners() == rank))
            comm.world.counters.record("recovery", messages=0, nbytes=0)
            self.tracer.instant(
                "recovery", rank=comm.rank,
                args={"gen": gen, "healed_rank": rank, "incarnation": hello.incarnation},
            )
            self.recoveries.append(
                RecoveryEvent(
                    generation=gen - 1,
                    rank=rank,
                    incarnation=hello.incarnation,
                    restored_ssets=restored,
                )
            )

    def _apply_membership(self, gen: int, population: Population) -> None:
        """Execute this generation boundary's planned grow/shrink events.

        Runs after generation ``gen - 1``'s updates are applied everywhere
        and before generation ``gen``'s events are drawn.  Nature's RNG is
        untouched, so the trajectory is bit-identical with or without the
        plan; only the ownership arithmetic changes, and fitness is a pure
        function of ``(generation, sset)`` on every rank.
        """
        comm = self.comm
        for event in self.plan_by_gen.get(gen, ()):
            if event.action == "grow":
                ranks = comm.world.grow(event.count)
                self.size = comm.size
                self.joining.update(ranks)
                # Wait for each joiner's hello so it owns SSets from this
                # generation on; stragglers simply rejoin at a later one.
                deadline = time.monotonic() + max(self.hb, 5.0)
                while self.joining & set(ranks) and time.monotonic() < deadline:
                    self._process_hellos(gen, population)
                    if self.joining & set(ranks):
                        time.sleep(0.01)
            else:  # shrink
                ranks = tuple(sorted(set(event.ranks)))
                current_digest = _replica_digest(population.matrix())
                for rank in ranks:
                    if rank not in self.live:
                        continue  # already dead; nothing to retire cleanly
                    try:
                        comm.send_reliable(FTRetire(generation=gen), dest=rank, tag=TAG_CONTROL)
                        final = self._recv_report(rank, gen)
                    except (RecvTimeoutError, RankFailedError) as exc:
                        self._declare_failed(
                            rank, gen, f"lost at retirement: {type(exc).__name__}"
                        )
                        continue
                    if final.digest != current_digest:
                        raise MPIError(
                            f"retiring rank {rank}'s replica diverged at generation {gen}"
                        )
                    self.retired_finals[rank] = final
                    self.retired.add(rank)
                    self.live.remove(rank)
                comm.world.shrink([r for r in ranks if r in self.retired])
            self.membership.append(
                MembershipChange(
                    generation=gen, action=event.action, ranks=ranks, n_ranks=self.size
                )
            )
            self.tracer.instant(
                f"membership.{event.action}", rank=comm.rank,
                args={"gen": gen, "ranks": list(ranks), "n_ranks": self.size},
            )

    def begin(self, gen: int, population: Population) -> None:
        self.comm.fault_point(gen)
        if gen in self.plan_by_gen:
            self._apply_membership(gen, population)
        if self.failed or self.joining:
            self._process_hellos(gen, population)
        if not self.live:
            # Every worker is currently dead.  Under respawn, replacements
            # may be on their way up — wait a heartbeat's worth for a hello
            # before giving up on the run.
            deadline = time.monotonic() + self.hb
            while not self.live and time.monotonic() < deadline:
                time.sleep(0.02)
                self._process_hellos(gen, population)
        if not self.live:
            raise MPIError(f"generation {gen}: all worker ranks failed; cannot continue")

    def gather_fitness(self, gen: int, selection: PCSelection | None):
        comm, tracer = self.comm, self.tracer
        owners = self._owners()
        header = FTHeader(
            generation=gen,
            pc_teacher=selection.teacher if selection else -1,
            pc_learner=selection.learner if selection else -1,
            teacher_owner=int(owners[selection.teacher]) if selection else -1,
            learner_owner=int(owners[selection.learner]) if selection else -1,
            failed_ranks=self._gone(),
            n_ranks=self.size,
        )
        with tracer.span("header", rank=comm.rank, args={"gen": gen}):
            for rank in list(self.live):
                try:
                    comm.send_reliable(header, dest=rank, tag=TAG_CONTROL)
                except RankFailedError as exc:
                    self._declare_failed(rank, gen, f"header not acknowledged: {exc}")

        # Heartbeat round: one report per live worker, deadline-bounded.
        pi_t = pi_l = None
        with tracer.span("heartbeat", rank=comm.rank, args={"gen": gen}):
            for rank in list(self.live):
                try:
                    report = self._recv_report(rank, gen)
                except (RecvTimeoutError, RankFailedError) as exc:
                    self._declare_failed(rank, gen, f"no heartbeat: {type(exc).__name__}")
                    continue
                if report.generation != gen:
                    raise MPIError(
                        f"nature desynchronised: rank {rank} reported generation"
                        f" {report.generation} != {gen}"
                    )
                comm.world.counters.record("heartbeat", messages=0, nbytes=0)
                if report.pi_teacher is not None:
                    pi_t = report.pi_teacher
                if report.pi_learner is not None:
                    pi_l = report.pi_learner
        if selection is None:
            return None, None

        # Fitness recovery: the owner died mid-generation, ask the new owner.
        with tracer.span("pc_step", rank=comm.rank, args={"gen": gen}):
            while pi_t is None or pi_l is None:
                if not self.live:
                    raise MPIError(f"generation {gen}: all worker ranks failed mid-PC")
                owners = self._owners()
                wanted: dict[int, list[bool]] = {}
                if pi_t is None:
                    wanted.setdefault(int(owners[selection.teacher]), [False, False])[0] = True
                if pi_l is None:
                    wanted.setdefault(int(owners[selection.learner]), [False, False])[1] = True
                for rank, (want_t, want_l) in wanted.items():
                    request = FTFitnessRequest(
                        generation=gen,
                        pc_teacher=selection.teacher,
                        pc_learner=selection.learner,
                        want_teacher=want_t,
                        want_learner=want_l,
                    )
                    try:
                        comm.send_reliable(request, dest=rank, tag=TAG_CONTROL)
                        report = self._recv_report(rank, gen)
                    except (RecvTimeoutError, RankFailedError) as exc:
                        self._declare_failed(
                            rank, gen, f"fitness re-request failed: {type(exc).__name__}"
                        )
                        continue
                    if report.pi_teacher is not None:
                        pi_t = report.pi_teacher
                    if report.pi_learner is not None:
                        pi_l = report.pi_learner
        return pi_t, pi_l

    def publish(self, gen: int, outcome: PCOutcome | None, mutation: MutationUpdate | None):
        update = FTUpdate(
            generation=gen, outcome=outcome, mutation=mutation, failed_ranks=self._gone()
        )
        with self.tracer.span("mutation", rank=self.comm.rank, args={"gen": gen}):
            for rank in list(self.live):
                try:
                    self.comm.send_reliable(update, dest=rank, tag=TAG_CONTROL)
                except RankFailedError as exc:
                    self._declare_failed(rank, gen, f"update not acknowledged: {exc}")

    def finish(self, matrix: np.ndarray) -> dict:
        """Collect final digests from survivors, then release stragglers."""
        comm, gens = self.comm, self.config.generations
        digest = _replica_digest(matrix)
        finals: dict[int, FTFinal] = {}
        for rank in list(self.live):
            try:
                comm.send_reliable(FTShutdown(generation=gens), dest=rank, tag=TAG_CONTROL)
                # Every heartbeat still queued ahead of the FTFinal is stale.
                finals[rank] = self._recv_report(rank, gens + 1)
            except (RecvTimeoutError, RankFailedError) as exc:
                self._declare_failed(rank, gens, f"lost at shutdown: {type(exc).__name__}")
        for rank, final in finals.items():
            if final.digest != digest:
                raise MPIError(f"population replica diverged on rank {rank}")
        comm.world.shutdown()
        games_by_rank = {rank: final.games_played for rank, final in self.retired_finals.items()}
        games_by_rank.update({rank: final.games_played for rank, final in finals.items()})
        return {
            "digest": digest,
            "games_by_rank": games_by_rank,
            "degradations": tuple(self.degradations),
            "recoveries": tuple(self.recoveries),
            "failed_ranks": tuple(sorted(self.failed)),
            "membership": tuple(self.membership),
        }

    # A worker's side.

    def join(self, population: Population) -> Population | None:
        """The worker's starting replica; ``None`` when a rejoin gets no answer.

        A replacement process under ``on_rank_failure="respawn"``, or a
        fresh rank added by ``World.grow``, holds a stale population, so it
        handshakes with Nature.  The hello travels over a *plain* send that
        we retry ourselves: Nature ignores hellos for ranks it has not yet
        declared dead (the previous incarnation might still be limping).
        The :class:`~repro.parallel.protocol.FTRejoin` answer carries
        Nature's authoritative matrix.  Worker randomness is keyed by
        ``(generation, sset)``, so no RNG state needs to travel.
        """
        comm = self.comm
        incarnation = getattr(comm.world, "incarnation", 0)
        if incarnation == 0 and comm.rank not in getattr(comm.world, "joiner_ranks", ()):
            return population
        deadline = time.monotonic() + _REJOIN_DEADLINE
        rejoin = None
        while rejoin is None:
            if time.monotonic() >= deadline:
                # Nature never answered (the run may have finished without
                # us, or is about to abort).  Die quietly — the executor
                # records the rank as permanently degraded.
                return None
            try:
                comm.send(FTHello(rank=comm.rank, incarnation=incarnation), dest=0, tag=TAG_HELLO)
                rejoin = comm.recv_reliable(source=0, tag=TAG_RECOVERY, timeout=_HELLO_RETRY)
            except RecvTimeoutError:
                continue  # Nature has not declared us dead yet; hello again.
            except RankFailedError:
                return None  # Nature itself is dead: nothing to rejoin.
        self.min_generation = rejoin.generation
        self.tracer.instant(
            "rejoin", rank=comm.rank,
            args={"gen": rejoin.generation, "incarnation": incarnation},
        )
        return Population(self.config, np.array(rejoin.matrix, copy=True))

    def messages(self):
        """Yield Nature's control messages until it sends :class:`FTShutdown`."""
        while True:
            msg = self.comm.recv_reliable(source=0, tag=TAG_CONTROL)
            if isinstance(msg, FTShutdown):
                return
            if msg.generation <= self.min_generation:
                # Stale control traffic addressed to a previous incarnation
                # of this rank (the reliable layer may redeliver frames sent
                # before our predecessor died).  Everything at or before the
                # rejoin generation is already folded into the matrix we
                # were seeded with — drop it without replying.
                continue
            if isinstance(msg, FTHeader):
                self.comm.fault_point(msg.generation)
            yield msg

    def report(self, gen: int, pi_t: float | None, pi_l: float | None) -> None:
        self.comm.send_reliable(
            WorkerReport(rank=self.comm.rank, generation=gen, pi_teacher=pi_t, pi_learner=pi_l),
            dest=0,
            tag=TAG_REPORT,
        )

    def final(self, matrix: np.ndarray, games_played: int) -> dict:
        digest = _replica_digest(matrix)
        self.comm.send_reliable(
            FTFinal(rank=self.comm.rank, digest=digest, games_played=games_played),
            dest=0,
            tag=TAG_REPORT,
        )
        return {"digest": digest, "games_played": games_played}


class ParallelSimulation:
    """Runs the full model on ``n_ranks`` virtual MPI ranks.

    Parameters
    ----------
    config:
        Simulation parameters (shared verbatim with the serial driver).
        This includes engine selection: every rank's
        :class:`~repro.population.fitness.FitnessEvaluator` builds its game
        engine from ``config.resolved_engine`` / ``config.engine_jit``, so
        setting ``engine="batch"`` (or leaving ``"auto"`` on a pure
        population) runs the bit-packed batch kernel on all workers with
        bit-identical trajectories (docs/kernels.md).
    n_ranks:
        World size, >= 2 (rank 0 is the Nature Agent).
    eager_games:
        When true, every worker replays its owned SSets' full opponent
        slate every generation — the paper's faithful workload (§IV-D),
        useful for validating the performance model's work accounting.
        Off by default: the trajectory only ever consumes fitness at PC
        events, so lazy evaluation is equivalent and far cheaper.
    fault_plan:
        Optional :class:`~repro.mpi.faults.FaultPlan` describing the chaos
        to inject (message drops, delays, duplicates, corruptions, rank
        crashes and hangs).  Implies the star channel unless
        ``fault_tolerant=False`` is forced.
    fault_tolerant:
        Picks the rank program's channel.  ``True`` runs the
        fault-tolerant star (reliable point-to-point messages and a
        per-generation heartbeat), ``False`` the paper's collective tree.
        ``None`` (default) picks the star when a fault plan, checkpointing,
        respawn or a membership plan is configured, the tree otherwise.
        The tree has no per-message deadline: ``run(timeout=...)`` bounds a
        hung run.
    heartbeat_timeout:
        Seconds Nature waits for a worker's per-generation report before
        declaring the rank failed (star channel only).
    checkpoint_dir:
        Directory for periodic :func:`~repro.io.checkpoints.save_parallel_checkpoint`
        files; enables restart via :meth:`resume`.
    checkpoint_every:
        Checkpoint cadence in generations (0 disables).
    trace:
        Observability.  ``True`` creates a fresh :class:`~repro.obs.Tracer`;
        an existing :class:`~repro.obs.Tracer` is used as given.  The traced
        run records per-rank generation-phase spans and every virtual-MPI
        message, absorbs the network counters into the tracer's metrics
        registry, and returns the tracer as ``result.trace`` for export
        (:func:`repro.obs.write_chrome_trace`).  ``False`` (default) keeps
        tracing off at near-zero cost; the trajectory is bit-identical
        either way.
    backend:
        Execution substrate for the SPMD ranks.  ``"thread"`` (default)
        runs every rank as a thread in this process — exact semantics,
        no multi-core speedup (the GIL).  ``"process"`` runs every rank
        as an OS process (:mod:`repro.mpi.procexec`): real parallelism
        for game play, the same deterministic trajectory bit for bit.
        With the process backend an injected ``crash``/``hang`` kills the
        rank's *process*; the fault-tolerant protocol degrades around the
        real death exactly as it does around the simulated one.  ``"tcp"``
        spreads the rank processes across ``n_hosts`` OS-process "hosts"
        talking framed loopback TCP (:mod:`repro.mpi.hostexec`) — the
        multi-host substrate with partition-tolerant reconnection; the
        trajectory stays bit-identical.
    on_rank_failure:
        ``"continue"`` (default): a dead worker's SSets are redistributed
        to the survivors and stay there — graceful degradation.
        ``"respawn"`` (process backend only): additionally launch a
        replacement process for each dead worker; the replacement
        handshakes with Nature, is re-seeded from Nature's authoritative
        matrix, and takes its SSets back (each heal is recorded as a
        :class:`~repro.parallel.protocol.RecoveryEvent` in
        ``result.recoveries``).  Implies the fault-tolerant protocol.
    max_respawns:
        Total replacement-process budget under
        ``on_rank_failure="respawn"``.
    n_hosts, tcp_options:
        TCP-backend tuning: how many host processes the ranks are dealt
        across, and a :class:`repro.mpi.tcp.TcpOptions` bundle of socket
        knobs (heartbeats, reconnect backoff, unreachability grace).
        Ignored under the other backends.
    membership_plan:
        Planned elastic-membership changes: a sequence of
        :class:`~repro.parallel.protocol.MembershipEvent` executed by the
        Nature Agent at the named generation boundaries (``World.grow`` /
        ``World.shrink``).  Implies the fault-tolerant protocol.  The
        population trajectory is bit-identical with or without the plan
        (membership changes never touch Nature's RNG); executed changes
        are reported as ``result.membership``.  Thread and tcp backends
        only — the process backend cannot add rank processes mid-run.

    Examples
    --------
    >>> from repro.config import SimulationConfig
    >>> cfg = SimulationConfig(n_ssets=8, generations=40, seed=11)
    >>> result = ParallelSimulation(cfg, n_ranks=4).run()
    >>> result.generation
    40
    """

    def __init__(
        self,
        config: SimulationConfig,
        n_ranks: int,
        eager_games: bool = False,
        *,
        fault_plan: FaultPlan | None = None,
        fault_tolerant: bool | None = None,
        heartbeat_timeout: float = 5.0,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int = 0,
        trace: bool | Tracer = False,
        backend: str = "thread",
        on_rank_failure: str = "continue",
        max_respawns: int = 8,
        n_hosts: int = 2,
        tcp_options=None,
        membership_plan=(),
    ) -> None:
        if n_ranks < 2:
            raise MPIError(f"need >= 2 ranks (Nature Agent + worker), got {n_ranks}")
        if checkpoint_every < 0:
            raise MPIError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
        if backend not in ("thread", "process", "tcp"):
            raise MPIError(f"backend must be 'thread', 'process' or 'tcp', got {backend!r}")
        if on_rank_failure not in ("continue", "respawn"):
            raise MPIError(
                f"on_rank_failure must be 'continue' or 'respawn', got {on_rank_failure!r}"
            )
        if on_rank_failure == "respawn" and backend not in ("process", "tcp"):
            raise MPIError(
                "on_rank_failure='respawn' needs real processes to replace —"
                " use backend='process' or backend='tcp'"
            )
        membership_plan = tuple(membership_plan)
        for event in membership_plan:
            if not isinstance(event, MembershipEvent):
                raise MPIError(
                    f"membership_plan entries must be MembershipEvent, got {type(event).__name__}"
                )
        if membership_plan and backend == "process":
            raise MPIError(
                "membership_plan needs a world that can spawn ranks mid-run —"
                " use backend='thread' or backend='tcp'"
            )
        self.membership_plan = membership_plan
        self.on_rank_failure = on_rank_failure
        self.max_respawns = int(max_respawns)
        self.n_hosts = int(n_hosts)
        self.tcp_options = tcp_options
        self.config = config
        self.backend = backend
        self.n_ranks = int(n_ranks)
        self.eager_games = bool(eager_games)
        self.fault_plan = fault_plan
        if heartbeat_timeout <= 0:
            raise MPIError(f"heartbeat_timeout must be > 0, got {heartbeat_timeout}")
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.checkpoint_dir = None if checkpoint_dir is None else str(checkpoint_dir)
        self.checkpoint_every = int(checkpoint_every)
        if trace is True:
            self.tracer: Tracer | None = Tracer()
        elif trace is False or trace is None:
            self.tracer = None
        else:
            self.tracer = trace
        wants_ckpt = self.checkpoint_dir is not None and self.checkpoint_every > 0
        self.fault_tolerant = (
            bool(fault_tolerant)
            if fault_tolerant is not None
            else (
                (fault_plan is not None and not fault_plan.is_trivial)
                or wants_ckpt
                or on_rank_failure == "respawn"
                or bool(membership_plan)
            )
        )
        if membership_plan and not self.fault_tolerant:
            raise MPIError(
                "membership_plan requires the fault-tolerant protocol"
                " (membership changes ride its control star);"
                " do not force fault_tolerant=False"
            )
        if on_rank_failure == "respawn" and not self.fault_tolerant:
            raise MPIError(
                "on_rank_failure='respawn' requires the fault-tolerant protocol"
                " (replacements rejoin through it); do not force fault_tolerant=False"
            )
        self._start = _StarOptions(
            heartbeat_timeout=self.heartbeat_timeout,
            checkpoint_dir=self.checkpoint_dir,
            checkpoint_every=self.checkpoint_every,
            membership_plan=self.membership_plan,
        )

    @classmethod
    def from_spec(cls, spec, **overrides) -> "ParallelSimulation":
        """Build a simulation from a declarative :class:`~repro.parallel.spec.RunSpec`.

        The spec supplies the config, world size, backend, chaos plan and
        degradation policy; keyword ``overrides`` win over the spec
        (``checkpoint_dir=``, ``trace=``, ...).  A spec-launched run is
        bit-identical to a hand-assembled one.
        """
        kwargs = spec.simulation_kwargs()
        kwargs.update(overrides)
        return cls(spec.config, spec.n_ranks, **kwargs)

    @classmethod
    def resume(
        cls,
        checkpoint: str | Path | ParallelCheckpoint,
        n_ranks: int,
        **kwargs,
    ) -> "ParallelSimulation":
        """Build a simulation that continues from a parallel checkpoint.

        ``checkpoint`` may be a checkpoint file, a directory (the latest
        ``ckpt_*.npz`` inside it is used), or an already-loaded
        :class:`~repro.io.checkpoints.ParallelCheckpoint`.  The resumed run
        replays the exact trajectory the uninterrupted run would have
        produced, at any rank count.  Keyword arguments are forwarded to the
        constructor (``eager_games``, ``fault_plan``, ``checkpoint_dir``...);
        a resumed run always takes the star channel, so ``fault_tolerant``
        is rejected.
        """
        if "fault_tolerant" in kwargs:
            raise MPIError(
                "a resumed run always uses the fault-tolerant protocol;"
                " drop fault_tolerant from the arguments"
            )
        if not isinstance(checkpoint, ParallelCheckpoint):
            path = Path(checkpoint)
            if path.is_dir():
                found = latest_valid_parallel_checkpoint(path)
                if found is None:
                    raise MPIError(f"no valid parallel checkpoints in {path}")
                path = found
            checkpoint = load_parallel_checkpoint(path)
        sim = cls(checkpoint.config, n_ranks, fault_tolerant=True, **kwargs)
        sim._start = replace(
            sim._start,
            start_generation=checkpoint.generation,
            start_matrix=checkpoint.matrix,
            start_nature_rng=checkpoint.nature_rng_state,
            start_counters=(
                checkpoint.n_pc_events,
                checkpoint.n_adoptions,
                checkpoint.n_mutations,
            ),
            start_failed=checkpoint.failed_ranks,
        )
        return sim

    def _finish_trace(self, spmd) -> None:
        """Fold the run's facts into the tracer's metrics registry."""
        if self.tracer is None:
            return
        metrics = self.tracer.metrics
        metrics.absorb_comm_counters(spmd.world.counters.snapshot())
        metrics.gauge("run.n_ranks").set(self.n_ranks)
        metrics.gauge("run.generations").set(self.config.generations)
        metrics.gauge("run.n_ssets").set(self.config.n_ssets)
        metrics.gauge("run.failed_ranks").set(len(spmd.world.failed_ranks))

    def run(self, timeout: float | None = 600.0) -> ParallelRunResult:
        """Execute the SPMD program and assemble the result."""
        injector = (
            FaultInjector(self.fault_plan)
            if self.fault_plan is not None and not self.fault_plan.is_trivial
            else None
        )
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.name_rank(0, "nature (rank 0)")
            for rank in range(1, self.n_ranks):
                self.tracer.name_rank(rank, f"worker (rank {rank})")
        spmd = run_spmd(
            self.n_ranks,
            _rank_program,
            args=(self.config, self.eager_games, self._start if self.fault_tolerant else None),
            timeout=timeout,
            fault_injector=injector,
            # The tree has no failure handling: any rank death aborts it.
            on_rank_failure=self.on_rank_failure if self.fault_tolerant else "abort",
            tracer=self.tracer,
            backend=self.backend,
            max_respawns=self.max_respawns,
            n_hosts=self.n_hosts,
            tcp_options=self.tcp_options,
        )
        self._finish_trace(spmd)
        nature_out = spmd.returns[0]
        if nature_out is None:
            raise MPIError("the Nature rank did not complete; no result to assemble")
        # The star's Nature collects every worker's games from its final
        # report; the tree leaves them in the workers' own returns.
        games_by_rank: dict[int, int] = nature_out.get("games_by_rank", {})
        # The world may have grown mid-run (membership_plan), so size the
        # per-rank accounting to the final world, not the starting one.
        final_ranks = max(self.n_ranks, len(spmd.returns))
        games = [0] * final_ranks
        for rank in range(1, final_ranks):
            if rank in games_by_rank:
                games[rank] = games_by_rank[rank]
            elif rank < len(spmd.returns) and isinstance(spmd.returns[rank], dict):
                games[rank] = spmd.returns[rank].get("games_played", 0)
        return ParallelRunResult(
            matrix=nature_out["matrix"],
            generation=self.config.generations,
            n_pc_events=nature_out["n_pc_events"],
            n_adoptions=nature_out["n_adoptions"],
            n_mutations=nature_out["n_mutations"],
            counters=spmd.world.counters.snapshot(),
            n_ranks=self.n_ranks,
            games_played_per_rank=tuple(games),
            failed_ranks=nature_out.get("failed_ranks", ()),
            degradations=nature_out.get("degradations", ()),
            recoveries=nature_out.get("recoveries", ()),
            fault_events=() if injector is None else injector.schedule(),
            checkpoints=nature_out["checkpoints"],
            respawns=spmd.respawns,
            membership=nature_out.get("membership", ()),
            trace=self.tracer,
        )
