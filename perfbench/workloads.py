"""The four workloads: what they run, how each run is checked, how it is timed.

Every workload draws its simulation seeds from the benchmark seed and runs
whole passes over those configurations, so the work measured depends only
on the seed.  A run's latency is the time from when it was due to when its
result was back: for the three simulation workloads runs go back to back
(a closed loop with one client), for the service a generator submits on a
fixed schedule (an open loop).
"""

from __future__ import annotations

import math
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.config import SimulationConfig
from repro.obs.tracer import Tracer, activate
from repro.parallel import ParallelSimulation, RunSpec
from repro.population.dynamics import EvolutionDriver

import layers

#: Generous per-run deadline; a run that misses it counts as failed.
RUN_TIMEOUT_S = 120.0

#: Every workload makes at least this many runs, so that its latency tail
#: (ten runs beyond it) lies at or above the median.
MIN_RUNS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "serial" | "parallel" | "service"
    memory: int
    n_ssets: int
    generations: int
    pc_rate: float
    #: Distinct configurations (seeds) per pass; 0 for the service, which
    #: draws one fresh configuration per submission.
    n_configs: int
    eager: bool = False
    n_ranks: int = 3
    #: Service only: submissions per second of the open-loop generator.
    rate: float = 0.0

    def params(self) -> dict:
        out = {
            "kind": self.kind,
            "memory": self.memory,
            "n_ssets": self.n_ssets,
            "generations": self.generations,
            "pc_rate": self.pc_rate,
            "n_configs": self.n_configs,
        }
        if self.kind == "parallel":
            out.update(backend="process", n_ranks=self.n_ranks, eager_games=self.eager,
                       protocol="collective-tree")
        if self.kind == "service":
            out.update(backend="thread", n_ranks=2, protocol="fault-tolerant star",
                       checkpoint_every=SERVICE_CHECKPOINT_EVERY, max_workers=2,
                       tenants=list(SERVICE_TENANTS), rate_per_s=self.rate)
        return out

    def configs(self, seed: int, count: int | None = None) -> list[SimulationConfig]:
        """The workload's simulation configs for benchmark seed ``seed``."""
        n = self.n_configs if count is None else count
        index = [w.name for w in WORKLOADS].index(self.name)
        seeds = np.random.SeedSequence([seed, index]).generate_state(n, dtype=np.uint32)
        return [
            SimulationConfig(
                memory=self.memory,
                n_ssets=self.n_ssets,
                generations=self.generations,
                pc_rate=self.pc_rate,
                seed=int(s),
            )
            for s in seeds
        ]


SERVICE_TENANTS = ("tenant-a", "tenant-b")
SERVICE_CHECKPOINT_EVERY = 50

WORKLOADS = (
    Workload(
        "serial-m3",
        "single-process EvolutionDriver on memory-3 at the paper's PC rate: the"
        " kernel-bound baseline",
        "serial", memory=3, n_ssets=64, generations=500, pc_rate=0.1, n_configs=16,
    ),
    Workload(
        "eager-m6",
        "every game every generation on memory-6 over 3 process ranks: the"
        " multi-word kernel in parallel",
        "parallel", memory=6, n_ssets=64, generations=3, pc_rate=0.1, n_configs=8,
        eager=True,
    ),
    Workload(
        "scaling-lazy",
        "the paper's scaling setup (PC rate 0.01, lazy fitness) over 3 process"
        " ranks: communication-bound",
        "parallel", memory=3, n_ssets=64, generations=2000, pc_rate=0.01, n_configs=8,
    ),
    Workload(
        "service",
        "open-loop submits to repro-serve from two tenants: queueing, worker"
        " spawn, checkpoint IO, reliable star",
        "service", memory=3, n_ssets=32, generations=300, pc_rate=0.1, n_configs=0,
        rate=1.1,
    ),
)


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(name)


# -- outcomes ---------------------------------------------------------------------


@dataclass
class RunRecord:
    """One attempted run: its latency and whether its output checked out."""

    config_index: int
    latency_s: float
    generations: int
    error: str | None = None
    traced: bool = False
    #: Point-to-point messages and bytes the run put on the network.
    messages: int = 0
    bytes: int = 0
    shm: dict = field(default_factory=dict)


def compare_matrix(reference: np.ndarray, got) -> str | None:
    """``None`` when ``got`` is bit-identical to ``reference``, else why not."""
    got = np.asarray(got)
    if got.dtype != reference.dtype or got.shape != reference.shape:
        return f"matrix {got.dtype}{got.shape} != reference {reference.dtype}{reference.shape}"
    if not np.array_equal(got, reference):
        bad = int(np.count_nonzero(got != reference))
        return f"matrix differs from the reference in {bad} entries"
    return None


def reference_matrices(configs, engine: str = "auto") -> list[np.ndarray]:
    """Final matrices of the serial reference runs (untimed)."""
    return [
        EvolutionDriver(cfg.with_updates(engine=engine)).run().population.matrix()
        for cfg in configs
    ]


def check_parallel(w: Workload, cfg: SimulationConfig, ref: np.ndarray, result,
                   first_messages: dict, index: int) -> str | None:
    """All checks on one parallel run; ``first_messages`` pins message counts."""
    err = compare_matrix(ref, result.matrix)
    if err:
        return err
    if w.eager:
        expected = cfg.generations * cfg.n_ssets * (cfg.n_ssets - 1)
        if sum(result.games_played_per_rank) != expected:
            return f"games played {sum(result.games_played_per_rank)} != {expected}"
    messages = result.counters["send"].messages if "send" in result.counters else 0
    if first_messages.setdefault(index, messages) != messages:
        return f"messages {messages} != {first_messages[index]} on an earlier run of this config"
    return None


# -- simulation workloads --------------------------------------------------------------


class SimulationBench:
    """Runs one serial or parallel workload's passes and checks each run."""

    def __init__(self, w: Workload, seed: int) -> None:
        self.w = w
        self.configs = w.configs(seed)
        engine = "vector" if w.kind == "serial" else "auto"
        self.references = reference_matrices(self.configs, engine=engine)
        self.first_messages: dict[int, int] = {}

    def setup_seconds(self, repeats: int) -> list[float]:
        """Set-up time samples, after one warm-up: driver construction for the
        serial workload, a zero-generation run for the parallel ones."""
        cfg = self.configs[0]
        samples = []
        for i in range(repeats + 1):
            t0 = time.perf_counter()
            if self.w.kind == "serial":
                EvolutionDriver(cfg)
            else:
                self._simulation(cfg.with_updates(generations=0), False).run(RUN_TIMEOUT_S)
            if i:
                samples.append(time.perf_counter() - t0)
        return samples

    def _simulation(self, cfg: SimulationConfig, trace) -> ParallelSimulation:
        return ParallelSimulation(
            cfg, self.w.n_ranks, eager_games=self.w.eager, backend="process", trace=trace
        )

    def run_one(self, index: int, tracer: Tracer | None = None):
        """Run config ``index`` once; returns ``(RunRecord, result or None)``."""
        cfg = self.configs[index]
        record = RunRecord(index, 0.0, cfg.generations, traced=tracer is not None)
        result = None
        try:
            if self.w.kind == "serial":
                t0 = time.perf_counter()
                driver = EvolutionDriver(cfg)
                if tracer is None:
                    driver.run()
                else:
                    with activate(tracer), tracer.span(layers.SERIAL_RUN_SPAN,
                                                       cat=layers.SPAN_CAT):
                        driver.run()
                record.latency_s = time.perf_counter() - t0
                result = driver
                record.error = compare_matrix(
                    self.references[index], driver.population.matrix()
                )
            else:
                t0 = time.perf_counter()
                result = self._simulation(cfg, tracer if tracer is not None else False).run(
                    RUN_TIMEOUT_S
                )
                record.latency_s = time.perf_counter() - t0
                counters = result.counters
                send = counters.get("send")
                record.messages = send.messages if send else 0
                record.bytes = send.bytes if send else 0
                record.shm = {
                    op: (c.calls, c.bytes) for op, c in counters.items() if op.startswith("shm.")
                }
                record.error = check_parallel(
                    self.w, cfg, self.references[index], result, self.first_messages, index
                )
        except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
            record.error = f"{type(exc).__name__}: {exc}"
        return record, result


# -- the service workload ------------------------------------------------------------------


def service_spec(cfg: SimulationConfig) -> RunSpec:
    return RunSpec(
        config=cfg, n_ranks=2, backend="thread", checkpoint_every=SERVICE_CHECKPOINT_EVERY
    )


class ServerProcess:
    """One ``repro-serve serve`` subprocess on an ephemeral port."""

    def __init__(self, root: Path, workdir: Path, env: dict, launcher: list[str]) -> None:
        self.root = root
        self.log = workdir / f"{root.name}.log"
        cmd = launcher + [
            "serve", "--root", str(root), "--port", "0", "--max-workers", "2",
            "--quota", "1000", "--drain-grace", "10",
        ]
        self.t0 = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                start_new_session=True,
            )
        self.url: str | None = None

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Seconds from launch until ``/v1/readyz`` reports ready."""
        from repro.service.client import ServiceClient

        deadline = self.t0 + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early: {self.log.read_text()[-2000:]}")
            if self.url is None:
                for line in self.log.read_text(errors="replace").splitlines():
                    if line.startswith("serving run store") and " on http" in line:
                        self.url = line.rsplit(" on ", 1)[1].strip()
            if self.url is not None and ServiceClient(self.url, timeout=5).ready():
                return time.perf_counter() - self.t0
            time.sleep(0.005)
        raise RuntimeError("server did not become ready in time")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL the whole process group."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


class ServiceBench:
    """Open-loop submissions to a run server, checked against serial references."""

    def __init__(self, w: Workload, root: Path, workdir: Path) -> None:
        self.w = w
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        self.servers = 0

    def count(self, seconds: float) -> int:
        """Submissions in a window: ``seconds`` at the workload's rate."""
        return max(MIN_RUNS, math.ceil(self.w.rate * seconds))

    def launch(self, traced: bool) -> ServerProcess:
        self.servers += 1
        store = self.workdir / f"store{self.servers}"
        shutil.rmtree(store, ignore_errors=True)
        if traced:
            totals = self.workdir / f"totals{self.servers}"
            totals.mkdir(parents=True, exist_ok=True)
            launcher = [sys.executable, str(self.root / "perfbench" / "servelaunch.py"),
                        "--totals-dir", str(totals)]
        else:
            launcher = [sys.executable, "-m", "repro.service.cli"]
        return ServerProcess(store, self.workdir, self.env, launcher)

    def setup_seconds(self, repeats: int) -> list[float]:
        """Launch-to-ready times of ``repeats`` throw-away servers."""
        samples = []
        for _ in range(repeats):
            server = self.launch(traced=False)
            try:
                samples.append(server.wait_ready())
            finally:
                server.stop()
                shutil.rmtree(server.root, ignore_errors=True)
        return samples

    def run_window(self, configs, references, server: ServerProcess, tag: str):
        """Submit every config on the open-loop schedule; returns records and timings."""
        from repro.service.client import ServiceClient
        from repro.service.journal import replay_journal

        client = ServiceClient(server.url, timeout=30)
        keys = []
        submit_s, late_s, due_wall = [], [], []
        interval = 1.0 / self.w.rate
        start_perf = time.perf_counter()
        start_wall = time.time()
        for i, cfg in enumerate(configs):
            due = start_perf + i * interval
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            late_s.append(max(0.0, time.perf_counter() - due))
            tenant = SERVICE_TENANTS[i % len(SERVICE_TENANTS)]
            run_id = f"{tag}-{i}"
            t0 = time.perf_counter()
            error = None
            try:
                client.submit(tenant, run_id, spec=service_spec(cfg))
            except Exception as exc:  # noqa: BLE001 - a refused submit is a failed run
                error = f"submit: {type(exc).__name__}: {exc}"
            submit_s.append(time.perf_counter() - t0)
            keys.append((tenant, run_id, error))
            due_wall.append(start_wall + i * interval)

        pending = {(t, r) for t, r, e in keys if e is None}
        journal: dict = {}
        deadline = time.perf_counter() + RUN_TIMEOUT_S
        while pending and time.perf_counter() < deadline:
            time.sleep(0.02)
            journal = {}
            for rec in replay_journal(server.root):
                journal.setdefault((rec.get("tenant"), rec.get("run_id")), []).append(rec)
            pending = {k for k in pending
                       if not any(r["type"] == "terminal" for r in journal.get(k, ()))}

        records, fetch_s, phases = [], [], []
        for i, (tenant, run_id, error) in enumerate(keys):
            record = RunRecord(i, 0.0, configs[i].generations, error=error)
            recs = journal.get((tenant, run_id), [])
            terminal = next((r for r in recs if r["type"] == "terminal"), None)
            if error is None and terminal is None:
                record.error = "no terminal record before the deadline"
            elif error is None:
                record.latency_s = terminal["time"] - due_wall[i]
                if terminal.get("state") != "done":
                    record.error = f"run ended {terminal.get('state')}: {terminal.get('error')}"
                else:
                    t0 = time.perf_counter()
                    try:
                        fetched = client.result(tenant, run_id)
                        record.error = compare_matrix(references[i], fetched.matrix)
                    except Exception as exc:  # noqa: BLE001
                        record.error = f"result: {type(exc).__name__}: {exc}"
                    fetch_s.append(time.perf_counter() - t0)
                    phases.append(self._phases(server.root, tenant, run_id, recs))
            records.append(record)
        return records, {"submit_s": submit_s, "late_s": late_s, "fetch_s": fetch_s,
                         "phases": phases}

    @staticmethod
    def _phases(store_root: Path, tenant: str, run_id: str, journal_recs) -> dict:
        """Queue wait, spawn, worker run and reap from the store's own timestamps."""
        from repro.obs.stream import read_events

        events = read_events(store_root / tenant / run_id / "events.jsonl")
        first = {}
        for rec in journal_recs:
            first.setdefault(rec["type"], rec["time"])
        for ev in events:
            first.setdefault(ev.get("type"), ev.get("time"))
        out = {"events_lines": len(events)}
        spans = {
            "queue_wait_s": ("submitted", "dispatched"),
            "spawn_s": ("dispatched", "worker-started"),
            "worker_run_s": ("worker-started", "done"),
            "reap_s": ("done", "terminal"),
        }
        for name, (a, b) in spans.items():
            if first.get(a) is not None and first.get(b) is not None:
                out[name] = first[b] - first[a]
        return out
