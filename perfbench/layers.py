"""Per-layer attribution from outside the program.

The benchmark never edits the package under test.  For a traced run it
wraps the public entry points of each layer, times every call into the
active :class:`repro.obs.Tracer`, and folds the spans into per-layer busy
and self times afterwards:

========================  =====================================================
span                      wrapped callable(s)
========================  =====================================================
``game.play``             ``BatchEngine.play``
``population.fitness``    ``FitnessEvaluator.fitness``
``population.nature``     ``NatureAgent.select_pc / decide_adoption / select_mutation``
``population.update``     ``Population.adopt / set_strategy``
``mpi.bcast`` ...         ``Comm.bcast / send / recv / allgather``
``io.checkpoint``         ``save_parallel_checkpoint`` (defining and importing module)
``io.store``              ``RunStore`` write methods
``service.worker_run``    ``repro.service.worker.run_job``
========================  =====================================================

Rank processes of the process backend are forked after :func:`install`, so
they inherit the wrappers; their tracer is the one the executor activates in
each rank process, whose spans are merged back into the run's tracer.  A
service worker records into a private tracer (:func:`capture_into`) because
the tracer active there is the worker's progress tap, which keeps nothing.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.tracer import Tracer, get_tracer

#: Category of every span the benchmark records (the program's own spans use
#: other categories and are ignored by the attribution below).
SPAN_CAT = "perfbench"

#: The program's own span of one generation on one rank; marks a parallel rank.
GENERATION_SPAN = "generation"

#: Root span the harness records around one serial ``EvolutionDriver.run``.
SERIAL_RUN_SPAN = "serial.run"

_capture: Tracer | None = None


def capture_into(tracer: Tracer | None) -> None:
    """Record wrapped calls into ``tracer`` instead of the active tracer."""
    global _capture
    _capture = tracer


def _sink() -> Tracer:
    return _capture if _capture is not None else get_tracer()


def _timed(name: str, fn, counts=None):
    """``fn`` wrapped to record one span named ``name`` per call.

    ``counts(args, kwargs, result, before)`` returns the span's ``args``;
    ``before`` is what ``counts`` returned when called with ``result=None``
    ahead of the call, for counters read as a delta.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sink = _sink()
        if not sink.enabled:
            return fn(*args, **kwargs)
        rank = get_tracer().current_rank()
        before = counts(args, kwargs, None, None) if counts is not None else None
        t0 = sink.now()
        result = fn(*args, **kwargs)
        dur = sink.now() - t0
        extra = counts(args, kwargs, result, before) if counts is not None else None
        sink.complete(name, cat=SPAN_CAT, ts=t0, dur=dur, rank=rank, args=extra)
        return result

    return wrapper


def _play_counts(args, kwargs, result, before):
    if result is None:
        return None
    engine, ia = args[0], args[2] if len(args) > 2 else kwargs["ia"]
    return {"games": len(ia), "game_rounds": len(ia) * int(engine.rounds)}


def _fitness_counts(args, kwargs, result, before):
    evaluator = args[0]
    now = (evaluator.pairs_computed, evaluator.pair_lookups)
    if result is None:
        return now
    return {"pairs_computed": now[0] - before[0], "pair_lookups": now[1] - before[1]}


def _checkpoint_counts(args, kwargs, result, before):
    if result is None:
        return None
    return {"bytes": os.path.getsize(result)}


def _targets():
    """``(owner, attribute, span name, counts)`` for every wrapped callable."""
    import repro.io.checkpoints as checkpoints
    import repro.parallel.runner as runner
    import repro.service.worker as worker
    from repro.game.batch_engine import BatchEngine
    from repro.io.runstore import RunStore
    from repro.mpi.comm import Comm
    from repro.population.fitness import FitnessEvaluator
    from repro.population.nature import NatureAgent
    from repro.population.population import Population

    out = [
        (BatchEngine, "play", "game.play", _play_counts),
        (FitnessEvaluator, "fitness", "population.fitness", _fitness_counts),
        (Population, "adopt", "population.update", None),
        (Population, "set_strategy", "population.update", None),
        (Comm, "bcast", "mpi.bcast", None),
        (Comm, "send", "mpi.send", None),
        (Comm, "recv", "mpi.recv", None),
        (Comm, "allgather", "mpi.allgather", None),
        (worker, "run_job", "service.worker_run", None),
    ]
    out += [
        (NatureAgent, attr, "population.nature", None)
        for attr in ("select_pc", "decide_adoption", "select_mutation")
    ]
    # runner binds save_parallel_checkpoint by name at import, so both
    # module attributes must be wrapped.
    out += [
        (module, "save_parallel_checkpoint", "io.checkpoint", _checkpoint_counts)
        for module in (checkpoints, runner)
    ]
    out += [
        (RunStore, attr, "io.store", None)
        for attr in ("create_run", "write_status", "write_outcome", "append_event", "save_result")
    ]
    return out


def install():
    """Wrap every layer entry point; returns a function that undoes it."""
    saved = []
    for owner, attr, name, counts in _targets():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _timed(name, original, counts))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


# -- attribution -----------------------------------------------------------------


@dataclass
class SpanTotals:
    """Calls, inclusive time, self time and summed counters of one span name."""

    calls: int = 0
    busy_us: float = 0.0
    self_us: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "busy_us": self.busy_us,
            "self_us": self.self_us,
            "counts": dict(self.counts),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanTotals":
        out = cls(data["calls"], data["busy_us"], data["self_us"])
        out.counts.update(data["counts"])
        return out


@dataclass
class RankTotals:
    """Attribution of one rank (or thread track) of a traced run."""

    spans: dict = field(default_factory=lambda: defaultdict(SpanTotals))
    #: Wall time of the rank's program (0 where the rank has no root).
    root_us: float = 0.0
    #: Part of ``root_us`` covered by the benchmark's top-level layer spans.
    attributed_us: float = 0.0


def attribute(events) -> dict[int, RankTotals]:
    """Fold trace events into per-rank span totals with self times.

    A span's self time is its duration minus the durations of the layer
    spans directly nested in it on the same rank.  A rank's wall time is
    the serial run span, or for a parallel rank (one with generation
    spans) the extent of everything it recorded, so that waits outside the
    generation loop, like the final gather, count too.
    """
    by_rank: dict[int, list] = defaultdict(list)
    extent: dict[int, list[float]] = {}
    generations: set[int] = set()
    serial: dict[int, float] = defaultdict(float)
    for ev in events:
        if ev.ph != "X":
            continue
        if ev.name == SERIAL_RUN_SPAN:
            serial[ev.rank] += ev.dur
            continue
        if ev.cat == SPAN_CAT:
            by_rank[ev.rank].append(ev)
        if ev.name == GENERATION_SPAN:
            generations.add(ev.rank)
        lo_hi = extent.setdefault(ev.rank, [ev.ts, ev.ts + ev.dur])
        lo_hi[0] = min(lo_hi[0], ev.ts)
        lo_hi[1] = max(lo_hi[1], ev.ts + ev.dur)
    out: dict[int, RankTotals] = {}
    for rank in set(by_rank) | generations | set(serial):
        totals = RankTotals()
        spans = sorted(by_rank.get(rank, ()), key=lambda e: (e.ts, -e.dur))
        stack: list[tuple[float, int]] = []
        child_us: dict[int, float] = defaultdict(float)
        for i, ev in enumerate(spans):
            while stack and stack[-1][0] <= ev.ts:
                stack.pop()
            if stack:
                child_us[stack[-1][1]] += ev.dur
            else:
                totals.attributed_us += ev.dur
            stack.append((ev.ts + ev.dur, i))
            st = totals.spans[ev.name]
            st.calls += 1
            st.busy_us += ev.dur
            for key, value in (ev.args or {}).items():
                if isinstance(value, (int, float)):
                    st.counts[key] += value
        for i, ev in enumerate(spans):
            totals.spans[ev.name].self_us += ev.dur - child_us[i]
        if rank in serial:
            totals.root_us = serial[rank]
        elif rank in generations:
            totals.root_us = extent[rank][1] - extent[rank][0]
        else:
            totals.attributed_us = 0.0
        out[rank] = totals
    return out


def write_totals(path: Path, ranks: dict[int, RankTotals]) -> None:
    """Save one process's attribution (a service worker's, at job end)."""
    data = {
        str(rank): {name: st.to_dict() for name, st in totals.spans.items()}
        for rank, totals in ranks.items()
    }
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data))
    os.replace(tmp, path)


def read_totals(path: Path) -> dict[int, RankTotals]:
    """The per-rank span totals saved by :func:`write_totals`."""
    out: dict[int, RankTotals] = {}
    for rank, spans in json.loads(path.read_text()).items():
        totals = out[int(rank)] = RankTotals()
        for name, data in spans.items():
            totals.spans[name] = SpanTotals.from_dict(data)
    return out


def add_totals(into: SpanTotals, other: SpanTotals) -> None:
    into.calls += other.calls
    into.busy_us += other.busy_us
    into.self_us += other.self_us
    for key, value in other.counts.items():
        into.counts[key] += value
