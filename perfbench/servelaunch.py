"""Start ``repro-serve`` with the benchmark's layer wrappers installed.

Usage: ``python perfbench/servelaunch.py --totals-dir DIR serve ...``; every
argument after ``--totals-dir DIR`` goes to ``repro-serve``.  The wrappers
are installed before the server forks any worker, so workers inherit them.
Each worker records its job into a private tracer and writes the job's
per-span totals to ``DIR/<tenant>.<run_id>.<pid>.totals.json`` when the job
ends, and the first worker to finish also writes its spans as a Chrome
trace, ``DIR/trace.json``.  The server process writes its own totals (store
writes on admission and status changes) to ``DIR/server.<pid>.totals.json``
at exit.
"""

from __future__ import annotations

import atexit
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
from repro.obs import Tracer, write_chrome_trace  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--totals-dir":
        raise SystemExit("usage: servelaunch.py --totals-dir DIR serve [repro-serve options]")
    totals_dir = Path(argv[1])
    layers.install()

    import repro.service.worker as worker
    from repro.service.cli import main as serve

    timed_run_job = worker.run_job

    def run_job(store_root: str, tenant: str, run_id: str) -> int:
        tracer = Tracer()
        layers.capture_into(tracer)
        try:
            return timed_run_job(store_root, tenant, run_id)
        finally:
            layers.write_totals(
                totals_dir / f"{tenant}.{run_id}.{os.getpid()}.totals.json",
                layers.attribute(tracer.events()),
            )
            try:
                os.close(os.open(totals_dir / "trace.json", os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                write_chrome_trace(tracer, totals_dir / "trace.json")

    worker.run_job = run_job

    server_tracer = Tracer()
    layers.capture_into(server_tracer)
    pid = os.getpid()

    def write_server_totals() -> None:
        if os.getpid() == pid:
            layers.write_totals(
                totals_dir / f"server.{pid}.totals.json",
                layers.attribute(server_tracer.events()),
            )

    atexit.register(write_server_totals)
    return serve(argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
