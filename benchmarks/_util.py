"""Shared helpers for the benchmark suite.

Every bench regenerates one of the paper's tables/figures and *emits* the
rendered rows: printed (visible with ``pytest -s``) and written to
``benchmarks/output/<experiment>.txt`` so a plain
``pytest benchmarks/ --benchmark-only`` run leaves the full set of
reproduced artefacts on disk next to the timing numbers.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.analysis.figures import write_series_csv

OUTPUT_DIR = Path(__file__).resolve().parent / "output"
REPO_ROOT = Path(__file__).resolve().parent.parent


def env_block() -> dict:
    """The machine, toolchain and commit a BENCH file was measured on."""
    toplevel = _git("rev-parse", "--show-toplevel")
    # A copy of the repo inside some other checkout has no sha of its own.
    in_repo = toplevel is not None and Path(toplevel).resolve() == REPO_ROOT
    sha = _git("rev-parse", "HEAD") if in_repo else None
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_sha": sha,
        # Uncommitted edits to tracked files: the numbers are not the sha's.
        "git_dirty": None if sha is None or status is None else bool(status),
    }


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(REPO_ROOT), *args],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def emit(experiment_id: str, text: str) -> None:
    """Print a reproduced artefact and persist it under benchmarks/output/."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{experiment_id}.txt").write_text(text + "\n")
    print(f"\n=== {experiment_id} ===\n{text}\n")


def emit_csv(
    experiment_id: str, header: Sequence[str], rows: Sequence[Sequence[object]]
) -> None:
    """Persist a figure's underlying series as benchmarks/output/<id>.csv."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    write_series_csv(OUTPUT_DIR / f"{experiment_id}.csv", header, rows)
