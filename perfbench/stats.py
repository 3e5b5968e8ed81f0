"""Summary statistics and provenance for benchmark results."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def tail_rank(n: int) -> int | None:
    """1-based order statistic of the tail for ``n`` samples, or ``None``.

    The tail is the highest percentile with at least :data:`TAIL_BEYOND`
    samples beyond it: of ``n`` sorted samples, the ``n - 10``-th.  Fewer
    than eleven samples leave no such percentile.
    """
    k = n - TAIL_BEYOND
    return k if k >= 1 else None


def tail(samples) -> tuple[float, float]:
    """``(value, percentile)`` of the tail of ``samples`` (see :func:`tail_rank`)."""
    xs = sorted(samples)
    k = tail_rank(len(xs))
    if k is None:
        raise ValueError(f"{len(xs)} samples leave no percentile with {TAIL_BEYOND} beyond it")
    return xs[k - 1], 100.0 * k / len(xs)


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "--no-optional-locks", "-C", str(root), *args],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root: Path) -> dict:
    """Machine, toolchain and commit the benchmark ran on."""
    import numpy
    import scipy

    toplevel = _git(root, "rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and Path(toplevel).resolve() == root.resolve()
    sha = _git(root, "rev-parse", "HEAD") if in_repo else None
    dirty = None
    if sha is not None:
        status = _git(root, "status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
    }
