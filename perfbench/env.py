"""Process set-up shared by the benchmark's entry points.

Nothing here imports numpy at module level: `pin_threads` must run before
the first numpy import for the BLAS thread pins to take effect.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# numpy's OpenBLAS is built with MAX_THREADS=64; the benchmark machine has
# 2 cores, and a thread pool that size makes small dense products noisy.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_threads() -> None:
    os.environ.update(THREAD_ENV)


def use_checkout_source() -> None:
    """Import mpdec from this checkout's `src/`, or exit with status 2.

    The benchmark measures the tree it sits in, never an installed copy.
    """
    if not (SRC / "mpdec" / "__init__.py").is_file():
        print(f"perfbench: no mpdec package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    # an exported tree has no .git; git would then report an enclosing repo
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _openblas_version(np) -> str | None:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"].get("version")
    except (KeyError, TypeError, ValueError):
        return None


def environment_record() -> dict:
    import numpy as np
    import mpdec

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(np),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": _git_commit(),
        "mpdec_file": str(Path(mpdec.__file__).resolve().relative_to(ROOT)),
    }
