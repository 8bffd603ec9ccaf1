"""Machine, software and thread metadata recorded with every result."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: Path) -> dict:
    """Mount point and type of the filesystem holding `path` (longest mount prefix)."""
    path = str(path.resolve())
    best, best_len = {"mount_point": "unknown", "type": "unknown"}, -1
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= best_len:
                    best, best_len = {"mount_point": mount, "type": fields[2]}, len(mount)
    except OSError:
        pass
    return best


def _git_commit(root: Path) -> str:
    # the ceiling keeps git from reading a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def _blas(module) -> dict:
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError, AttributeError) as exc:
        return {"error": f"show_config unavailable: {exc}"}
    blas = deps.get("blas", {})
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threading": blas.get("openblas configuration", "not reported"),
        "lapack": deps.get("lapack", {}).get("name"),
    }


def metadata(root: Path, output_tree: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "thread_env": {name: os.environ.get(name, "unset") for name in THREAD_VARIABLES},
        "threads_flag": "not passed (snwell default: os.cpu_count() workers)",
        "output_tree_filesystem": _filesystem(output_tree),
        "git_commit": _git_commit(root),
    }
