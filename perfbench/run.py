#!/usr/bin/env python3
"""Repository benchmark: FPDT long-sequence training, wide Ulysses
training and closed-loop serving.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train_fpdt_long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a run in which every other
step is traced, and writes its spans to ``.perfbench_out/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it carry
units, sample counts, digests and host facts.  ``--workload all`` runs
each workload in its own interpreter, one after another.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_fpdt_long", "train_ulysses_wide", "serve_closed_16")
#: Settings the benchmark clears so the program picks its default
#: executor and BLAS threading.
CLEARED_ENV = ("REPRO_EXECUTOR", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: toy shapes for the benchmark's own tests")
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=30,
            # Never report the commit of a repository around the checkout.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def blas_threads() -> int | None:
    """Threads of the BLAS the executor clamps: the getter next to each
    setter ``repro.runtime.executor`` finds, in the same library."""
    import ctypes

    from repro.runtime.executor import _find_blas_setters

    class DlInfo(ctypes.Structure):
        _fields_ = [("fname", ctypes.c_char_p), ("fbase", ctypes.c_void_p),
                    ("sname", ctypes.c_char_p), ("saddr", ctypes.c_void_p)]

    dladdr = getattr(ctypes.CDLL(None), "dladdr", None)
    for setter in _find_blas_setters() if dladdr else []:
        info = DlInfo()
        if not dladdr(ctypes.cast(setter, ctypes.c_void_p), ctypes.byref(info)):
            continue
        lib = ctypes.CDLL(info.fname.decode())
        getter = getattr(lib, setter.__name__.replace("_set_", "_get_"), None)
        if getter is not None:
            return int(getter())
    return None


def host_facts(cleared: dict) -> dict:
    import numpy

    from repro.runtime.executor import executor_stats

    ex = executor_stats()
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "executor_backend": ex["backend"],
        "executor_workers": ex["workers"] if ex["parallel"] else 1,
        "blas_threads": blas_threads(),
        "cleared_env": cleared,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def run_all(args) -> int:
    """Each workload in a fresh interpreter: the executor, its BLAS
    clamp, the einsum path cache and the arenas are process-wide."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cleared = {k: os.environ.pop(k) for k in CLEARED_ENV if k in os.environ}
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        # Measure this checkout's code, never an installed copy.
        print(f"perfbench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    result = workloads.run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), args.size)
    metrics = result.layer_metrics if args.trace else result.metrics
    for name, (value, unit) in metrics.items():
        print(f"{name:<40s} {value:>16.6g} {unit}")
    error_rate = result.failed / max(result.attempted, 1)
    print(f"{'error_rate':<40s} {error_rate:>16.6g} ratio")
    for name, value in result.facts.items():
        print(f"# {name}: {value}")
    for error in result.errors[:20]:
        print(f"# error: {error}")
    print("# host: " + json.dumps(host_facts(cleared)))
    if result.spans:
        from repro.obs.span import atomic_write_json

        path = os.path.join(os.getcwd(), ".perfbench_out",
                            f"spans-{args.workload}-seed{args.seed}.json")
        atomic_write_json(path, {"record": "spans", "spans": result.spans})
        print(f"# spans: {len(result.spans)} written to {path}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
