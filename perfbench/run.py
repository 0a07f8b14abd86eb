"""The mvfuse benchmark: one workload per process, from a seed.

    python3 perfbench/run.py --workload combos-m7 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the engine is imported from ``src/``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run. The
line before it records the environment. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Relative and absolute tolerance for the reference outputs: sums reordered
# in float64 move them by about 1e-15 relative, a real change by far more.
RTOL, ATOL = 1e-9, 1e-12


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "revision": git_revision(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def engine_on_path() -> bool:
    """Pin BLAS/OpenMP to one thread and the process to one CPU, and put
    ``src/`` first on the import path.

    Must run before numpy is first imported. One CPU keeps each operation and
    the calibration around it on the same core. False when the checkout has
    no engine sources.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    src = ROOT / "src"
    if not (src / "mvfuse" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def check_reference(wl, work: Path, tally) -> None:
    """Compare the reference case with the values stored beside the benchmark."""
    from workloads import reference_values
    stored = json.loads((Path(__file__).parent / "reference.json").read_text())[wl.name]
    try:
        got = reference_values(wl, work)
    except Exception:
        traceback.print_exc()
        tally.record(["reference case raised"], "reference")
        return
    for key, want in stored.items():
        have = got.get(key)
        ok = have is not None and math.isclose(have, want, rel_tol=RTOL, abs_tol=ATOL)
        tally.record([] if ok else [f"{have!r} != reference {want!r}"], f"reference {key}")


def end_to_end(wl, args, work: Path, tally) -> dict:
    """Set-up time (median of SETUP_REPS), throughput per fusion kind and peak
    RSS. Times are scaled by the calibration slices around them."""
    from workloads import calibrated, make_ops, setup, timed_loop, write_manifest
    manifest = write_manifest(wl, args.seed, wl.n_samples, work / "run") if wl.manifest else None
    setups = []
    for _ in range(SETUP_REPS):
        case, timing = calibrated(lambda: setup(wl, args.seed, wl.n_samples, manifest))
        setups.append(timing)
    ops = make_ops(case)
    times = timed_loop(ops, args.seconds, tally)
    metrics = {"setup_s": (statistics.median(t.scaled_s for t in setups), "s")}
    raw = {"setup_s": statistics.median(t.wall_s for t in setups)}
    for op in ops:
        name = f"samples_per_s.{op.kind}"
        t = times[op.kind]
        metrics[name] = (op.samples / statistics.median(x.scaled_s for x in t) if t else 0.0,
                         "samples/s")
        raw[name] = op.samples / statistics.median(x.wall_s for x in t) if t else 0.0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics["peak_rss_mb"] = (rss, "MB")
    return metrics, raw


def main(argv=None) -> int:
    if not engine_on_path():
        print(f"error: engine sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Tally

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    tally = Tally()
    env = environment(args)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        work = Path(tmp)
        check_reference(wl, work, tally)
        if args.trace:
            import tracerun
            metrics = tracerun.per_layer(wl, args, work, tally, env, ROOT / ".perfbench-out")
        else:
            metrics, env["unscaled"] = end_to_end(wl, args, work, tally)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
