#!/usr/bin/env python3
"""tailormon benchmark: one workload per run, end-to-end or traced.

Run from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same workload with a span around every layer
boundary and reports the per-layer metrics instead. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable table and the run's stamp. Exits 1 when a correctness check
fails and 2 when the checkout has no tailormon sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

# One thread everywhere: pinned before numpy loads its BLAS.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ["TAILORMON_THREADS"] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# (name, unit, better) of the end-to-end metrics; every workload reports all of them
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_per_ref", "ops/ref", "higher"),
)


def git_commit(root: str) -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fobj:
            head = fobj.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fobj:
                return fobj.read().strip()
        with open(os.path.join(git, "packed-refs")) as fobj:
            for line in fobj:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def stamp(args, tm, kernel) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "using_compiled": bool(tm.USING_COMPILED),
        "compiled_kernel_imports": kernel.scan_step_compiled is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(ROOT),
        "tailormon": os.path.relpath(tm.__file__, ROOT),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("stream", "calibrate", "grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tailormon", "__init__.py")):
        print(f"no tailormon sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tailormon as tm
    from tailormon import _kernel

    if not os.path.abspath(tm.__file__).startswith(SRC + os.sep):
        print(f"imported tailormon from {tm.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import spans
    from measure import median
    from workloads import WORKLOADS, Context

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=tag + "-", dir=OUT_DIR)
    recorder = spans.SpanRecorder(f"{tag}-{os.getpid()}-{int(time.time())}") if args.trace else None
    ctx = Context(args.seed, args.seconds, workdir, recorder)
    try:
        if recorder is None:
            result = WORKLOADS[args.workload](ctx)
        else:
            with spans.Tracer(recorder):
                result = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = ctx.tally
    rates, refs = result["meter"].rates, result["meter"].refs
    # each pass's rate times the mean reference-loop duration around it
    per_ref = [rate * ref for rate, ref in zip(rates, refs)]
    if recorder is None:
        metrics = {
            "setup_s": median(result["setup_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_per_ref": median(per_ref),
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        metrics = spans.layer_metrics(recorder, spans.span_cost_s())
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        recorder.write(os.path.join(OUT_DIR, f"spans-{tag}.csv.gz"))

    report = dict(result["report"])
    report["setup_s"] = (median(result["setup_s"]), "s", f"median of {len(result['setup_s'])} set-ups")
    report["ops_per_s"] = (median(rates), "1/s", f"median of {len(rates)} passes")
    report["ops_per_ref"] = (median(per_ref), "ops/ref", f"median of {len(rates)} passes")
    report["ref_loop_ms"] = (median(refs) * 1e3, "ms", f"median over {len(refs)} passes")
    report["failed_frac"] = (tally.failed / max(tally.attempted, 1), "share", f"{tally.failed} of {tally.attempted} operations")
    record = {
        "stamp": stamp(args, tm, _kernel),
        "report": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in report.items()},
        "problems": tally.problems,
        "passes": [
            {"seconds": t, "rate": r, "reference_s": samples}
            for t, r, samples in zip(result["meter"].seconds, rates, result["meter"].samples)
        ],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"record-{tag}.json"), "w") as fobj:
        json.dump(record, fobj, indent=2, sort_keys=True)

    print(f"# {tag}  kernel={'compiled' if tm.USING_COMPILED else 'numpy'}")
    for name, (value, unit, samples) in report.items():
        print(f"  {name:<16} {value:>14.6g} {unit:<6} {samples}")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({"stamp": record["stamp"]}, sort_keys=True))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
