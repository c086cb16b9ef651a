"""Benchmark of the obrechkoff package: one workload, one JSON result line.

    python3 perfbench/run.py --workload duffing-50d --seed 1 --seconds 40 --trace 0

Run from the root of a source tree; the package is imported from ``src/``
of the tree that holds this file.  The workload repeats timed passes for
about ``--seconds``, checks the outputs of every pass and prints, as
the last line of standard output,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer ones, plus ``trace.overhead`` (traced over untraced wall time,
minus 1).  The line before the result holds the run's metadata.  Results,
and in a traced run every span, are written under ``.perfbench-out/``.

``--setup-only`` times import plus set-up in this process and prints it; the
benchmark starts itself that way a few times to take the median set-up time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 5          # this process plus four fresh ones

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "points_per_s": "1/s",
    "err_digits_min": "digits", "coeff_digits_min": "digits",
    "success_ratio": "ratio", "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def git_sha():
    """HEAD of the tree's git repository, read from .git, or None outside one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def metadata(args, load_at_start):
    import mpmath
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "git_sha": git_sha(), "src_sha256": src_digest(),
        "python": platform.python_version(), "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
        "loadavg_at_start": load_at_start,
    }


def setup_probe(args):
    """Time one fresh import plus set-up in a child interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload, state, seconds, tracer):
    """Timed passes for about ``seconds``; returns (traced?, result) pairs.

    The last pass is started only if it is expected to end nearer to
    ``seconds`` than stopping now would, so a run's length does not grow
    with the machine's speed.  A traced run alternates untraced and traced
    passes in pairs, swapping which runs first from one pair to the next.
    """
    from tracing import reconciles, layer_metrics

    passes = []
    start = time.perf_counter()
    pair = 0
    while True:
        order = (False,) if tracer is None else ((False, True) if pair % 2 == 0 else (True, False))
        for traced in order:
            if traced:
                with tracer.run(pair):
                    outputs, wall = workload.run_pass(state)
            else:
                outputs, wall = workload.run_pass(state)
            res = workload.check(state, outputs, wall)
            if traced:
                res.layers, cells = layer_metrics(tracer, pair, res.periodicity_samples)
                for result, calls in cells:
                    res.gate(reconciles(result, calls),
                             f"closure calls do not reconcile: f6 {calls['problems.f6']} != "
                             f"iterations {result.total_iterations} + f7 "
                             f"{calls['problems.f7']} + 2")
            passes.append((traced, res))
        pair += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / pair / 2 >= seconds:
            return passes


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "obrechkoff" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'obrechkoff'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_at_start = os.getloadavg()[0]

    t0 = time.perf_counter()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    setup_s = time.perf_counter() - t0

    import obrechkoff
    if Path(obrechkoff.__file__).resolve().parent != (SRC / "obrechkoff").resolve():
        print(f"error: imported obrechkoff from {obrechkoff.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(repr(setup_s))
        return 0

    tracer = None
    setups = [setup_s]
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    else:
        setups += [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    passes = measure(workload, state, args.seconds, tracer)
    coeff_digits = workload.coeff_digits(state)

    plain = [r for traced, r in passes if not traced]
    traced = [r for t, r in passes if t]
    attempted = sum(r.attempted for _, r in passes)
    failed = sum(r.failed for _, r in passes)
    wall_s = statistics.median(r.wall_s for r in plain)
    err_digits = min(r.err_digits for r in plain)
    if args.trace:
        from tracing import LAYER_UNITS, median_metrics
        layers = median_metrics([r.layers for r in traced])
        layers["trace.overhead"] = statistics.median(r.wall_s for r in traced) / wall_s - 1
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        e2e = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "steps_per_s": statistics.median(r.steps for r in plain) / wall_s,
            "points_per_s": statistics.median(r.points for r in plain) / wall_s,
            "err_digits_min": err_digits if math.isfinite(err_digits) else 0.0,
            "coeff_digits_min": coeff_digits,
            "success_ratio": 1 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}

    meta = metadata(args, load_at_start)
    meta["passes"] = [{"traced": t, "wall_s": r.wall_s, "failures": r.failures}
                      for t, r in passes]
    meta["setup_samples_s"] = setups
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({**meta, "metrics": metrics}, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.tsv")
    for t, r in passes:
        for what in r.failures:
            print(f"FAILED: {what}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
