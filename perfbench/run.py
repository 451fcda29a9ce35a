"""Benchmark of the powersum library: one command, three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 40 --trace 0

Every pass runs in a fresh interpreter, the way a user of the library or its
command line meets it: the child imports ``powersum`` from ``src/``, builds
the workload's inputs, runs one pass and exits.  The parent starts children
one after another (a closed loop with one caller) until ``--seconds`` would
be exceeded, then prints one JSON line with the environment and the
deterministic results, and as the last line of standard output the metrics:

* ``--trace 0``: the end-to-end metrics, each a median over the passes.
  Pass times are scaled to a reference CPU speed by yardstick loops read
  between the operations of each pass (see ``workloads.Yardstick``), set-up
  times by the start-up of a bare interpreter; the raw times are in the info
  line.
* ``--trace 1``: the per-layer metrics.  Children alternate between a traced
  and an untraced pass, so the run also reports its own tracing overhead.

Exits with code 2, printing no result, when the tree holds no ``src/powersum``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The keys of workloads.PASSES and workloads.SIZES, repeated here so that the
# parent never imports powersum.
WORKLOADS = ("decide", "census", "optimize")
SIZES = ("full", "tiny")

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_ref_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_ok_frac": ("fraction", "higher"),
    "useful": ("count", "higher"),
    "useful_per_s": ("1/s", "higher"),
}

MIN_PASSES = 3
# Start-up of a bare interpreter that imports numpy, on the reference box.
BARE_START_REF_S = 0.25
DEADLINE_S = 170.0  # the whole run, children included, stays under 180 s


def git_commit() -> str:
    """The commit of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pass_seed(seed: int, index: int) -> int:
    """Seed of the index-th pass of a run: optimize varies its restarts from
    pass to pass, so a run's median does not rest on one draw."""
    return seed * 1000 + index


def child_main(workload: str, seed: int, size: str, traced: bool) -> int:
    """Run one pass and print its figures as a JSON line."""
    import resource

    import numpy

    import workloads
    import tracing

    sizes = workloads.SIZES[size]
    ready = time.monotonic()  # CLOCK_MONOTONIC is shared by all processes
    spans = None
    if traced:
        with tracing.Tracer() as tracer:
            tally, detail = workloads.run_pass(workload, sizes, seed)
        spans, missing = tracer.spans, tracer.missing
    else:
        tally, detail = workloads.run_pass(workload, sizes, seed)
    try:
        from powersum import _search
        backend = _search.BACKEND
    except (ImportError, AttributeError):
        backend = "absent"
    record = {
        "ready": ready,
        "wall_s": tally.busy_s,
        "ref_s": tally.ref_s,
        "yardstick_s": tally.readings_s,
        "yardstick_ref_s": tally.yardstick.ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "useful": tally.useful,
        "errors": tally.errors[:10],
        "detail": detail,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "cpu_count": os.cpu_count(), "search_backend": backend},
    }
    if spans is not None:
        record["layers"] = tracing.layer_metrics(spans, tally.busy_s)
        record["env"]["missing_boundaries"] = missing
    print(json.dumps(record))
    return 0


def run_child(workload: str, seed: int, size: str, traced: bool,
              timeout: float) -> dict:
    """Run one pass in a fresh interpreter; `seed` is the pass seed.

    Just before, a bare interpreter that only imports numpy is timed.  Most of
    set-up is that same start-up, so the ratio cancels the box's drift in
    process start and import speed.
    """
    started = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT,
                   check=True, capture_output=True, timeout=timeout)
    bare_s = time.monotonic() - started
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(seed), "--size", size,
           "--trace", "1" if traced else "0"]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"pass failed with code {proc.returncode}:\n{proc.stderr}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record.pop("ready") - spawned
    record["bare_start_s"] = bare_s
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> tuple[dict, dict]:
    """Run passes for about `seconds`; return (result line, info line)."""
    start = time.monotonic()
    records = []
    while True:
        elapsed = time.monotonic() - start
        # A traced run repeats pass 0, so its counts are exact and its
        # traced and untraced passes do the same work.
        traced = trace and len(records) % 2 == 0
        index = 0 if trace else len(records)
        records.append(run_child(workload, pass_seed(seed, index), size, traced,
                                 timeout=max(1.0, DEADLINE_S - elapsed)))
        elapsed = time.monotonic() - start
        per_pass = elapsed / len(records)
        if elapsed + per_pass > DEADLINE_S:
            break
        if len(records) >= MIN_PASSES and elapsed + per_pass > seconds:
            break

    first = records[0]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if trace:
        traced_runs = [r for r in records if "layers" in r]
        plain_wall = statistics.median(r["ref_s"] for r in records if "layers" not in r)
        traced_wall = statistics.median(r["ref_s"] for r in traced_runs)
        import tracing
        values = tracing.median_metrics([r["layers"] for r in traced_runs])
        values["trace.wall_ref_s"] = traced_wall
        values["trace.untraced_wall_ref_s"] = plain_wall
        values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        wall_ref = statistics.median(r["ref_s"] for r in records)
        useful = statistics.median(r["useful"] for r in records)
        setup = statistics.median(
            r["setup_s"] * BARE_START_REF_S / r["bare_start_s"] for r in records)
        values = {
            "setup_s": setup,
            "wall_ref_s": wall_ref,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
            "ops_ok_frac": (attempted - failed) / attempted,
            "useful": useful,
            "useful_per_s": useful / wall_ref,
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    info = {"env": dict(first["env"], commit=git_commit(), seed=seed,
                        workload=workload, size=size, passes=len(records),
                        traced_passes=sum("layers" in r for r in records)),
            "detail": first["detail"],
            "samples": {"setup_s": [r["setup_s"] for r in records],
                        "bare_start_s": [r["bare_start_s"] for r in records],
                        "wall_s": [r["wall_s"] for r in records],
                        "ref_s": [r["ref_s"] for r in records],
                        "yardstick_s": [statistics.median(r["yardstick_s"]) for r in records]},
            "errors": [e for r in records for e in r["errors"]][:10]}
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny: the benchmark's own tests")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "powersum" / "__init__.py").is_file():
        print(f"no powersum sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args.workload, args.seed, args.size, bool(args.trace))
    result, info = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.size)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
