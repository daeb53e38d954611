"""Run one workload of the gradal benchmark and print its metrics.

    python3 bench/run.py --workload harness --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; it needs src/
and tests/golden/ next to bench/.  --trace 0 prints the end-to-end
metrics of BENCHMARK.json, --trace 1 its per-layer metrics.  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it lists every metric by name with
its unit, plus the failed share and the ids of overrunning operations.
See bench/README.md.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 12   # extra set-ups per untraced run; setup_s is the median of all
RUN_LIMIT_S = 170   # a run must exit within 180 s


def start_worker(args, setup_only, deadline):
    """Start a worker; return (process, seconds from start to "ready")."""
    cmd = [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), str(args.trace)] + (["--setup-only"] if setup_only else [])
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"worker exited during set-up (exit {proc.returncode})")
    return proc, setup


def finish(proc, deadline):
    """Wait for the worker within the run's time limit; return its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker ran past the time limit and was stopped")
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit {proc.returncode}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = perf_counter() + RUN_LIMIT_S

    for need in (ROOT / "src" / "gradal" / "__init__.py", ROOT / "tests" / "golden",
                 ROOT / "BENCHMARK.json"):
        if not need.exists():
            print(f"bench: {need.relative_to(ROOT)} is missing; run from a full "
                  "checkout of the repository", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # witness-z is defined but not in BENCHMARK.json (see README.md).
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    setups = []

    def probe_setups(n):
        for _ in range(n):
            proc, setup = start_worker(args, True, deadline)
            finish(proc, deadline)
            setups.append(setup)

    probes = 0 if args.trace else SETUP_PROBES
    try:
        # Half the probes before the timed run and half after, so the
        # median spans the run and not only the seconds before it.
        probe_setups(probes // 2)
        proc, setup = start_worker(args, False, deadline)
        setups.append(setup)
        result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
        probe_setups(probes - probes // 2)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    measured = dict(result["metrics"])
    if not args.trace:
        measured["setup_s"] = median(setups)
    names = {m["name"] for m in declared}
    if set(measured) != names:
        print(f"bench: metrics {sorted(set(measured) ^ names)} are measured but not "
              "declared in BENCHMARK.json, or declared but not measured", file=sys.stderr)
        return 1
    for err in result["errors"]:
        print(f"bench: {err}", file=sys.stderr)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}

    summary = [f"{args.workload} seed={args.seed} trace={args.trace} "
               f"passes={result['passes']} ops={result['attempted']}",
               f"fail_ratio={result['failed'] / result['attempted']:.4f}",
               f"overruns={','.join(result['overruns']) or '-'}"]
    summary += [f"{name}={m['value']:.6g}[{m['unit']}]" for name, m in metrics.items()]
    print(" ".join(summary))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
