"""One workload in its own process: set up, print "ready", then measure.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

run.py starts it and times the set-up, from process start to "ready".
The last line of stdout is a JSON object with the run's metrics.  The
loop is closed: one caller, the next operation starts when the last
one has returned, no extra threads.

TRACE 0 repeats the input set until SECONDS have passed and at least
MIN_OPS operations ran.  TRACE 1 alternates untraced and traced passes
over the same operations for the per-layer metrics; the difference
between the two is the tracing overhead.  Both take each operation's
best time over the passes (see `measure`).
"""

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 110           # op_p90_ms needs at least ten samples beyond it
LAST_PASS_START_S = 100  # a run must end within 180 s
MODULE_FILES = ("init", "abelian", "cli", "closure", "element", "errors",
                "harness", "intmat", "ringexpr")

# Functions each workload must call at least once, so the tracer's
# coverage is checked: a wrapper that is never reached is a tracing bug.
COVERAGE = {
    "harness": (
        "intmat.solve_rational", "intmat.solve_int", "intmat.hermite_columns",
        "intmat.smith_normal_form", "intmat.inverse_unimodular",
        "abelian.GroupHom.apply",
        "abelian.solve_in_subgroup", "abelian.hom_kernel",
        "abelian.subgroup_generated_by", "abelian.quotient_by",
        "abelian.is_in_torsionfree_summand", "element.Element.__mul__",
        "element.nzd_test", "element.homogeneous_unit_test",
        "closure.find_integral_equation", "closure.find_integral_equation_fraction",
        "closure.components_integral_check", "closure.lem50_iso",
        "closure.graded_euclidean_division", "ringexpr.normalize",
        "ringexpr.group_algebra", "ringexpr.coarsen", "ringexpr.classify",
    ),
    "witness-z": (
        "intmat.solve_int", "intmat.hermite_columns", "abelian.GroupHom.apply",
        "abelian.solve_in_subgroup", "element.Element.__mul__",
        "closure.find_integral_equation",
    ),
    "cli-cold": (
        "intmat.nullspace_rational", "ringexpr.normalize", "ringexpr.group_algebra",
        "ringexpr.coarsen", "ringexpr.classify",
    ),
}


def run_pass(wl, ops, run, tracer=None):
    """Run ops once; return latencies by op, error messages, overrun ops."""
    latency, errors, overruns = {}, [], []
    for op in ops:
        t0 = perf_counter()
        try:
            err = run(op)
        except Exception as exc:  # a raising operation is a failed one
            err = f"{op}: raised {type(exc).__name__}: {exc}"
        latency[op] = perf_counter() - t0
        if err == "overrun":
            overruns.append(op)
        elif err is not None:
            errors.append(err)
        if tracer is not None:
            # An overrun's spans stop wherever the deadline fell; drop them.
            tracer.discard() if err == "overrun" else tracer.commit()
    return latency, errors, overruns


def measure(wl, seconds):
    """Time passes over the input set; every figure uses each op's best.

    The machine's speed drifts by up to 1.7x over seconds to minutes, so
    one op's fastest run in this process is the steadiest estimate of its cost.
    An op that overran is not repeated: it would overrun again.
    """
    start = perf_counter()
    runs, errors, overruns = defaultdict(list), [], []
    ops, passes = list(wl.ops), 0
    while True:
        lat, errs, over = run_pass(wl, ops, wl.run_op)
        passes += 1
        for op, t in lat.items():
            runs[op].append(t)
        errors += errs
        overruns += over
        ops = [op for op in ops if op not in over]
        elapsed = perf_counter() - start
        done = sum(map(len, runs.values()))
        if elapsed >= LAST_PASS_START_S or (elapsed >= seconds and done >= MIN_OPS):
            break
    # wall_s counts an overrun at the time it ran; the percentiles are
    # over completed ops, so they measure gradal and not the deadline.
    best = {op: min(ts) for op, ts in runs.items()}
    completed = [op for op in runs if op not in overruns]
    bests = [best[op] for op in completed]
    # The 90th percentile needs ten samples beyond it: with fewer than
    # MIN_OPS distinct ops (cli-cold has 11) it is over every run of every op.
    tail = bests if len(bests) >= MIN_OPS else [t for op in completed for t in runs[op]]
    return {
        "attempted": done,
        "failed": len(errors),
        "errors": errors,
        "overruns": sorted(map(str, overruns)),
        "passes": passes,
        "metrics": {
            "wall_s": sum(best.values()),
            "op_p50_ms": median(bests) * 1000,
            "op_p90_ms": quantiles(tail, n=10)[8] * 1000,
            "peak_rss_mb": wl.peak_rss_mb(),
        },
    }


def src_lines():
    """<module>.lines for the modules of src/gradal, and src.lines in all."""
    counts = {path.stem.strip("_"): len(path.read_text(encoding="utf-8").splitlines())
              for path in (ROOT / "src" / "gradal").glob("*.py")}
    lines = {f"{m}.lines": counts.get(m, 0) for m in MODULE_FILES}
    lines["src.lines"] = sum(counts.values())
    return lines


def measure_layers(wl, seconds):
    """Alternate untraced and traced passes; per-layer figures, best of passes."""
    from tracer import Tracer
    from workloads import load_reference

    tracer = Tracer()
    metrics = dict(wl.layer_probes()) if hasattr(wl, "layer_probes") else {}
    untraced, traced = defaultdict(list), defaultdict(list)
    layer_passes, errors = [], []
    ops, first_overruns, first_inconclusive = list(wl.ops), None, None
    start = perf_counter()
    while True:
        seen = getattr(wl, "inconclusive", 0)
        lat, errs, over = run_pass(wl, ops, lambda op: wl.layer_op(op, False))
        if first_overruns is None:
            first_overruns = over
            first_inconclusive = getattr(wl, "inconclusive", 0) - seen
        ops = [op for op in ops if op not in over]
        tracer.install()
        try:
            lat_t, errs_t, over_t = run_pass(wl, ops, lambda op: wl.layer_op(op, True), tracer)
        finally:
            tracer.uninstall()
        layer_passes.append(tracer.take_metrics())
        for op, t in lat.items():
            untraced[op].append(t)
        for op, t in lat_t.items():
            traced[op].append(t)
        errors += errs + errs_t + [f"{op}: overran the traced deadline" for op in over_t]
        if perf_counter() - start >= min(seconds, LAST_PASS_START_S):
            break

    first = layer_passes[0]
    for key, value in first.items():
        if key.endswith(".self_s"):
            metrics[key] = min(p[key] for p in layer_passes)
        else:
            metrics[key] = value
            if any(p[key] != value for p in layer_passes):
                errors.append(f"{key} differs between traced passes")
    for fn in COVERAGE[wl.name]:
        if first[fn + ".calls"] == 0:
            errors.append(f"{fn} has no calls on {wl.name}: its wrapper was not reached")
    best = {op: min(ts) for op, ts in untraced.items()}
    metrics["trace.overhead_s"] = sum(min(ts) - best[op] for op, ts in traced.items())
    metrics["witness.overruns"] = len(first_overruns)
    metrics["harness.inconclusive"] = first_inconclusive
    busy = defaultdict(float)
    for op, t in best.items():
        busy[wl.group(op)] += t
    for cid in load_reference()["harness"]["verdicts"]:
        metrics[f"harness.{cid}.busy_s"] = busy.get(cid, 0.0)
    metrics["cli.main.busy_ms"] = busy[None] * 1000 if wl.name == "cli-cold" else 0.0
    metrics.setdefault("cli.interp_ms", 0.0)
    metrics.setdefault("cli.import_ms", 0.0)
    metrics.update(src_lines())
    return {
        "attempted": sum(map(len, untraced.values())) + sum(map(len, traced.values())),
        "failed": len(errors),
        "errors": errors,
        "overruns": sorted(map(str, first_overruns)),
        "passes": len(layer_passes),
        "metrics": metrics,
    }


def main(argv):
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](ROOT, seed)
    wl.warm_up()
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0
    result = measure_layers(wl, seconds) if trace else measure(wl, seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
