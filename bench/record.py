"""Write bench/data/reference.json, the expected outputs the benchmark checks.

    PYTHONPATH=src python3 bench/record.py

harness: the verdict of every trial of `gradal check ID` at 24 trials
and seed 2024, recorded from gradal one trial at a time as a run calls
them, and checked against `run_check` of the whole suite.

witness_z: the query pool and, for each query, the lowest degree n <= 3
whose monic system has an integer solution, or null.  The systems are
rebuilt by oracle.monic_system and decided with sympy's Smith normal
form over ZZ, so these verdicts do not come from gradal.  Runs read
them and do not need sympy.  Also the ids of the queries whose search
overruns the workload's deadline, timed with gradal here; a run fails
an overrun of any other query.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import oracle

BENCH = Path(__file__).resolve().parent
CHECK_IDS = ("P70", "P80", "P90", "P100", "A80", "A90",
             "A101", "A120", "A140", "F20", "LEM50", "T4800")
HARNESS_SEED, HARNESS_TRIALS = 2024, 24
HARNESS_WARM_SEED = 1

EXPONENTS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1))
POOL_SEED = 7
POOL_SIZE = 135
FIXED = [[[1, 0, 0], "1/2"], [[0, 1, 0], "1/3"], [[0, 0, 1], "1"]]
WARM = ([[[1, 0, 0], "1"], [[0, 1, 0], "2"], [[0, 0, 1], "-1"]],
        [[[1, 0, 0], "1/2"], [[0, 1, 0], "1"], [[0, 0, 1], "1"]])


def integer_feasible(a, b):
    """Whether a*y = b has an integer solution, by Smith normal form."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_decomp

    d, u, _ = smith_normal_decomp(Matrix(a), domain=ZZ)
    c = u * Matrix(b)
    for i in range(len(a)):
        piv = d[i, i] if i < min(d.shape) else 0
        if (c[i] != 0) if piv == 0 else (c[i] % piv != 0):
            return False
    return True


def lowest_degree(terms):
    x = oracle.parse_terms(terms)
    for n in range(1, oracle.MAX_DEG + 1):
        if integer_feasible(*oracle.monic_system(x, n)):
            return n
    return None


def witness_pool():
    rng = random.Random(POOL_SEED)
    seen, pool = set(), []
    while len(pool) < POOL_SIZE:
        support = sorted(rng.sample(EXPONENTS, 3))
        terms = tuple((e, str(Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3)))))
                      for e in support)
        if terms not in seen:
            seen.add(terms)
            pool.append([[list(e), c] for e, c in terms])
    return [("fixed", FIXED)] + [(f"q{i:02d}", t) for i, t in enumerate(pool)]


def harness_verdicts():
    """Verdicts of the suite by check, one letter per trial."""
    from gradal import CheckConfig, run_check

    verdicts = {}
    for cid in CHECK_IDS:
        results = run_check(CheckConfig(cid, HARNESS_TRIALS, HARNESS_SEED)).results
        if "fail" in results:
            raise SystemExit(f"{cid} fails at seed {HARNESS_SEED}")
        verdicts[cid] = "".join(v[0] for v in results)
    return verdicts


def check_harness_ops(reference):
    """Every harness op, run as a run runs it, must repeat run_check's verdict."""
    from workloads import Harness

    wl = Harness(BENCH.parent, 0, reference)
    errors = [err for err in map(wl.run_op, wl.ops) if err is not None]
    if errors:
        raise SystemExit("harness ops disagree with run_check: " + "; ".join(errors))


def witness_overruns(reference):
    """Ids of the pool's queries whose search overruns the deadline."""
    from workloads import WitnessZ

    wl = WitnessZ(BENCH.parent, 0, reference)
    wl.warm_up()
    overruns = []
    for q in reference["witness_z"]["queries"]:
        if wl.search(q, wl.DEADLINE_S) == "overrun":
            if q["degree"] is not None:
                raise SystemExit(f"{q['id']} overruns but has a witness of degree "
                                 f"{q['degree']}")
            overruns.append(q["id"])
    return overruns


def dump(reference):
    """JSON with one harness check or witness query per line."""
    h, w = reference["harness"], reference["witness_z"]
    lines = ['{"harness": {',
             f'  "seed": {h["seed"]}, "trials": {h["trials"]}, '
             f'"warm_seed": {h["warm_seed"]},',
             '  "verdicts": {']
    lines += [f'    "{cid}": "{v}",' for cid, v in h["verdicts"].items()]
    lines[-1] = lines[-1].rstrip(",")
    lines += ["  }},", '"witness_z": {', '  "queries": [']
    lines += [f"    {json.dumps(q)}," for q in w["queries"]]
    lines[-1] = lines[-1].rstrip(",")
    lines += ["  ],", '  "warm": [']
    lines += [f"    {json.dumps(q)}," for q in w["warm"]]
    lines[-1] = lines[-1].rstrip(",")
    lines += ["  ],", f'  "overruns": {json.dumps(w["overruns"])}', "}}"]
    return "\n".join(lines) + "\n"


def main():
    queries = [{"id": qid, "terms": terms, "degree": lowest_degree(terms)}
               for qid, terms in witness_pool()]
    warm = [{"id": f"warm{i}", "terms": terms, "degree": lowest_degree(terms)}
            for i, terms in enumerate(WARM)]
    reference = {
        "harness": {"seed": HARNESS_SEED, "trials": HARNESS_TRIALS,
                    "warm_seed": HARNESS_WARM_SEED, "verdicts": harness_verdicts()},
        "witness_z": {"queries": queries, "warm": warm, "overruns": []},
    }
    check_harness_ops(reference)
    reference["witness_z"]["overruns"] = witness_overruns(reference)
    path = BENCH / "data" / "reference.json"
    path.write_text(dump(reference), encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
