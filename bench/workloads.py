"""The three workloads: their inputs, warm-up, operations and checks.

Each workload is built from the seed (this is the set-up a run times),
and exposes `ops`, the fixed input set in seed-shuffled order, and
`run_op(op)`, which performs one operation and returns None when its
output checked out, "overrun" when it hit the deadline, or a message
saying what was wrong.  `layer_op` is what the traced run times; it is
`run_op` except on cli-cold, where the commands run in-process so the
tracer can see into them.
"""

import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import oracle

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "data" / "reference.json"
VERDICTS = {"p": "pass", "i": "inconclusive", "f": "fail"}


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024


class Harness:
    """Every check of the seeded suite, one trial per operation.

    The input set is the suite users re-run, `gradal check ID` at its
    default 24 trials and seed 2024, for each of the 12 checks.  Op
    (id, j) is trial j of it: the check function called with trial index
    j and trial seed `_trial_seed(2024, j)`, exactly as `run_check` calls
    it, so every branch a check picks by trial index is taken.  The set
    is fixed and the seed orders it: the cost of 24 trials drawn at
    random per check has a standard deviation of 11.5% of its mean.
    """

    name = "harness"

    def __init__(self, root, seed, reference=None):
        from gradal import CheckConfig, run_check
        from gradal.harness import _CHECKS, DEFAULT_BOUNDS, _trial_seed
        self._config, self._run_check = CheckConfig, run_check
        ref = (reference or load_reference())["harness"]
        self.warm_seed = ref["warm_seed"]
        self.verdicts = ref["verdicts"]
        self._trials = {}
        for cid in self.verdicts:
            cfg = CheckConfig(cid, ref["trials"], ref["seed"])
            bounds = dict(DEFAULT_BOUNDS, **cfg.bounds)  # as run_check merges them
            self._trials[cid] = [(_CHECKS[cid], j, _trial_seed(cfg.seed, j), bounds)
                                 for j in range(cfg.trials)]
        self.ops = [(cid, j) for cid in self.verdicts for j in range(ref["trials"])]
        random.Random(seed).shuffle(self.ops)
        self.inconclusive = 0

    def warm_up(self):
        for cid in self.verdicts:
            self._run_check(self._config(cid, 1, self.warm_seed))

    def group(self, op):
        return op[0]

    def run_op(self, op):
        cid, j = op
        check, trial, trial_seed, bounds = self._trials[cid][j]
        verdict, _ = check(trial, trial_seed, dict(bounds))
        want = VERDICTS[self.verdicts[cid][j]]
        self.inconclusive += verdict == "inconclusive"
        if verdict != want:
            return f"{cid} trial {j}: verdict {verdict}, reference {want}"
        return None

    def layer_op(self, op, traced):
        return self.run_op(op)

    def peak_rss_mb(self):
        return peak_rss_mb()


class Overrun(BaseException):
    """Raised by the deadline timer; not an Exception, so gradal's own
    handlers cannot swallow it."""


class WitnessZ:
    """Integrality witness searches over Z[Z^3] coarsened to total degree.

    Queries x = sum of three a/b * e(f) with f among the six degree-1
    exponents in box 1, a in {+-1, +-2}, b in {1, 2, 3}, searched with
    max_deg=3 and support_box=2; plus the fixed slow case
    1/2*e(1,0,0)+1/3*e(0,1,0)+e(0,0,1).  The pool is fixed (drawn once,
    see record.py) and the seed orders it, because one query in eight
    overruns the deadline and a random draw of queries would make the
    run's cost swing with that count.
    """

    name = "witness-z"
    # Searches of the pool take under 0.17 s or over 1.1 s (machine in
    # README.md); the deadline sits in that gap, a factor 1.6 from the
    # slowest completion seen on a slow pass, so no query flips with noise.
    DEADLINE_S = 0.4
    # The traced run only repeats queries that finished untraced; this
    # looser deadline only stops a traced run that hangs.
    TRACED_DEADLINE_S = 6.0

    def __init__(self, root, seed, reference=None):
        import gradal
        from gradal import (BaseQ, BaseZ, Element, FgGroup, GroupHom,
                            NoWitnessUpTo, coarsen, group_algebra, normalize)

        def ring(base):
            fine = group_algebra(normalize(base), FgGroup(3), "fine")
            return coarsen(fine, GroupHom(fine.ggroup, FgGroup(1), ((1, 1, 1),)))

        # Looked up on the package at each call, so the tracer's wrapper
        # is the one called.
        self._gradal = gradal
        self._element, self._no_witness = Element, NoWitnessUpTo
        self.rz, self.rq = ring(BaseZ()), ring(BaseQ())
        ref = (reference or load_reference())["witness_z"]
        self.queries = {q["id"]: q for q in ref["queries"]}
        self.known_overruns = set(ref["overruns"])
        self.warm = ref["warm"]
        self.ops = list(self.queries)
        random.Random(seed).shuffle(self.ops)
        self._armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._armed:
            raise Overrun()

    def warm_up(self):
        for q in self.warm:
            err = self.search(q, self.DEADLINE_S)
            if err is not None:
                raise RuntimeError(f"warm-up query {q['id']}: {err}")

    def group(self, op):
        return None

    def run_op(self, op, deadline=DEADLINE_S):
        """None, "overrun" for a recorded overrun, or what went wrong.

        An overrun of a query that was not recorded as one, or whose
        reference has a witness, is a failure; fewer overruns are not.
        """
        q = self.queries[op]
        err = self.search(q, deadline)
        if err == "overrun" and (op not in self.known_overruns or q["degree"] is not None):
            return f"{op}: overran the {deadline} s deadline, recorded as completing"
        return err if err in (None, "overrun") else f"{op}: {err}"

    def layer_op(self, op, traced):
        return self.run_op(op, self.TRACED_DEADLINE_S if traced else self.DEADLINE_S)

    def search(self, q, deadline):
        x = oracle.parse_terms(q["terms"])
        elem = self._element(self.rq, {self.rq.egroup.element(e): c for e, c in x.items()})
        try:
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, deadline)
            w = self._gradal.find_integral_equation(
                self.rz, self.rq, elem, max_deg=oracle.MAX_DEG, support_box=oracle.BOX)
            self._armed = False
        except Overrun:
            return "overrun"
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        if isinstance(w, self._no_witness):
            result = None
        else:
            result = (w.degree, [{f.coords: c for f, c in a.terms.items()}
                                 for a in w.coeffs])
        return oracle.check_result(x, q["degree"], result)

    def peak_rss_mb(self):
        return peak_rss_mb()


# The golden commands of the CLI tests: (golden file, line of it or None
# for the whole file, argv).
CLI_COMMANDS = (
    ("classify_rings.txt", 0, ("classify", "Q[Z/2]coarse")),
    ("classify_rings.txt", 1, ("classify", "Z[Z]fine")),
    ("classify_rings.txt", 2, ("classify", "Frac(Q[Z]fine)")),
    ("classify_rings.txt", 3, ("classify", "coarsen(Q[Z^2]fine, [[1,1]]: Z^2 -> Z)")),
    ("classify_rings.txt", 4, ("classify", "restrict(Q[Z]fine, <(2)>)")),
    ("demo_a90_n2.json", None, ("demo", "a90", "--n", "2")),
    ("demo_a140.json", None, ("demo", "a140")),
    ("demo_p90.json", None, ("demo", "p90")),
    ("check_p70.json", None, ("check", "P70", "--trials", "6", "--seed", "11")),
    ("divide_example.json", None, ("divide", "Q[Z]coarse", "e(1)-e(0)", "e(2)+e(0)")),
    ("integrality_idempotent.json", None,
     ("integrality", "Z[Z/2]coarse", "Q[Z/2]coarse", "1/2*e(0)+1/2*e(1)")),
)


class CliCold:
    """Each golden command as a fresh `python -m gradal.cli` process.

    The commands run one after another in seed-shuffled order, with
    PYTHONPATH=src and no GRADAL_SEED, and stdout must equal the golden
    file byte for byte.
    """

    name = "cli-cold"
    PROBES = 5

    def __init__(self, root, seed):
        self.root = root
        golden = root / "tests" / "golden"
        self.expected = []
        for fname, line, _ in CLI_COMMANDS:
            data = (golden / fname).read_bytes()
            if line is not None:
                data = data.splitlines(keepends=True)[line]
            self.expected.append(data)
        self.env = {k: v for k, v in os.environ.items() if k != "GRADAL_SEED"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.ops = list(range(len(CLI_COMMANDS)))
        random.Random(seed).shuffle(self.ops)
        self._main = None

    def warm_up(self):
        err = self.run_op(self.ops[0])
        if err is not None:
            raise RuntimeError(f"warm-up command: {err}")

    def group(self, op):
        return None

    def run_op(self, op):
        argv = CLI_COMMANDS[op][2]
        proc = subprocess.run([sys.executable, "-m", "gradal.cli", *argv],
                              cwd=self.root, env=self.env, capture_output=True,
                              timeout=60)
        return self._check(op, proc.returncode, proc.stdout, proc.stderr)

    def layer_op(self, op, traced):
        if self._main is None:
            from gradal.cli import main
            self._main = main
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = self._main(list(CLI_COMMANDS[op][2]))
        return self._check(op, rc, out.getvalue().encode(), err.getvalue().encode())

    def _check(self, op, rc, stdout, stderr):
        if rc != 0 or stderr or stdout != self.expected[op]:
            return (f"{' '.join(CLI_COMMANDS[op][2])}: exit {rc}, stdout "
                    f"{'matches' if stdout == self.expected[op] else 'differs from'} "
                    f"{CLI_COMMANDS[op][0]}, stderr {stderr[:200]!r}")
        return None

    def layer_probes(self):
        """cli.interp_ms and cli.import_ms: best of PROBES fresh processes."""
        interp, imports = [], []
        code = ("import time; t = time.perf_counter(); import gradal; "
                "print((time.perf_counter() - t) * 1000)")
        for _ in range(self.PROBES):
            t = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True, env=self.env)
            interp.append((perf_counter() - t) * 1000)
            proc = subprocess.run([sys.executable, "-c", code], check=True,
                                  env=self.env, capture_output=True, text=True)
            imports.append(float(proc.stdout))
        return {"cli.interp_ms": min(interp), "cli.import_ms": min(imports)}

    def peak_rss_mb(self):
        return peak_rss_mb(resource.RUSAGE_CHILDREN)


WORKLOADS = {w.name: w for w in (Harness, WitnessZ, CliCold)}
