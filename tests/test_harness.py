"""Randomized re-verification harness: determinism, accounting, payloads."""

import hashlib
import importlib
import json
import pathlib
import random

import pytest

import gradal.harness as harness
from gradal.abelian import FgGroup
from gradal.errors import (
    GradalError,
    HypothesisViolatedError,
    InternalInvariantError,
    UnknownCheckIdError,
)
from gradal.harness import (
    CHECK_IDS,
    PROFILES,
    CheckConfig,
    generate_instance,
    report_json,
    run_check,
)
from gradal.ringexpr import classify


TRIALS = {"P100": 6, "F20": 8, "LEM50": 6, "T4800": 6}


@pytest.mark.parametrize("cid", CHECK_IDS)
def test_checks_run_clean(cid):
    trials = TRIALS.get(cid, 10)
    rep = run_check(CheckConfig(check_id=cid, trials=trials, seed=777))
    assert rep.check_id == cid
    assert rep.trials == trials
    assert len(rep.results) == trials
    assert rep.passes + rep.fails + rep.inconclusive == trials
    assert rep.fails == 0, rep.counterexample
    assert rep.counterexample is None
    assert rep.passes > 0
    assert set(rep.results) <= {"pass", "fail", "inconclusive"}


@pytest.mark.parametrize("cid", ["P70", "A90", "F20", "T4800"])
def test_reports_deterministic(cid):
    cfg = CheckConfig(check_id=cid, trials=8, seed=4321)
    a = run_check(cfg)
    b = run_check(cfg)
    assert a.results == b.results
    assert report_json(a) == report_json(b)


def test_trial_seeds_distinct_and_stable():
    seeds = [harness._trial_seed(99, t) for t in range(200)]
    assert len(set(seeds)) == 200
    assert seeds == [harness._trial_seed(99, t) for t in range(200)]
    assert harness._trial_seed(98, 0) != harness._trial_seed(99, 0)


def test_unknown_check_id():
    with pytest.raises(UnknownCheckIdError):
        CheckConfig(check_id="NOPE")
    with pytest.raises(GradalError):
        CheckConfig(check_id="P70", trials=0)
    # A count or seed that is not an int is refused here, not reported as
    # "trials":true or raised mid-run.
    for trials, seed in ((True, 2024), (2, True), (2.0, 1), ("2", 1),
                         (2, 1.5), (2, "7")):
        with pytest.raises(GradalError, match="^trials and seed must be ints"):
            CheckConfig("P70", trials, seed)


def test_report_json_shape():
    rep = run_check(CheckConfig(check_id="A90", trials=4, seed=5))
    obj = json.loads(report_json(rep))
    assert list(obj) == ["check_id", "seed", "trials", "passes", "fails",
                         "inconclusive"]
    assert obj["seed"] == 5 and obj["trials"] == 4
    assert "wall_time" not in report_json(rep)


def test_counterexample_captures_first_fail(monkeypatch):
    from fractions import Fraction as Rational

    def fake(trial, tseed, bounds):
        if trial == 1:
            # Checks build payloads with _payload, which leaves only
            # JSON-native values: the Fraction becomes its string.
            return "fail", harness._payload(detail=Rational(1, 2),
                                            note="planted")
        if trial == 3:
            return "fail", {"detail": "later"}
        return ("inconclusive", None) if trial % 2 == 0 else ("pass", None)

    monkeypatch.setitem(harness._CHECKS, "P70", fake)
    rep = run_check(CheckConfig(check_id="P70", trials=6, seed=1))
    assert rep.fails == 2
    assert rep.passes == 1 and rep.inconclusive == 3
    assert rep.counterexample["trial"] == 1
    assert rep.counterexample["note"] == "planted"
    obj = json.loads(report_json(rep))
    assert obj["counterexample"]["detail"] == "1/2"
    assert isinstance(obj["counterexample"]["trial_seed"], int)


def test_raising_trial_is_an_error_verdict(monkeypatch):
    """A raising trial does not abort the report: it is an "error"
    with the seed that replays it, and the other trials still run."""
    def fake(trial, tseed, bounds):
        if trial == 2:
            raise HypothesisViolatedError(f"planted at {tseed}")
        if trial == 4:
            raise InternalInvariantError("planted self-check")
        return "pass", None

    monkeypatch.setitem(harness._CHECKS, "P70", fake)
    rep = run_check(CheckConfig(check_id="P70", trials=6, seed=1))
    assert rep.results == ["pass", "pass", "error", "pass", "error", "pass"]
    assert rep.passes == 4 and rep.fails == 0 and rep.counterexample is None
    seed2 = harness._trial_seed(1, 2)
    assert rep.errors[0] == {"trial": 2, "trial_seed": seed2,
                             "type": "HypothesisViolatedError",
                             "message": f"planted at {seed2}"}
    assert rep.errors[1]["type"] == "InternalInvariantError"
    obj = json.loads(report_json(rep))
    assert obj["errors"] == 2 and obj["first_error"] == rep.errors[0]
    with pytest.raises(HypothesisViolatedError):
        fake(2, obj["first_error"]["trial_seed"], {})


@pytest.mark.parametrize("profile", PROFILES)
def test_generate_instance_profiles(profile):
    for seed in (1, 17, 303):
        nf, psi = generate_instance(seed, profile)
        cls = classify(nf)
        if profile == "simple-full-support":
            assert psi is None
            assert cls.simple and cls.full_support
        else:
            assert psi.domain == nf.ggroup
        if profile == "torsion-kernel":
            from gradal.abelian import hom_kernel
            k, _ = hom_kernel(psi)
            assert not k.is_torsionfree
        if profile == "entire-torsionfree-kernel":
            from gradal.abelian import hom_kernel
            k, _ = hom_kernel(psi)
            assert cls.entire and k.is_torsionfree
        # re-generation is deterministic
        assert generate_instance(seed, profile) == (nf, psi)


def test_generate_instance_rejects_unknown_profile():
    with pytest.raises(GradalError):
        generate_instance(1, "mystery")


def test_generate_instance_refuses_a_seed_that_is_not_an_int():
    """As CheckConfig does: a typed error, not a TypeError from the Rng."""
    for seed in ("x", None, 1.0, True):
        with pytest.raises(GradalError, match="^seeds must be ints, got "):
            generate_instance(seed, "torsion-kernel")


def test_profile_miss_is_internal(monkeypatch):
    """Every profile builds instances with its properties; a miss is a bug."""
    monkeypatch.setattr(harness, "_profile_ok", lambda nf, psi, profile: False)
    with pytest.raises(InternalInvariantError):
        generate_instance(5, "torsion-kernel")


@pytest.mark.parametrize("cid", ["P90", "LEM50"])
def test_each_trial_computes_the_kernel_of_psi_once(monkeypatch, cid):
    """The instance's profile check and the trial read one kernel of the
    psi the instance draws (a psi built later, equal or not, is another
    question, asked on its own object)."""
    drawn, args = [], []
    build = harness._build_profile

    def recorded(rng, profile):
        nf, psi = build(rng, profile)
        drawn.append(psi)
        return nf, psi

    monkeypatch.setattr(harness, "_build_profile", recorded)
    for name in ("abelian", "ringexpr", "element", "closure", "harness"):
        mod = importlib.import_module(f"gradal.{name}")
        real = mod.hom_kernel
        monkeypatch.setattr(mod, "hom_kernel", lambda h, real=real:
                            args.append(h) or real(h))
    for trial in range(8):
        del drawn[:], args[:]
        tseed = harness._trial_seed(2024, trial)
        verdict, _ = harness._CHECKS[cid](trial, tseed,
                                          dict(harness.DEFAULT_BOUNDS))
        assert verdict == "pass"
        assert sum(h is drawn[0] for h in args) == 1


def test_every_report_matches_its_golden():
    """report_json of each check at 24 trials and seed 2024, byte for
    byte, one line per id in CHECK_IDS order."""
    golden = pathlib.Path(__file__).parent / "golden" / "check_all_24_2024.jsonl"
    want = golden.read_text(encoding="utf-8").splitlines()
    got = [report_json(run_check(CheckConfig(cid, 24, 2024)))
           for cid in CHECK_IDS]
    assert got == want


@pytest.mark.parametrize("seed,digest", [
    (1, "511b005f2cf3cd1f1c25e8b6dd04ae42d8431fa290613fd56320553f8fc38057"),
    (7, "b315e90afd4bc00be0c48712c982f8f3297cfbac2a09620f4156a3738ff9e169"),
])
def test_reports_at_more_seeds_match_their_digests(seed, digest):
    """SHA-256 of report_json of each check at 24 trials, concatenated
    in CHECK_IDS order, beside the seed-2024 golden."""
    got = "".join(report_json(run_check(CheckConfig(cid, 24, seed)))
                  for cid in CHECK_IDS)
    assert hashlib.sha256(got.encode()).hexdigest() == digest


def test_box_choice_is_choice_over_the_box_list():
    """_box_choice draws what rng.choice over the listed box draws, and
    leaves the generator in the same state."""
    rng = random.Random(1516)
    chains = [(), (2,), (3,), (2, 4), (2, 2, 6)]
    for _ in range(300):
        g = FgGroup(rng.randint(0, 3), rng.choice(chains))
        box, seed = rng.randint(0, 2), rng.getrandbits(64)
        a, b = harness.Rng(seed), harness.Rng(seed)
        assert harness._box_choice(a, g, box) == b.choice(
            list(g.box_elements(box)))
        assert a.state == b.state
    trivial = FgGroup(0, ())
    assert harness._box_choice(harness.Rng(5), trivial, 2) == trivial.zero()
