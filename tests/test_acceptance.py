"""Acceptance suite: ten headline guarantees at desk scale.

Each test is one guarantee and prints as one pass/fail line under
pytest -v.  Scales and tolerances are fixed here on purpose; loosening
them is a behavior change, not a test tweak.
"""

import pathlib
import random
import time
from fractions import Fraction as Rational

from _oracles import (
    det_bareiss,
    is_divisibility_chain,
    mat_mul_plain,
    snf_column_transform,
    zero_divisor_pair_bruteforce,
)
from gradal.abelian import (
    FgGroup,
    GroupHom,
    is_in_torsionfree_summand,
    subgroup_generated_by,
)
from gradal.closure import (
    AlmostIntegralWitness,
    IntegralityWitness,
    _z_top,
    components_integral_check,
    find_almost_integral_witness,
    find_integral_equation,
    graded_euclidean_division,
    laurent_extension,
    lem50_iso,
    torsion_idempotent,
    verify_integral_witness,
)
from gradal.element import Element, NonZeroDivisor, ZeroDivisor, nzd_test
from gradal.harness import CheckConfig, run_check
from gradal.intmat import hermite_columns, smith_normal_form
from gradal.ringexpr import BaseQ, BaseZ, classify, group_algebra, normalize

Q = normalize(BaseQ())
Z = normalize(BaseZ())

GOLDEN = pathlib.Path(__file__).parent / "golden"


def e(nf, *coords, c=1):
    return Element.monomial(nf, nf.egroup.element(coords), c)


def test_01_torsion_idempotent_suite():
    start = time.perf_counter()
    for n in (2, 3, 4, 6):
        rec = torsion_idempotent(n)
        assert rec.f * rec.f == rec.f
        assert all(c.denominator == n for c in rec.f.terms.values())
        one_z = Element.one(rec.ring_z)
        w = IntegralityWitness(2, (rec.c - one_z, rec.d.scale(-1)))
        assert verify_integral_witness(rec.ring_z, rec.ring_q, rec.f, w)
        found = find_integral_equation(rec.ring_z, rec.ring_q, rec.f,
                                       max_deg=2, support_box=1)
        assert isinstance(found, IntegralityWitness)
    assert time.perf_counter() - start < 1.0


CHAINS = ((), (2,), (3,), (4,), (6,), (2, 2), (2, 4), (2, 6), (3, 6))


def test_02_entirety_vs_bruteforce():
    rings = [group_algebra(base, FgGroup(rank, chain), kind)
             for base in (Z, Q)
             for rank in (0, 1, 2)
             for chain in CHAINS
             for kind in ("fine", "coarse")]
    assert len(rings) >= 100
    for nf in rings:
        entire = classify(nf).entire
        pair = zero_divisor_pair_bruteforce(nf, box=3)
        assert (pair is None) == entire, nf.describe()
        if pair is not None:
            x = Element(nf, pair[0])
            y = Element(nf, pair[1])
            assert not x.is_zero and not y.is_zero
            assert (x * y).is_zero
            res = nzd_test(x)
            assert isinstance(res, ZeroDivisor)
            assert (x * res.annihilator).is_zero
        else:
            exps = list(nf.egroup.box_elements(1))
            for a in exps[: min(2, len(exps))]:
                res = nzd_test(Element.monomial(nf, a, 2))
                assert isinstance(res, NonZeroDivisor)


def test_03_homogeneous_product_nonvanishing():
    rep = run_check(CheckConfig(check_id="P70", trials=500, seed=313))
    assert rep.trials == 500
    assert rep.fails == 0, rep.counterexample
    assert rep.passes > 300
    assert rep.passes + rep.inconclusive == 500


def _laurent_pair_plain(rng, struct):
    ring = struct.ring
    top = rng.randint(-1, 2)
    f_terms = {ring.egroup.element((top,)): rng.choice([1, -1, 2])}
    for k in range(top - 3, top):
        if rng.random() < 0.6:
            f_terms[ring.egroup.element((k,))] = rng.choice(
                [-2, -1, 1, 2, Rational(1, 2)])
    g_terms = {}
    for _ in range(rng.randint(0, 5)):
        g_terms[ring.egroup.element((rng.randint(-3, 4),))] = rng.choice(
            [-3, -1, 1, 2, Rational(2, 3)])
    return Element(ring, f_terms), Element(ring, g_terms)


def _laurent_pair_graded(rng, struct):
    ring = struct.ring
    af, ag = rng.randint(-2, 2), rng.randint(-2, 2)
    top = rng.randint(0, 2)
    f_terms = {ring.egroup.element((af, top)): rng.choice([1, -2])}
    for k in range(top - 2, top):
        if rng.random() < 0.5:
            f_terms[ring.egroup.element((af, k))] = rng.choice(
                [-1, 2, Rational(1, 2)])
    g_terms = {}
    for _ in range(rng.randint(0, 4)):
        g_terms[ring.egroup.element((ag, rng.randint(-2, 3)))] = rng.choice(
            [-2, 1, Rational(1, 2)])
    return Element(ring, f_terms), Element(ring, g_terms)


def test_04_graded_division():
    cases = [
        (laurent_extension(Q), _laurent_pair_plain),
        (laurent_extension(group_algebra(Q, FgGroup(1, ()), "fine")),
         _laurent_pair_graded),
    ]
    rng = random.Random(1848)
    for struct, sampler in cases:
        for _ in range(200):
            f, g = sampler(rng, struct)
            u, v = graded_euclidean_division(struct, f, g)
            assert g == u * f + v
            if not v.is_zero:
                assert _z_top(struct, v)[0] < _z_top(struct, f)[0]
            fs, gs = list(f.terms.items()), list(g.terms.items())
            rng.shuffle(fs)
            rng.shuffle(gs)
            u2, v2 = graded_euclidean_division(
                struct, Element(struct.ring, dict(fs)),
                Element(struct.ring, dict(gs)))
            assert u2 == u and v2 == v


def _zq_rings(rank, chain, kind):
    g = FgGroup(rank, chain)
    return (group_algebra(Z, g, kind), group_algebra(Q, g, kind))


def test_05_integral_matches_almost_integral():
    catalog = [
        _zq_rings(0, (2,), "coarse"),
        _zq_rings(0, (3,), "coarse"),
        _zq_rings(0, (4,), "coarse"),
        _zq_rings(1, (), "coarse"),
        _zq_rings(1, (), "fine"),
        _zq_rings(1, (2,), "fine"),
    ]
    rng = random.Random(2718)
    samples = 0
    found_some = 0
    for rz, rq in catalog:
        exps = list(rq.egroup.box_elements(1))
        fibers = {}
        for a in exps:
            fibers.setdefault(rq.delta.apply(a), []).append(a)
        for _ in range(20):
            fiber = rng.choice(list(fibers.values()))
            terms = {}
            for a in rng.sample(fiber, k=min(len(fiber),
                                             rng.randint(1, 2))):
                terms[a] = Rational(rng.choice([-3, -1, 1, 2, 3]),
                                    rng.choice([1, 1, 2, 3]))
            x = Element(rq, terms)
            if x.is_zero:
                continue
            samples += 1
            w = find_integral_equation(rz, rq, x, max_deg=3, support_box=2)
            a = find_almost_integral_witness(rz, rq, x, k_max=2,
                                             support_box=2)
            w_found = isinstance(w, IntegralityWitness)
            a_found = isinstance(a, AlmostIntegralWitness)
            assert w_found == a_found, (rq.describe(), str(x))
            if w_found:
                found_some += 1
                assert a.k == w.degree - 1
    assert samples >= 100
    assert 0 < found_some < samples


def _summand_instances():
    shapes = []
    qr = group_algebra(Q, FgGroup(2, ()), "fine")
    zr = group_algebra(Z, FgGroup(2, ()), "fine")
    shapes.append((zr, qr, GroupHom(qr.ggroup, FgGroup(1, ()), ((0, 1),))))
    shapes.append((zr, qr, GroupHom(qr.ggroup, FgGroup(1, ()), ((1, 1),))))
    g = FgGroup(1, (2,))
    qr2 = group_algebra(Q, g, "fine")
    zr2 = group_algebra(Z, g, "fine")
    shapes.append((zr2, qr2,
                   GroupHom(g, FgGroup(0, (2,)), ((0, 1),))))
    return shapes


def test_06_no_coarse_only_integrality_over_torsionfree_kernels():
    rng = random.Random(4104)
    outcomes = {"both": 0, "only-coarse": 0, "only-fine": 0, "neither": 0}
    samples = 0
    for rz, rq, psi in _summand_instances():
        exps = list(rq.egroup.box_elements(2))

        def coarse_deg(a, psi=psi, rq=rq):
            return psi.apply(rq.delta.apply(a))
        for _ in range(70):
            anchor = rng.choice(exps)
            fiber = [a for a in exps if coarse_deg(a) == coarse_deg(anchor)]
            picks = rng.sample(fiber, k=min(len(fiber), rng.randint(1, 3)))
            integral_bias = rng.random() < 0.5
            terms = {}
            for a in picks:
                if integral_bias:
                    terms[a] = rng.choice([-2, -1, 1, 2])
                else:
                    terms[a] = Rational(rng.choice([-1, 1, 3]),
                                        rng.choice([2, 3]))
            x = Element(rq, terms)
            if x.is_zero:
                continue
            samples += 1
            rep = components_integral_check(rz, psi, x, max_deg=2,
                                            support_box=2)
            outcomes[rep.outcome] += 1
            assert rep.outcome != "only-coarse", str(x)
    assert samples >= 200
    assert outcomes["both"] > 0 and outcomes["neither"] > 0
    # The torsion-kernel regime does produce coarse-only witnesses.
    for n in (2, 3):
        fq = group_algebra(Q, FgGroup(0, (n,)), "fine")
        fz = group_algebra(Z, FgGroup(0, (n,)), "fine")
        psi = GroupHom(fq.ggroup, FgGroup(0, ()), ())
        f = Element(fq, {fq.egroup.element((i,)): Rational(1, n)
                         for i in range(n)})
        rep = components_integral_check(fz, psi, f, max_deg=3, support_box=1)
        assert rep.outcome == "only-coarse"


def test_07_summand_transport_iso():
    r = group_algebra(Q, FgGroup(2, ()), "fine")
    g = r.ggroup
    pair = lem50_iso(r, [g.element((1, 0))], [g.element((0, 1))])
    rng = random.Random(5050)

    def coarse_elem():
        return Element(pair.coarse, {
            pair.coarse.egroup.element(
                (rng.randint(-3, 3), rng.randint(-3, 3))):
            rng.choice([-2, -1, 1, 2, Rational(1, 2)])
            for _ in range(rng.randint(1, 4))})

    def target_elem():
        return Element(pair.target, {
            pair.target.egroup.element(
                (rng.randint(-3, 3), rng.randint(-3, 3))):
            rng.choice([-2, 1, 2]) for _ in range(rng.randint(1, 4))})

    for _ in range(100):
        x = coarse_elem()
        assert pair.p.apply(pair.q.apply(x)) == x
        y = target_elem()
        assert pair.q.apply(pair.p.apply(y)) == y
    for _ in range(100):
        a, b = target_elem(), target_elem()
        assert pair.p.apply(a * b) == pair.p.apply(a) * pair.p.apply(b)
    assert pair.p.apply(Element.one(pair.target)) == Element.one(pair.coarse)


def test_08_torsionfree_subgroup_summand_containment():
    for n in (2, 3, 4):
        g = FgGroup(1, (n,))
        gen = g.element((n, 1))
        sub, _ = subgroup_generated_by(g, [gen])
        assert sub.is_torsionfree
        assert not is_in_torsionfree_summand(g, [gen])
    rng = random.Random(140)
    for rank in (1, 2, 3):
        g = FgGroup(rank, ())
        for _ in range(20):
            gens = [g.element(tuple(rng.randint(-4, 4)
                                    for _ in range(rank)))
                    for _ in range(rng.randint(1, 3))]
            assert is_in_torsionfree_summand(g, gens)


def test_09_integer_matrix_normal_forms():
    rng = random.Random(90210)
    for _ in range(500):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = [[rng.randint(-20, 20) for _ in range(cols)]
             for _ in range(rows)]
        u, d = smith_normal_form(a)
        ua = mat_mul_plain(u, a)
        v = snf_column_transform(ua, d)
        assert mat_mul_plain(ua, v) == d
        diag = [d[i][i] for i in range(min(rows, cols))]
        assert all(d[i][j] == 0 for i in range(rows) for j in range(cols)
                   if i != j)
        assert all(x >= 0 for x in diag)
        assert is_divisibility_chain(diag)
        assert abs(det_bareiss(u)) == 1
        assert abs(det_bareiss(v)) == 1
        h, w, pivots = hermite_columns(a)
        assert mat_mul_plain(a, w) == h
        assert abs(det_bareiss(w)) == 1
        assert all(h[i][j] > 0 for i, j in pivots)


CLASSIFY_RINGS = (
    "Q[Z/2]coarse",
    "Z[Z]fine",
    "Frac(Q[Z]fine)",
    "coarsen(Q[Z^2]fine, [[1,1]]: Z^2 -> Z)",
    "restrict(Q[Z]fine, <(2)>)",
)


def test_10_cli_golden_bytes(capsys):
    from gradal.cli import main

    def run(*argv):
        rc = main(list(argv))
        assert rc == 0
        return capsys.readouterr().out

    for _ in range(2):
        out = "".join(run("classify", ring) for ring in CLASSIFY_RINGS)
        assert out == (GOLDEN / "classify_rings.txt").read_text("utf-8")
        assert run("demo", "a90", "--n", "2") == (
            GOLDEN / "demo_a90_n2.json").read_text("utf-8")
        assert run("demo", "a140") == (
            GOLDEN / "demo_a140.json").read_text("utf-8")
