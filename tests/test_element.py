"""Element arithmetic, exact zero-divisor/unit decisions, fractions."""

import random
import time
from fractions import Fraction as Rational

import pytest

import gradal.element as element
from _oracles import (
    _dict_mul,
    is_zero_divisor_reference,
    mul_by_group_elems,
    nzd_by_blocks,
    unit_by_blocks,
    unit_inverse_box,
    zero_divisor_pair_bruteforce,
)
from gradal.abelian import FgGroup, GroupHom, hom_kernel, quotient_by
from gradal.element import (
    Element,
    Fraction,
    NonZeroDivisor,
    NotUnit,
    P70Report,
    Unit,
    ZeroDivisor,
    degree_of,
    homogeneous_components,
    homogeneous_unit_test,
    is_homogeneous,
    lemma_p70_check,
    nzd_test,
    reparent,
)
from gradal.errors import (
    GradalError,
    HypothesisViolatedError,
    InternalInvariantError,
    NotEntireError,
    NotHomogeneousError,
    ParentMismatchError,
    PreconditionViolatedError,
    ZeroElementError,
)
from gradal.ringexpr import (
    BaseQ,
    BaseZ,
    classify,
    coarsen,
    fraction_field,
    group_algebra,
    normalize,
)

Q = normalize(BaseQ())
Z = normalize(BaseZ())
QZ = group_algebra(Q, FgGroup(1, ()), "fine")
ZZ = group_algebra(Z, FgGroup(1, ()), "fine")
QT = group_algebra(Q, FgGroup(0, (4,)), "coarse")


def e(nf, *coords, c=1):
    return Element.monomial(nf, nf.egroup.element(coords), c)


def random_element(rng, nf, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        coords = tuple(rng.randint(-2, 2) for _ in range(nf.egroup.rank))
        coords += tuple(rng.randint(0, d - 1) for d in nf.egroup.torsion)
        c = rng.choice([-2, -1, 1, 2, 3])
        if nf.base == "Q" and rng.random() < 0.3:
            c = Rational(c, rng.choice([2, 3]))
        terms[nf.egroup.element(coords)] = c
    return Element(nf, terms)


def test_construction_drops_zeros_and_coerces():
    x = Element(QZ, {QZ.egroup.element((0,)): 0})
    assert x.is_zero
    y = Element(QZ, {QZ.egroup.element((1,)): Rational(2, 4)})
    assert y.coeff(QZ.egroup.element((1,))) == Rational(1, 2)
    with pytest.raises(GradalError):
        Element(ZZ, {ZZ.egroup.element((0,)): Rational(1, 2)})
    with pytest.raises(ParentMismatchError):
        Element(QZ, {FgGroup(2, ()).element((0, 0)): 1})


def test_ring_laws_random():
    rng = random.Random(314159)
    rings = [QZ, ZZ, QT, group_algebra(Q, FgGroup(1, (2,)), "fine")]
    for _ in range(120):
        nf = rng.choice(rings)
        x, y, z = (random_element(rng, nf) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + Element.zero(nf) == x
        assert x * Element.one(nf) == x
        assert x - x == Element.zero(nf)
        assert x ** 2 == x * x


def test_products_match_group_elem_convolution():
    """x * y equals the GroupElem convolution and _dict_mul term for
    term, in the same order and with the same coefficient types, over
    Z and Q, with torsion exponents that wrap and coefficients that
    cancel, and with empty operands."""
    rng = random.Random(2718)
    groups = [FgGroup(1, ()), FgGroup(2, ()), FgGroup(0, (4,)),
              FgGroup(1, (2,)), FgGroup(1, (2, 6))]
    rings = [group_algebra(base, g, "fine") for base in (Z, Q) for g in groups]

    def dense(nf):  # few exponents, small coefficients: sums collide
        terms = {}
        coeffs = [-1, 1, -1, 1, 2] + [Rational(-1, 2)] * (nf.base == "Q")
        for _ in range(rng.randint(0, 4)):
            f = [rng.randint(-1, 1) for _ in range(nf.egroup.rank)]
            f += [rng.randrange(d) for d in nf.egroup.torsion]
            terms[nf.egroup.element(f)] = rng.choice(coeffs)
        return Element(nf, terms)

    wrapped = cancelled = empty = 0
    for _ in range(400):
        nf = rng.choice(rings)
        x = dense(nf)
        y = dense(nf) if rng.random() < 0.5 else random_element(rng, nf)
        if len(x.terms) > 1 and rng.random() < 0.3:
            # c_g*e(0) - c_f*e(f-g): f*0 and g*(f-g) cancel at f
            (f, cf), (g, cg) = rng.sample(list(x.terms.items()), 2)
            y = Element(nf, {nf.egroup.zero(): cg, f - g: -cf})
        got, want = x * y, mul_by_group_elems(x, y)
        plain = _dict_mul(nf.egroup, x.terms, y.terms)
        assert got.terms == want.terms == plain
        assert list(got.terms) == list(want.terms) == list(plain)
        ctype = Rational if nf.base == "Q" else int
        assert all(type(c) is ctype for c in got.terms.values())
        sums = [tuple(map(sum, zip(f.coords, g.coords)))
                for f in x.terms for g in y.terms]
        reduced = {nf.egroup.element(s) for s in sums}
        wrapped += any(nf.egroup.element(s).coords != s for s in sums)
        cancelled += len(got.terms) < len(reduced)
        empty += x.is_zero or y.is_zero
    assert wrapped > 50 and cancelled > 20 and empty > 20


def test_pow_and_scale():
    x = e(QZ, 1) + e(QZ, 0)
    assert x ** 0 == Element.one(QZ)
    assert x ** 3 == x * x * x
    assert x.scale(Rational(1, 2)) + x.scale(Rational(1, 2)) == x
    with pytest.raises(GradalError):
        x ** -1


def test_homogeneous_components_partition():
    rng = random.Random(2020)
    for _ in range(60):
        nf = rng.choice([QZ, QT, group_algebra(Q, FgGroup(2, ()), "fine")])
        x = random_element(rng, nf, max_terms=6)
        comps = homogeneous_components(x)
        total = Element.zero(nf)
        degs = list(comps)
        assert degs == sorted(degs, key=lambda d: d.coords)
        for d, part in comps.items():
            assert not part.is_zero
            assert is_homogeneous(part)
            assert degree_of(part) == d
            total = total + part
        assert total == x


def test_degree_of_errors():
    with pytest.raises(ZeroElementError):
        degree_of(Element.zero(QZ))
    with pytest.raises(NotHomogeneousError):
        degree_of(e(QZ, 0) + e(QZ, 1))


def test_reparent():
    fine2 = group_algebra(Q, FgGroup(2, ()), "fine")
    psi = GroupHom(fine2.ggroup, FgGroup(1, ()), ((1, 1),))
    rc = coarsen(fine2, psi)
    x = e(fine2, 1, 0) + e(fine2, 0, 1)
    y = reparent(x, rc)
    assert y.parent == rc
    assert not is_homogeneous(x)
    assert is_homogeneous(y)


# --- zero divisors ---

NZD_CATALOG = []
for base in (Q, Z):
    for grp in (FgGroup(1, ()), FgGroup(0, (2,)), FgGroup(0, (4,)),
                FgGroup(1, (2,)), FgGroup(0, (2, 2)), FgGroup(0, (6,))):
        for kind in ("fine", "coarse"):
            NZD_CATALOG.append(group_algebra(base, grp, kind))


def test_nzd_against_bruteforce_catalog():
    for nf in NZD_CATALOG:
        pair = zero_divisor_pair_bruteforce(nf)
        if pair is None:
            continue
        xd, yd = pair
        x = Element(nf, xd)
        res = nzd_test(x)
        assert isinstance(res, ZeroDivisor)
        assert not res.annihilator.is_zero
        assert (x * res.annihilator).is_zero


def test_nzd_soundness_random():
    rng = random.Random(777)
    checked_zd = 0
    for _ in range(200):
        nf = rng.choice(NZD_CATALOG)
        x = random_element(rng, nf)
        if x.is_zero:
            continue
        res = nzd_test(x)
        if isinstance(res, ZeroDivisor):
            checked_zd += 1
            assert not res.annihilator.is_zero
            assert (x * res.annihilator).is_zero
        else:
            assert isinstance(res, NonZeroDivisor)
    assert checked_zd > 0


def test_nzd_on_classic_pair():
    t = QT.egroup.element((1,))
    x = Element.monomial(QT, t) - Element.one(QT)
    res = nzd_test(x)
    assert isinstance(res, ZeroDivisor)
    norm = Element(QT, {QT.egroup.element((i,)): 1 for i in range(4)})
    assert (x * norm).is_zero


def test_nzd_torsionfree_cases():
    for nf in (QZ, ZZ):
        x = e(nf, 1) - e(nf, 0)
        assert isinstance(nzd_test(x), NonZeroDivisor)
        assert isinstance(nzd_test(e(nf, 2, c=5)), NonZeroDivisor)
    assert nzd_test(e(QZ, 2, c=5)).reason == (
        "the Laurent coefficients over the torsion part have no common "
        "annihilator")


# --- units ---

def test_unit_monomials():
    u = homogeneous_unit_test(e(QZ, 3, c=Rational(2, 5)))
    assert isinstance(u, Unit)
    assert u.inverse * e(QZ, 3, c=Rational(2, 5)) == Element.one(QZ)
    u = homogeneous_unit_test(e(ZZ, -2, c=-1))
    assert isinstance(u, Unit)
    assert u.inverse * e(ZZ, -2, c=-1) == Element.one(ZZ)
    res = homogeneous_unit_test(e(ZZ, 0, c=2))
    assert isinstance(res, NotUnit)
    assert res.reason == "coefficient 2 is not a unit in Z"


def test_unit_needs_homogeneous():
    with pytest.raises(NotHomogeneousError):
        homogeneous_unit_test(e(QZ, 0) + e(QZ, 1))
    with pytest.raises(ZeroElementError):
        homogeneous_unit_test(Element.zero(QZ))


def test_unit_test_refuses_a_fraction_form():
    """Frac(Q[Z]coarse) is simple, so 1 + e(1) is a unit there; the test
    answers with an Element inverse and would decide over Q[Z], so it
    refuses the fraction form instead of answering NotUnit."""
    frac = fraction_field(group_algebra(Q, FgGroup(1, ()), "coarse"))
    assert classify(frac).simple
    with pytest.raises(HypothesisViolatedError, match="fraction form"):
        homogeneous_unit_test(Element.one(frac) + e(frac, 1))


def test_unit_with_torsion_kernel():
    # 1 - e_t is not a unit (it is a zero divisor); 1 + e_t + e_t^2 + e_t^3
    # is not either, but (1 + e_t)/2 + ... pick a genuine unit: e_t itself.
    t = QT.egroup.element((1,))
    assert isinstance(homogeneous_unit_test(Element.monomial(QT, t)), Unit)
    x = Element.one(QT) - Element.monomial(QT, t)
    assert isinstance(homogeneous_unit_test(x), NotUnit)
    # A two-term unit over a torsion kernel: (e_0 + e_t) with t of order 2
    # squares to 2(e_0 + e_t), so (e_0 + e_t)/2 * (e_0 + e_t) = e_0 + e_t.
    # Not a unit; but e_0 - e_t times (e_0 - e_t)/2 = e_0 over Z/2? No:
    # (e_0 - e_t)^2 = 2 e_0 - 2 e_t. Use the exact engine verdicts instead.
    qt2 = group_algebra(Q, FgGroup(0, (2,)), "coarse")
    s = qt2.egroup.element((1,))
    y = Element.one(qt2) + Element.monomial(qt2, s, Rational(1, 2))
    res = homogeneous_unit_test(y)
    if isinstance(res, Unit):
        assert res.inverse * y == Element.one(qt2)


def test_unit_agreement_random():
    rng = random.Random(31415)
    for _ in range(150):
        nf = rng.choice(NZD_CATALOG)
        x = random_element(rng, nf, max_terms=3)
        if x.is_zero or not is_homogeneous(x):
            continue
        res = homogeneous_unit_test(x)
        if isinstance(res, Unit):
            assert res.inverse * x == Element.one(nf)
            assert isinstance(nzd_test(x), NonZeroDivisor)


def oracle_rings():
    """Fine, coarse and partly coarsened rings over Z and Q, with torsion
    chains up to (2, 4) and free ranks up to 2."""
    rng = random.Random(1701)
    rings = []
    for grp in (FgGroup(0, (2,)), FgGroup(0, (2, 2)), FgGroup(0, (2, 4)),
                FgGroup(0, (6,)), FgGroup(1, ()), FgGroup(1, (2,)),
                FgGroup(1, (2, 2)), FgGroup(1, (2, 4)), FgGroup(2, ()),
                FgGroup(2, (2,))):
        for base in (Q, Z):
            fine = group_algebra(base, grp, "fine")
            rings += [fine, group_algebra(base, grp, "coarse")]
            pool = [f for f in grp.box_elements(1) if not f.is_zero]
            for _ in range(2):
                _, proj = quotient_by(grp, [rng.choice(pool)])
                rings.append(coarsen(fine, proj))
    return rings


def oracle_sample(rng, nf):
    """A nonzero homogeneous element: one to four terms in one fiber."""
    box = 1 if nf.egroup.rank == 2 else 2
    pool = list(nf.egroup.box_elements(box))
    degree = nf.delta.apply(rng.choice(pool))
    fiber = [f for f in pool if nf.delta.apply(f) == degree]
    while True:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            c = rng.choice((-2, -1, 1, 2))
            if nf.base == "Q" and rng.random() < 0.3:
                c = Rational(c, rng.choice((2, 3)))
            terms[rng.choice(fiber)] = c
        x = Element(nf, terms)
        if not x.is_zero:
            return x


def test_decisions_against_reference_oracles():
    """Units against a solve over the whole reflected box, zero divisors
    against a determinant or a rank over Q[T], on rings whose grading
    kernel runs from 0 through proper subgroups to all of E."""
    rng = random.Random(2718)
    rings = oracle_rings()
    assert any(not nf.egroup.is_torsionfree
               and not hom_kernel(nf.delta)[0].is_trivial
               and nf.ggroup.dim for nf in rings)
    counts = {"Unit": 0, "NotUnit": 0, "ZeroDivisor": 0, "NonZeroDivisor": 0}
    for nf in rings:
        has_pair = zero_divisor_pair_bruteforce(nf) is not None
        for _ in range(15):
            x = oracle_sample(rng, nf)
            res = homogeneous_unit_test(x)
            inv = unit_inverse_box(nf, x.terms)
            counts[type(res).__name__] += 1
            if inv is None:
                assert isinstance(res, NotUnit), x
            else:
                assert isinstance(res, Unit), x
                assert res.inverse.terms == inv
            res = nzd_test(x)
            counts[type(res).__name__] += 1
            if is_zero_divisor_reference(nf, x.terms):
                assert isinstance(res, ZeroDivisor), x
                assert has_pair, x
                assert not res.annihilator.is_zero
                assert (x * res.annihilator).is_zero
            else:
                assert isinstance(res, NonZeroDivisor), x
    assert sum(counts.values()) == 2 * 15 * len(rings) >= 2000
    assert min(counts.values()) >= 50, counts


def test_decisions_match_the_block_route():
    """The shifted-copies systems give the verdicts, inverses,
    annihilators and reasons of the Laurent-block systems, on 1,000
    homogeneous elements of fine and coarse Z[Z^r x T] and Q[Z^r x T],
    r <= 2, T up to (2, 4), with one to four terms in one box-1 fiber.
    A single term takes the unit test's coefficient rule, whose reasons
    the block route does not give, so its reason is not compared."""
    rng = random.Random(4242)
    rings = []
    for rank in (0, 1, 2):
        for torsion in ((), (2,), (3,), (4,), (6,), (2, 2), (2, 4)):
            for base in (Q, Z):
                for grading in ("fine", "coarse"):
                    nf = group_algebra(base, FgGroup(rank, torsion), grading)
                    fibers = {}
                    for f in nf.egroup.box_elements(1):
                        fibers.setdefault(nf.delta.apply(f), []).append(f)
                    rings.append((nf, list(fibers.values())))
    seen = {}
    for _ in range(1000):
        nf, fibers = rng.choice(rings)
        fiber = rng.choice(fibers)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            c = rng.choice((-2, -1, 1, 2))
            if nf.base == "Q":
                c = Rational(c, rng.choice((1, 1, 2, 3)))
            terms[rng.choice(fiber)] = c
        x = Element(nf, terms)
        for got, want in ((homogeneous_unit_test(x), unit_by_blocks(x)),
                          (nzd_test(x), nzd_by_blocks(x))):
            kind = type(got).__name__
            assert kind == type(want).__name__, x
            assert (getattr(got, "inverse", None)
                    == getattr(want, "inverse", None)), x
            assert (getattr(got, "annihilator", None)
                    == getattr(want, "annihilator", None)), x
            if len(x.terms) > 1 or kind != "NotUnit":
                assert (getattr(got, "reason", None)
                        == getattr(want, "reason", None)), x
            key = (kind, len(x.terms) > 1)
            seen[key] = seen.get(key, 0) + 1
    assert min(seen[(kind, True)] for kind in ("Unit", "NotUnit",
               "ZeroDivisor", "NonZeroDivisor")) >= 25, sorted(seen.items())


def test_unit_over_torsion_needs_rational_coefficients():
    """(1+t)/2*z + (1-t)/2*z^-1 in Q[Z x Z/2] is its own kind of unit:
    no term is a unit alone.  Clearing denominators gives an element of
    Z[Z x Z/2] whose unique rational inverse is not integral."""
    for base, half in ((Q, Rational(1, 2)), (Z, 1)):
        nf = group_algebra(base, FgGroup(1, (2,)), "coarse")
        x = Element(nf, {nf.egroup.element((1, 0)): half,
                         nf.egroup.element((1, 1)): half,
                         nf.egroup.element((-1, 0)): half,
                         nf.egroup.element((-1, 1)): -half})
        res = homogeneous_unit_test(x)
        if nf.base == "Q":
            assert isinstance(res, Unit)
            assert res.inverse * x == Element.one(nf)
            assert res.inverse.terms == unit_inverse_box(nf, x.terms)
        else:
            assert isinstance(res, NotUnit)
            assert unit_inverse_box(nf, x.terms) is None


def test_unit_test_cost_follows_the_support():
    """The candidates are the reflected support, not the box it spans:
    1 + e(12,12,12,1) in Q[Z^3 x Z/4] has 2 x 4 of them, not 13^3 x 4."""
    nf = group_algebra(Q, FgGroup(3, (4,)), "coarse")
    x = Element.one(nf) + e(nf, 12, 12, 12, 1)
    start = time.perf_counter()
    assert isinstance(homogeneous_unit_test(x), NotUnit)
    assert time.perf_counter() - start < 1.0


def test_decisions_work_over_the_support_torsion(monkeypatch):
    """1 + 2e(1,0) in Q[Z/2 x Z/512] lives in Q[V] for V = <(1,0)> of
    order 2, and Q[Z/2 x Z/512] is free over Q[V]: the nullspace is taken
    over 2 columns, not 1,024, and the unit's inverse lies in Q[V]."""
    widths = []
    nullspace = element.nullspace_rational

    def recording(a, ncols=None):
        widths.append(ncols)
        return nullspace(a, ncols)

    monkeypatch.setattr(element, "nullspace_rational", recording)
    nf = group_algebra(Q, FgGroup(0, (2, 512)), "coarse")
    x = Element.one(nf) + e(nf, 1, 0, c=2)
    assert isinstance(nzd_test(x), NonZeroDivisor)
    assert widths == [2]
    res = homogeneous_unit_test(x)
    assert isinstance(res, Unit)
    assert res.inverse == Element(nf, {nf.egroup.zero(): Rational(-1, 3),
                                       nf.egroup.element((1, 0)):
                                       Rational(2, 3)})


# --- fractions ---

def test_fraction_gates():
    with pytest.raises(NotEntireError):
        Fraction(Element.one(QT), Element.one(QT))
    with pytest.raises(ZeroElementError):
        Fraction(Element.one(QZ), Element.zero(QZ))
    with pytest.raises(NotHomogeneousError):
        Fraction(Element.one(QZ), e(QZ, 0) + e(QZ, 1))


def test_fraction_of_a_non_element_is_a_typed_error():
    one = Element.one(QZ)
    for num, den in ((1, one), (one, 2), (one, None)):
        with pytest.raises(ParentMismatchError,
                           match="^cannot form a fraction of a "):
            Fraction(num, den)


def test_mixing_element_and_fraction_names_both_stably():
    """The error message shows the fraction by value, not by address, so
    it is the same from run to run."""
    one = Element.one(QZ)
    with pytest.raises(ParentMismatchError) as exc:
        one + Fraction(one, one)
    assert str(exc.value) == ("cannot combine Element with "
                              "<(e(0))/(e(0)) in Q[Z] graded by Z>")
    assert repr(Fraction(e(QZ, 1, c=3), e(QZ, 0) + e(QZ, 0))) == (
        "<(3*e(1))/(2*e(0)) in Q[Z] graded by Z>")


# --- the homogeneity transfer statement ---

def test_p70_positive():
    fine2 = group_algebra(Q, FgGroup(2, ()), "fine")
    psi = GroupHom(fine2.ggroup, FgGroup(1, ()), ((1, 1),))
    x = e(fine2, 1, 0, c=2)
    y = e(fine2, 0, 2, c=Rational(1, 3))
    rep = lemma_p70_check(fine2, psi, x, y)
    assert isinstance(rep, P70Report) and rep.passed


def test_p70_rejects_bad_hypotheses():
    fine2 = group_algebra(Q, FgGroup(2, ()), "fine")
    psi = GroupHom(fine2.ggroup, FgGroup(1, ()), ((1, 1),))
    with pytest.raises(PreconditionViolatedError):
        lemma_p70_check(fine2, psi, Element.zero(fine2), e(fine2, 0, 0))
    # Coarse-inhomogeneous factor.
    with pytest.raises(PreconditionViolatedError):
        lemma_p70_check(fine2, psi, e(fine2, 1, 0) + e(fine2, 0, 0),
                        e(fine2, 0, 1))
    # Torsion kernel.
    finet = group_algebra(Q, FgGroup(1, (2,)), "fine")
    psit = GroupHom(finet.ggroup, FgGroup(1, ()), ((1, 0),))
    with pytest.raises(PreconditionViolatedError):
        lemma_p70_check(finet, psit, Element.one(finet), Element.one(finet))


def coarse_homogeneous_sample(rng, nf, psi, max_terms=3):
    """Random nonzero element supported on one fiber of the coarsening."""
    exps = list(nf.egroup.box_elements(2))
    anchor = rng.choice(exps)
    target = psi.apply(nf.delta.apply(anchor))
    fiber = [f for f in exps if psi.apply(nf.delta.apply(f)) == target]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.choice(fiber)] = rng.choice([-2, -1, 1, 2])
    return Element(nf, terms)


def test_p70_random_trials():
    rng = random.Random(70)
    fine2 = group_algebra(Q, FgGroup(2, ()), "fine")
    psi = GroupHom(fine2.ggroup, FgGroup(1, ()), ((1, 2),))
    rc = coarsen(fine2, psi)
    hits = 0
    for _ in range(100):
        x = coarse_homogeneous_sample(rng, fine2, psi)
        y = coarse_homogeneous_sample(rng, fine2, psi)
        if x.is_zero or y.is_zero:
            continue
        assert is_homogeneous(reparent(x, rc))
        xy = x * y
        if not xy.is_zero and not is_homogeneous(xy):
            continue
        rep = lemma_p70_check(fine2, psi, x, y)
        assert rep.passed
        hits += 1
    assert hits > 20


@pytest.mark.parametrize("nf,c", [
    (ZZ, 1.5), (ZZ, 2.0), (ZZ, "3"), (ZZ, True), (ZZ, None),
    (QZ, 0.5), (QZ, "1/2"), (QZ, False),
])
def test_coefficients_are_int_or_fraction(nf, c):
    with pytest.raises(GradalError):
        Element(nf, {nf.egroup.element((1,)): c})


def test_scale_by_float_rejected():
    """Scalars, multiples and exponents follow the coefficient rule:
    int or Fraction, never float or bool."""
    for nf in (ZZ, QZ):
        x = 3 * e(nf, 1)
        for op in (lambda: x.scale(0.5), lambda: x * True,
                   lambda: True * x, lambda: x.scale(False),
                   lambda: x ** 2.0, lambda: x ** True,
                   lambda: True * nf.egroup.element((1,)),
                   lambda: 2.0 * nf.egroup.element((1,))):
            with pytest.raises(GradalError):
                op()


def test_coefficient_types_kept():
    c = Rational(2, 3)
    assert e(QZ, 1, c=c).coeff(QZ.egroup.element((1,))) is c
    x = e(ZZ, 1, c=Rational(4, 2))
    assert [type(v) for v in x.terms.values()] == [int]
    assert str(x) == "2*e(1)"
    assert [type(v) for v in e(QZ, 1, c=3).terms.values()] == [Rational]


def test_decision_self_check_is_internal(monkeypatch):
    """Both decisions verify what their solver returns, so a wrong
    solver vector is a bug (exit 5), not a verdict."""
    def first_basis_vector(n):
        return [Rational(1)] + [Rational(0)] * (n - 1)

    monkeypatch.setattr(element, "nullspace_rational",
                        lambda a, n: [first_basis_vector(n)])
    monkeypatch.setattr(element, "solve_rational",
                        lambda a, b, n: first_basis_vector(n))
    x = e(QT, 0) + e(QT, 2)
    with pytest.raises(InternalInvariantError):
        nzd_test(x)
    with pytest.raises(InternalInvariantError):
        homogeneous_unit_test(x)
