"""Witness engine: integrality, almost-integrality, division, transport."""

import random
from fractions import Fraction as Rational
from itertools import product
from math import lcm

import pytest

from _oracles import divide_reference
import gradal.closure as closure
from gradal.abelian import FgGroup, GroupHom
from gradal.closure import (
    AlmostIntegralWitness,
    IntegralityWitness,
    NoWitnessUpTo,
    components_integral_check,
    find_almost_integral_witness,
    find_integral_equation,
    find_integral_equation_fraction,
    graded_euclidean_division,
    inclusion_for,
    j_pi_embedding,
    laurent_extension,
    lem50_iso,
    torsion_idempotent,
    verify_integral_witness,
    witness_str,
)
from gradal.element import Element, Fraction, reparent
from gradal.intmat import solve_int
from gradal.errors import (
    BadOrderError,
    GradalError,
    HypothesisViolatedError,
    IncompatibleRingsError,
    NotASectionError,
    NotSimpleBaseError,
    ZeroElementError,
)
from gradal.ringexpr import (
    BaseQ,
    BaseZ,
    coarsen,
    fraction_field,
    group_algebra,
    normalize,
)

Q = normalize(BaseQ())
Z = normalize(BaseZ())


def e(nf, *coords, c=1):
    return Element.monomial(nf, nf.egroup.element(coords), c)


def z_top(struct, x):
    return max(struct.z_proj.apply(t).coords[0] for t in x.terms)


# --- inclusions ---

def test_inclusion_z_in_q():
    zr = group_algebra(Z, FgGroup(0, (2,)), "coarse")
    qr = group_algebra(Q, FgGroup(0, (2,)), "coarse")
    incl = inclusion_for(zr, qr)
    x = e(zr, 1, c=3)
    assert incl.cast(x).parent == qr
    assert incl.member(incl.cast(x)) == x
    assert incl.member(e(qr, 0, c=Rational(1, 2))) is None


def test_inclusion_rejects_mismatch():
    zr = group_algebra(Z, FgGroup(1, ()), "fine")
    qr = group_algebra(Q, FgGroup(0, (2,)), "coarse")
    with pytest.raises(IncompatibleRingsError):
        inclusion_for(zr, qr)
    with pytest.raises(IncompatibleRingsError):
        inclusion_for(group_algebra(Q, FgGroup(1, ()), "fine"),
                      group_algebra(Z, FgGroup(1, ()), "fine"))


# --- the torsion idempotent ---

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_torsion_idempotent_identities(n):
    rec = torsion_idempotent(n)
    assert rec.n == n
    rq, rz = rec.ring_q, rec.ring_z
    incl = inclusion_for(rz, rq)
    one = Element.one(rq)
    cf = incl.cast(rec.c)
    df = incl.cast(rec.d)
    assert rec.f * rec.f == rec.f
    assert df == rec.f.scale(n)
    assert rec.f * rec.f + (cf - one) * rec.f - df == Element.zero(rq)
    assert rec.witness.degree == 2
    assert verify_integral_witness(rz, rq, rec.f, rec.witness)
    # f itself has no integer-coefficient representative.
    assert incl.member(rec.f) is None


def test_torsion_idempotent_bad_order():
    with pytest.raises(BadOrderError):
        torsion_idempotent(1)
    with pytest.raises(BadOrderError):
        torsion_idempotent(0)


def test_idempotent_witness_canonical_search():
    rec = torsion_idempotent(2)
    found = find_integral_equation(rec.ring_z, rec.ring_q, rec.f,
                                   max_deg=3, support_box=1)
    assert isinstance(found, IntegralityWitness)
    assert found.degree == 2
    assert witness_str(found) == "monic 2; a1 = -e(0); a2 = 0"
    assert verify_integral_witness(rec.ring_z, rec.ring_q, rec.f, found)


def test_witness_bruteforce_enumeration_degree2():
    """Exhaust all monic degree-2 relations with coefficients in the
    torsion box and entries in [-2, 2]; the engine's witness is one of
    them, and no degree-1 relation exists at any of these entries."""
    rec = torsion_idempotent(2)
    rq, rz, f = rec.ring_q, rec.ring_z, rec.f
    exps = list(rq.egroup.box_elements(1))
    assert len(exps) == 2
    solutions = []
    rng = range(-2, 3)
    for c1 in product(rng, repeat=2):
        for c0 in product(rng, repeat=2):
            a1 = Element(rz, dict(zip(exps, c1)))
            a2 = Element(rz, dict(zip(exps, c0)))
            lhs = f * f + reparent(a1, rq) * f + reparent(a2, rq)
            if lhs.is_zero:
                solutions.append((dict(a1.terms), dict(a2.terms)))
    assert solutions
    found = find_integral_equation(rz, rq, f, max_deg=2, support_box=1)
    assert isinstance(found, IntegralityWitness) and found.degree == 2
    key = (dict(found.coeffs[0].terms), dict(found.coeffs[1].terms))
    assert key in solutions
    # degree 1 is impossible: f has no integer-coefficient negative.
    for c0 in product(rng, repeat=2):
        a1 = Element(rz, dict(zip(exps, c0)))
        assert not (f + reparent(a1, rq)).is_zero


def test_no_witness_for_half():
    qr = group_algebra(Q, FgGroup(0, ()), "fine")
    zr = group_algebra(Z, FgGroup(0, ()), "fine")
    x = Element.one(qr).scale(Rational(1, 2))
    res = find_integral_equation(zr, qr, x, max_deg=3, support_box=2)
    assert isinstance(res, NoWitnessUpTo)
    assert res.max_deg == 3
    # Spot check: clearing denominators of any monic relation for 1/2
    # leaves 1 = 0 mod 2, so small sweeps must also find nothing.
    for deg in (1, 2, 3):
        for coeffs in product(range(-4, 5), repeat=deg):
            acc = x ** deg
            for i, a in enumerate(coeffs):
                acc = acc + (x ** (deg - 1 - i)).scale(a)
            assert not acc.is_zero


def test_integral_vs_almost_aligned():
    """The membership system at power k+1 is the monic system at degree
    k+1, so both searches return matching data at aligned bounds."""
    rec = torsion_idempotent(3)
    rz, rq, f = rec.ring_z, rec.ring_q, rec.f
    intg = find_integral_equation(rz, rq, f, max_deg=2, support_box=1)
    alm = find_almost_integral_witness(rz, rq, f, k_max=1, support_box=1)
    assert isinstance(intg, IntegralityWitness)
    assert isinstance(alm, AlmostIntegralWitness)
    assert alm.k == intg.degree - 1
    assert list(alm.combination) == [-c for c in reversed(list(intg.coeffs))]
    # Replay the membership: f^(k+1) = sum combination[i] * f^i.
    incl = inclusion_for(rz, rq)
    acc = Element.zero(rq)
    for i, ri in enumerate(alm.combination):
        acc = acc + incl.cast(ri) * f ** i
    assert acc == f ** (alm.k + 1)
    # The fraction searches share the system, so they align the same way.
    zr = group_algebra(Z, FgGroup(1, ()), "fine")
    qr = group_algebra(Q, FgGroup(1, ()), "fine")
    zc = group_algebra(Z, FgGroup(1, ()), "coarse")
    t, one = e(zr, 1), Element.one(zr)
    fractions = [(zr, Fraction(t, one)), (zr, Fraction(one, t)),
                 (zc, Fraction(e(zc, 2) + e(zc, 1, c=3), e(zc, 1))),
                 (zr, Fraction(e(qr, 2, c=Rational(4, 3)),
                               e(qr, 1, c=Rational(2, 3)))),
                 (qr, Fraction(e(qr, 1, c=Rational(1, 2)), e(qr, -1)))]
    for sub, x in fractions:
        intg = fraction_search(sub, x, max_deg=2, support_box=2)
        alm = find_almost_integral_witness(sub, x.parent, x, k_max=1,
                                           support_box=2)
        assert isinstance(intg, IntegralityWitness)
        assert isinstance(alm, AlmostIntegralWitness)
        assert alm.k == intg.degree - 1
        assert list(alm.combination) == [-c for c in
                                         reversed(list(intg.coeffs))]


def test_almost_no_witness_over_free_group():
    zr = group_algebra(Z, FgGroup(1, ()), "fine")
    qr = group_algebra(Q, FgGroup(1, ()), "fine")
    x = e(qr, 1, c=Rational(1, 2))
    assert isinstance(find_integral_equation(zr, qr, x, 2, 2), NoWitnessUpTo)
    assert isinstance(find_almost_integral_witness(zr, qr, x, 2, 2),
                      NoWitnessUpTo)


# --- fraction-field witnesses ---

def fraction_search(sub, x, **bounds):
    """find_integral_equation on a fraction, checked against the alias
    find_integral_equation_fraction that the T4800 check calls."""
    w = find_integral_equation(sub, x.parent, x, **bounds)
    alias = find_integral_equation_fraction(sub, x, **bounds)
    assert type(alias) is type(w)
    if isinstance(w, IntegralityWitness):
        assert (alias.degree, alias.coeffs) == (w.degree, w.coeffs)
    return w


def test_fraction_integrality():
    zr = group_algebra(Z, FgGroup(1, ()), "fine")
    t = e(zr, 1)
    one = Element.one(zr)
    fr = Fraction(t, one)
    res = fraction_search(zr, fr, max_deg=2, support_box=2)
    assert isinstance(res, IntegralityWitness)
    assert res.degree == 1
    inv = Fraction(one, t)
    res2 = fraction_search(zr, inv, max_deg=2, support_box=2)
    assert isinstance(res2, IntegralityWitness)
    assert res2.degree == 1
    alm = find_almost_integral_witness(zr, inv.parent, inv, k_max=1,
                                       support_box=2)
    assert isinstance(alm, AlmostIntegralWitness)
    assert alm.k == 0


def test_fraction_non_integral():
    zr = group_algebra(Z, FgGroup(1, ()), "fine")
    half = Fraction(Element.one(zr), Element.one(zr).scale(2))
    res = fraction_search(zr, half, max_deg=2, support_box=1)
    assert isinstance(res, NoWitnessUpTo)


def solve_linear_z_by_fraction_scaling(rows, rhs, ncols):
    """The integer path as it scaled rows before: int(v * lcm)."""
    int_rows = []
    int_rhs = []
    for row, b in zip(rows, rhs):
        scale = lcm(*(v.denominator for v in row + [b])) if row or b else 1
        int_rows.append([int(v * scale) for v in row])
        int_rhs.append(int(b * scale))
    sol = solve_int(int_rows, int_rhs, len(int_rows), ncols)
    return None if sol is None else [Rational(v) for v in sol]


def test_z_path_scaling_matches_fraction_scaling():
    """Integer row scaling in _solve_linear gives exactly the solutions
    the Fraction scaling gave, on rows with int and Fraction entries,
    zero rows, negative entries and rows whose only nonzero is the
    right-hand side."""
    rng = random.Random(6060)

    def entry():
        k = rng.randint(-6, 6)
        if rng.random() < 0.4:
            return 0
        return Rational(k, rng.randint(1, 6)) if rng.random() < 0.6 else k

    feasible = rhs_only = 0
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(0, 5)
        rows = [[entry() for _ in range(n)] for _ in range(m)]
        for i in rng.sample(range(m), rng.randint(0, m)):
            if rng.random() < 0.5:
                rows[i] = [0] * n
        x0 = [rng.randint(-3, 3) for _ in range(n)]
        rhs = [sum(v * w for v, w in zip(row, x0)) for row in rows]
        if rng.random() < 0.5:
            rhs = [b + entry() if rng.random() < 0.3 else b for b in rhs]
        rhs = [Rational(b) if rng.random() < 0.7 else b for b in rhs]
        want = solve_linear_z_by_fraction_scaling(rows, rhs, n)
        assert closure._solve_linear("Z", rows, rhs, n) == want
        feasible += want is not None
        rhs_only += any(b and not any(row) for row, b in zip(rows, rhs))
    assert 100 < feasible < 300 and rhs_only > 20


def test_verify_fraction_witness():
    """One verification serves fractions: the degree checks apply too."""
    zr = group_algebra(Z, FgGroup(1, ()), "fine")
    zc = group_algebra(Z, FgGroup(1, ()), "coarse")
    t, one = e(zr, 1), Element.one(zr)
    for sub, x in ((zr, Fraction(t, one)), (zr, Fraction(one, t)),
                   (zc, Fraction(e(zc, 2) + e(zc, 1, c=3), e(zc, 1)))):
        found = fraction_search(sub, x, max_deg=2, support_box=2)
        assert isinstance(found, IntegralityWitness)
        assert verify_integral_witness(sub, x.parent, x, found)
    # (x - t)(x - 1) = 0 holds for x = t/1, but a1 = -(t + 1) is not
    # homogeneous and a2 = t has degree 1, not 2 * deg(x).
    x = Fraction(t, one)
    bad = IntegralityWitness(2, (-(t + one), t))
    assert (x * x - Fraction.from_element(t + one) * x
            + Fraction.from_element(t)).is_zero
    assert not verify_integral_witness(zr, zr, x, bad)
    assert not verify_integral_witness(zr, zr, t, bad)


def test_finders_reject_zero():
    zr = group_algebra(Z, FgGroup(1, ()), "fine")
    qr = group_algebra(Q, FgGroup(1, ()), "fine")
    zero_frac = Fraction(Element.zero(zr), Element.one(zr))
    with pytest.raises(ZeroElementError):
        find_integral_equation(zr, qr, Element.zero(qr))
    with pytest.raises(ZeroElementError):
        find_almost_integral_witness(zr, qr, Element.zero(qr))
    with pytest.raises(ZeroElementError):
        find_integral_equation(zr, zero_frac.parent, zero_frac)
    with pytest.raises(ZeroElementError):
        find_integral_equation_fraction(zr, zero_frac)
    with pytest.raises(ZeroElementError):
        find_almost_integral_witness(zr, zero_frac.parent, zero_frac)


# --- component integrality ---

def make_summand_rings():
    qr = group_algebra(Q, FgGroup(2, ()), "fine")
    zr = group_algebra(Z, FgGroup(2, ()), "fine")
    psi = GroupHom(qr.ggroup, FgGroup(1, ()), ((0, 1),))
    return zr, qr, psi


def test_components_both():
    zr, qr, psi = make_summand_rings()
    # Coarse-homogeneous: both exponents share the second coordinate.
    x = e(qr, 0, 1) + e(qr, 2, 1)
    rep = components_integral_check(zr, psi, x, max_deg=2, support_box=2)
    assert rep.outcome == "both"
    assert rep.coarse_found and rep.fine_found
    assert len(rep.fine_results) == 2


def test_components_only_coarse_idempotent():
    fine_q = group_algebra(Q, FgGroup(0, (2,)), "fine")
    fine_z = group_algebra(Z, FgGroup(0, (2,)), "fine")
    psi = GroupHom(fine_q.ggroup, FgGroup(0, ()), ())
    x = Element(fine_q, {fine_q.egroup.element((i,)): Rational(1, 2)
                         for i in range(2)})
    rep = components_integral_check(fine_z, psi, x, max_deg=3, support_box=1)
    assert rep.outcome == "only-coarse"
    assert rep.coarse_found and not rep.fine_found
    assert rep.coarse_result.degree == 2


def test_components_neither():
    zr, qr, psi = make_summand_rings()
    x = e(qr, 0, 1, c=Rational(1, 2)) + e(qr, 2, 1, c=Rational(1, 3))
    rep = components_integral_check(zr, psi, x, max_deg=2, support_box=1)
    assert rep.outcome == "neither"


def test_components_rejects_zero():
    zr, qr, psi = make_summand_rings()
    with pytest.raises(ZeroElementError):
        components_integral_check(zr, psi, Element.zero(qr))


# --- graded euclidean division ---

def test_laurent_structure_shape():
    struct = laurent_extension(Q)
    assert struct.base_ring == Q
    assert struct.ring == group_algebra(Q, FgGroup(1, ()), "coarse")
    assert struct.z_proj.apply(struct.z_gen).coords == (1,)
    frac = fraction_field(group_algebra(Q, FgGroup(1, ()), "fine"))
    with pytest.raises(GradalError):
        laurent_extension(frac)


def test_division_worked_example():
    struct = laurent_extension(Q)
    ring = struct.ring
    f = e(ring, 1) - e(ring, 0)
    g = e(ring, 2) + e(ring, 0)
    u, v = graded_euclidean_division(struct, f, g)
    assert u == e(ring, 1) + e(ring, 0)
    assert v == e(ring, 0, c=2)
    assert g == u * f + v


def test_division_high_power():
    struct = laurent_extension(Q)
    ring = struct.ring
    f = e(ring, 1) + e(ring, 0)
    g = e(ring, 40)
    u, v = graded_euclidean_division(struct, f, g)
    assert g == u * f + v
    assert v == e(ring, 0)
    assert z_top(struct, v) < z_top(struct, f)


def test_division_edge_cases():
    struct = laurent_extension(Q)
    ring = struct.ring
    f = e(ring, 1) - e(ring, 0)
    with pytest.raises(ZeroElementError):
        graded_euclidean_division(struct, Element.zero(ring), f)
    u, v = graded_euclidean_division(struct, f, Element.zero(ring))
    assert u.is_zero and v.is_zero
    zstruct = laurent_extension(Z)
    zf = e(zstruct.ring, 1)
    with pytest.raises(NotSimpleBaseError):
        graded_euclidean_division(zstruct, zf, zf)
    with pytest.raises(IncompatibleRingsError):
        graded_euclidean_division(struct, zf, zf)


def random_laurent_pair(rng, struct, max_span=3):
    ring = struct.ring
    top = rng.randint(-1, 2)
    f_terms = {ring.egroup.element((top,)): rng.choice([1, -1, 2])}
    for k in range(top - max_span, top):
        if rng.random() < 0.6:
            f_terms[ring.egroup.element((k,))] = rng.choice(
                [-2, -1, 1, 2, Rational(1, 2)])
    g_terms = {}
    for _ in range(rng.randint(0, 5)):
        k = rng.randint(-3, 4)
        g_terms[ring.egroup.element((k,))] = rng.choice(
            [-3, -1, 1, 2, Rational(2, 3)])
    return Element(ring, f_terms), Element(ring, g_terms)


def test_division_random_against_reference():
    rng = random.Random(4242)
    struct = laurent_extension(Q)
    for _ in range(150):
        f, g = random_laurent_pair(rng, struct)
        u, v = graded_euclidean_division(struct, f, g)
        assert g == u * f + v
        if not v.is_zero:
            assert z_top(struct, v) < z_top(struct, f)
        ref = divide_reference(struct, f, g)
        assert ref is not None
        quo, rem = ref
        ru = Element(struct.ring, quo)
        rv = Element(struct.ring, rem)
        assert g == ru * f + rv


def test_division_term_order_independence():
    rng = random.Random(515)
    struct = laurent_extension(Q)
    for _ in range(60):
        f, g = random_laurent_pair(rng, struct)
        u1, v1 = graded_euclidean_division(struct, f, g)
        fs = list(f.terms.items())
        gs = list(g.terms.items())
        rng.shuffle(fs)
        rng.shuffle(gs)
        f2 = Element(struct.ring, dict(fs))
        g2 = Element(struct.ring, dict(gs))
        u2, v2 = graded_euclidean_division(struct, f2, g2)
        assert u1 == u2 and v1 == v2


def test_division_over_graded_base():
    base = group_algebra(Q, FgGroup(1, ()), "fine")
    struct = laurent_extension(base)
    ring = struct.ring
    rng = random.Random(9000)
    for _ in range(60):
        af = rng.randint(-2, 2)
        ag = rng.randint(-2, 2)
        top = rng.randint(0, 2)
        f_terms = {ring.egroup.element((af, top)): rng.choice([1, -2])}
        for k in range(top - 2, top):
            if rng.random() < 0.5:
                f_terms[ring.egroup.element((af, k))] = rng.choice(
                    [-1, 2, Rational(1, 2)])
        g_terms = {}
        for _ in range(rng.randint(0, 4)):
            g_terms[ring.egroup.element((ag, rng.randint(-2, 3)))] = (
                rng.choice([-2, 1, Rational(1, 2)]))
        f = Element(ring, f_terms)
        g = Element(ring, g_terms)
        u, v = graded_euclidean_division(struct, f, g)
        assert g == u * f + v
        if not v.is_zero:
            assert z_top(struct, v) < z_top(struct, f)


# --- exponent transport ---

def lem50_plane():
    r = group_algebra(Q, FgGroup(2, ()), "fine")
    g = r.ggroup
    return r, lem50_iso(r, [g.element((1, 0))], [g.element((0, 1))])


def random_coarse_element(rng, pair):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[pair.coarse.egroup.element(
            (rng.randint(-2, 2), rng.randint(-2, 2)))] = rng.choice(
                [-1, 1, 2, Rational(1, 2)])
    return Element(pair.coarse, terms)


def test_lem50_round_trip():
    _, pair = lem50_plane()
    rng = random.Random(50)
    for _ in range(40):
        x = random_coarse_element(rng, pair)
        y = pair.q.apply(x)
        assert y.parent == pair.target
        assert pair.p.apply(y) == x
    for _ in range(40):
        terms = {pair.target.egroup.element(
            (rng.randint(-2, 2), rng.randint(-2, 2))): rng.choice([1, -2])
            for _ in range(rng.randint(1, 3))}
        x2 = Element(pair.target, terms)
        assert pair.q.apply(pair.p.apply(x2)) == x2


def test_lem50_multiplicative_and_degrees():
    _, pair = lem50_plane()
    rng = random.Random(51)
    for _ in range(30):
        a = random_coarse_element(rng, pair)
        b = random_coarse_element(rng, pair)
        assert pair.q.apply(a * b) == pair.q.apply(a) * pair.q.apply(b)
    assert pair.q.apply(Element.one(pair.coarse)) == Element.one(pair.target)
    # Monomials keep their coarse degree across the transport.
    for _ in range(30):
        exp = pair.coarse.egroup.element(
            (rng.randint(-2, 2), rng.randint(-2, 2)))
        x = Element.monomial(pair.coarse, exp, 1)
        lhs = pair.coarse.delta.apply(exp)
        rhs = pair.target.delta.apply(next(iter(pair.q.apply(x).terms)))
        assert lhs == rhs


def test_lem50_rejects_torsion_f():
    r = group_algebra(Q, FgGroup(1, (2,)), "fine")
    g = r.ggroup
    with pytest.raises(HypothesisViolatedError):
        lem50_iso(r, [g.element((0, 1))], [g.element((1, 0))])


def test_lem50_rejects_non_simple():
    r = group_algebra(Z, FgGroup(2, ()), "fine")
    g = r.ggroup
    with pytest.raises(HypothesisViolatedError):
        lem50_iso(r, [g.element((1, 0))], [g.element((0, 1))])


def test_j_pi_embedding_properties():
    r = group_algebra(Q, FgGroup(2, ()), "fine")
    psi = GroupHom(r.ggroup, FgGroup(1, ()), ((1, 0),))
    pi = GroupHom(FgGroup(1, ()), r.ggroup, ((1,), (0,)))
    j = j_pi_embedding(r, psi, pi)
    co = coarsen(r, psi)
    assert j.domain == co
    rng = random.Random(110)
    for _ in range(30):
        xt = {co.egroup.element((rng.randint(-2, 2), rng.randint(-2, 2))):
              rng.choice([1, -1, 2]) for _ in range(rng.randint(1, 3))}
        yt = {co.egroup.element((rng.randint(-2, 2), rng.randint(-2, 2))):
              rng.choice([1, 2]) for _ in range(rng.randint(1, 2))}
        x = Element(co, xt)
        y = Element(co, yt)
        assert j.apply(x * y) == j.apply(x) * j.apply(y)
    assert j.apply(Element.one(co)) == Element.one(j.codomain)


def test_j_pi_rejects_non_section():
    r = group_algebra(Q, FgGroup(2, ()), "fine")
    psi = GroupHom(r.ggroup, FgGroup(1, ()), ((1, 0),))
    bad_pi = GroupHom(FgGroup(1, ()), r.ggroup, ((2,), (0,)))
    with pytest.raises(NotASectionError):
        j_pi_embedding(r, psi, bad_pi)
