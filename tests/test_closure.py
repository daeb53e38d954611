"""Witness engine: integrality, almost-integrality, division, transport."""

import random
from fractions import Fraction as Rational
from itertools import product
from math import lcm

import pytest

from _oracles import (
    divide_reference,
    lem50_reference,
    ring_map_by_terms,
    search_every_degree,
    sparse_rows,
    verify_by_fractions,
)
import gradal.closure as closure
import gradal.ringexpr as ringexpr
from gradal.abelian import (
    FgGroup,
    GroupHom,
    box_fiber,
    direct_sum,
    find_section,
    hom_kernel,
    identity_hom,
    quotient_by,
)
from gradal.closure import (
    AlmostIntegralWitness,
    IntegralityWitness,
    NoWitnessUpTo,
    RingMap,
    _z_top,
    components_integral_check,
    find_almost_integral_witness,
    find_integral_equation,
    find_integral_equation_fraction,
    graded_euclidean_division,
    j_pi_embedding,
    laurent_extension,
    lem50_iso,
    torsion_idempotent,
    verify_integral_witness,
    witness_str,
)
from gradal.element import Element, Fraction, degree_of, reparent
from gradal.harness import generate_instance
from gradal.intmat import solve_int
from gradal.errors import (
    BadOrderError,
    GradalError,
    HypothesisViolatedError,
    IncompatibleRingsError,
    InternalInvariantError,
    NotASectionError,
    NotSimpleBaseError,
    ParentMismatchError,
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
    regrade_extend,
)

Q = normalize(BaseQ())
Z = normalize(BaseZ())


def e(nf, *coords, c=1):
    return Element.monomial(nf, nf.egroup.element(coords), c)


# --- inclusions: a base change is a reparent ---

def test_inclusion_z_in_q():
    zr = group_algebra(Z, FgGroup(0, (2,)), "coarse")
    qr = group_algebra(Q, FgGroup(0, (2,)), "coarse")
    x = e(zr, 1, c=3)
    assert reparent(x, qr).parent == qr
    assert reparent(reparent(x, qr), zr) == x
    with pytest.raises(GradalError, match="not an integer"):
        reparent(e(qr, 0, c=Rational(1, 2)), zr)


def test_inclusion_rejects_mismatch():
    """Every entry point that takes a pair of rings refuses a pair that
    is not a base change Z into Z, Z into Q or Q into Q."""
    zr = group_algebra(Z, FgGroup(1, ()), "fine")
    qr = group_algebra(Q, FgGroup(1, ()), "fine")
    q2 = group_algebra(Q, FgGroup(0, (2,)), "coarse")
    w = IntegralityWitness(1, (Element.zero(zr),))
    psi = GroupHom(zr.ggroup, FgGroup(0, ()), ())
    bad_pairs = [(zr, q2, e(q2, 1)), (qr, zr, e(zr, 1)),
                 (fraction_field(zr), fraction_field(qr), e(qr, 1))]
    for r, s, x in bad_pairs:
        with pytest.raises(IncompatibleRingsError):
            find_integral_equation(r, s, x)
        with pytest.raises(IncompatibleRingsError):
            find_almost_integral_witness(r, s, x)
        with pytest.raises(IncompatibleRingsError):
            verify_integral_witness(r, s, x, w)
        with pytest.raises(IncompatibleRingsError):
            components_integral_check(r, psi, x)


# --- the torsion idempotent ---

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_torsion_idempotent_identities(n):
    rec = torsion_idempotent(n)
    assert rec.n == n
    rq, rz = rec.ring_q, rec.ring_z
    one = Element.one(rq)
    cf = reparent(rec.c, rq)
    df = reparent(rec.d, rq)
    assert rec.f * rec.f == rec.f
    assert df == rec.f.scale(n)
    assert rec.f * rec.f + (cf - one) * rec.f - df == Element.zero(rq)
    assert rec.witness.degree == 2
    assert verify_integral_witness(rz, rq, rec.f, rec.witness)
    # f itself has no integer-coefficient representative.
    with pytest.raises(GradalError, match="not an integer"):
        reparent(rec.f, rz)


def test_torsion_idempotent_bad_order():
    with pytest.raises(BadOrderError):
        torsion_idempotent(1)
    with pytest.raises(BadOrderError):
        torsion_idempotent(0)
    with pytest.raises(BadOrderError, match="need n <= 256, got 257"):
        torsion_idempotent(257)


def test_torsion_idempotent_order_must_be_an_int():
    """A bool or a float order is refused as an order, not read as a
    number (True) or reported as a bad invariant factor (2.0)."""
    for n in (True, 2.0, "2"):
        with pytest.raises(BadOrderError, match="^orders must be ints, got "):
            torsion_idempotent(n)


def test_idempotent_witness_canonical_search():
    rec = torsion_idempotent(2)
    found = find_integral_equation(rec.ring_z, rec.ring_q, rec.f,
                                   max_deg=3, support_box=1)
    assert isinstance(found, IntegralityWitness)
    assert found.degree == 2
    assert witness_str(found) == "monic 2; a1 = -e(0); a2 = 0"
    assert verify_integral_witness(rec.ring_z, rec.ring_q, rec.f, found)


def test_verify_refuses_spoilt_witnesses():
    """The A90 witness verifies; a non-witness, a degree below 1, a wrong
    number of coefficients and a coefficient outside r do not.  A
    coefficient of the wrong degree needs a grading, so that case is the
    witness X - e(1) of e(1) over Z[Z]fine with a1 moved to degree 0."""
    rec = torsion_idempotent(2)
    rz, rq, f = rec.ring_z, rec.ring_q, rec.f
    a1, a2 = rec.witness.coeffs
    assert verify_integral_witness(rz, rq, f, rec.witness)
    for w in (rec.witness.coeffs, IntegralityWitness(0, ()),
              IntegralityWitness(2, (a1,)), IntegralityWitness(3, (a1, a2)),
              IntegralityWitness(2, (a1, reparent(a2, rq)))):
        assert not verify_integral_witness(rz, rq, f, w)
    zr = group_algebra(Z, FgGroup(1, ()), "fine")
    qr = group_algebra(Q, FgGroup(1, ()), "fine")
    w = IntegralityWitness(1, (-e(zr, 1),))
    assert verify_integral_witness(zr, qr, e(qr, 1), w)
    for a1 in (-e(zr, 0), e(zr, 0) - e(zr, 1)):
        w = IntegralityWitness(1, (a1,))
        assert not verify_integral_witness(zr, qr, e(qr, 1), w)
    # A record takes its fields by position, by keyword or both.
    a1 = -e(zr, 1)
    for w in (IntegralityWitness(1, (a1,)),
              IntegralityWitness(1, coeffs=(a1,)),
              IntegralityWitness(coeffs=(a1,), degree=1)):
        assert (w.degree, w.coeffs) == (1, (a1,))
        assert verify_integral_witness(zr, qr, e(qr, 1), w)
    for bad in (lambda: IntegralityWitness(1, (a1,), 2),
                lambda: IntegralityWitness(1, coefs=(a1,)),
                lambda: IntegralityWitness(1, degree=1)):
        with pytest.raises(TypeError):
            bad()


def test_search_refuses_x_outside_the_big_ring():
    rec = torsion_idempotent(2)
    x = Element.one(rec.ring_z)
    with pytest.raises(IncompatibleRingsError, match="the big ring"):
        find_integral_equation(rec.ring_z, rec.ring_q, x)


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
    acc = Element.zero(rq)
    for i, ri in enumerate(alm.combination):
        acc = acc + reparent(ri, rq) * f ** i
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


# --- the search stops at degree 1 where no higher witness can exist ---

PAIRS = (("Z", "Z"), ("Z", "Q"), ("Q", "Q"))
RINGS = {"Z": Z, "Q": Q}


def _query_ring(rng, base, torsion, entire):
    """base[E] with E = Z^rank x T, fine-graded, graded by T or by the
    total free degree, or trivially; only entire gradings if asked.  No
    trivial grading on Z^2: its degree-3 systems over Z take the
    every-degree reference minutes."""
    t = rng.choice(((2,), (3,), (2, 2))) if torsion else ()
    e = FgGroup(rng.randint(0, 1) if torsion else rng.randint(0, 2), t)
    fine = group_algebra(RINGS[base], e, "fine")
    gradings = ["fine", "torsion"] if torsion else ["fine"]
    if e.rank and not (torsion and entire):
        gradings.append("total")
    if e.rank < 2 and not (torsion and entire):
        gradings.append("coarse")
    kind = rng.choice(gradings)
    if kind == "coarse":
        return group_algebra(RINGS[base], e, "coarse")
    if kind == "fine":
        return fine
    rows = ([[int(i == e.rank + j) for i in range(e.dim)]
             for j in range(len(t))] if kind == "torsion"
            else [[int(i < e.rank) for i in range(e.dim)]])
    cod = FgGroup(0, t) if kind == "torsion" else FgGroup(1, ())
    return coarsen(fine, GroupHom(e, cod, rows))


def _query_homogeneous(rng, nf, box):
    anchor = rng.choice(list(nf.egroup.box_elements(box)))
    fiber = box_fiber(nf.delta, box, nf.delta.apply(anchor))
    terms = {}
    for _ in range(rng.randint(1, 3)):
        c = rng.choice((-2, -1, 1, 2))
        if nf.base == "Q" and rng.randint(0, 1):
            c = Rational(c, rng.choice((2, 3)))
        terms[rng.choice(fiber)] = c
    return Element(nf, terms)


def _query_rings(rng, pair, torsion, entire):
    """(r, s) over the bases of pair, s being r over the wider base."""
    state = rng.getstate()  # replayed so that r is s over r's base
    s = _query_ring(rng, pair[1], torsion, entire)
    rng.setstate(state)
    return _query_ring(rng, pair[0], torsion, entire), s


def _query(rng, pair, torsion, fraction):
    """(r, s, x) with r, s over the bases of pair and x an element of s
    or a homogeneous fraction over s.  One element in four over Q is
    e_f times the idempotent averaging a degree-0 torsion subgroup, which
    over Z needs a witness of degree 2."""
    r, s = _query_rings(rng, pair, torsion, fraction)
    x = _query_homogeneous(rng, s, rng.randint(1, 2))
    ts = [t for t in s.egroup.torsion_elements()
          if not t.is_zero and s.delta.apply(t).is_zero]
    if s.base == "Q" and ts and not fraction and rng.randint(0, 3) == 0:
        t, f = rng.choice(ts), rng.choice(list(s.egroup.box_elements(1)))
        n = t.elem_order()
        x = Element(s, {f + i * t: Rational(1, n) for i in range(n)})
    if fraction:
        den = _query_homogeneous(rng, s, 1)
        x = Fraction(x * den if rng.randint(0, 1) else x, den)
    return r, s, x


def _outcome(w):
    return witness_str(w) if isinstance(w, IntegralityWitness) else (
        w.max_deg, w.box)


def test_search_matches_every_degree_reference():
    """Same result as the search over every degree up to max_deg, on
    random queries in each of the 12 classes: base pair x E with or
    without torsion x element or fraction."""
    rng = random.Random(1659)
    classes = [(p, t, f) for p in PAIRS for t in (False, True)
               for f in (False, True)]
    degrees = {c: set() for c in classes}
    for i in range(1560):
        cls = classes[i % len(classes)]
        r, s, x = _query(rng, *cls)
        max_deg, box = rng.randint(1, 3), rng.randint(1, 2)
        got = find_integral_equation(r, s, x, max_deg, box)
        ref = search_every_degree(r, s, x, max_deg, box)
        want = ref or NoWitnessUpTo(max_deg=max_deg, box=box)
        assert _outcome(got) == _outcome(want), (cls, x, max_deg, box)
        degrees[cls].add(getattr(got, "degree", None))
    for cls, seen in degrees.items():
        assert 1 in seen and None in seen, (cls, seen)
    assert 2 in degrees[(("Z", "Q"), True, False)]


# A degree-2 witness over Z with torsion is not unique: x^2 - e(f) x = 0
# for every f in the coset that x averages over.  solve_int picks one by
# the order of the system's rows, so these literals pin that order.
PINNED_DEGREE_2 = {
    3: "monic 2; a1 = -e(0); a2 = 0",
    19: "monic 2; a1 = -e(1,1,0); a2 = 0",
    40: "monic 2; a1 = -e(0); a2 = 0",
    57: "monic 2; a1 = -e(0); a2 = 0",
    68: "monic 2; a1 = -e(0,1); a2 = 0",
    79: "monic 2; a1 = -e(-1,0); a2 = 0",
    82: "monic 2; a1 = -e(-1,0); a2 = 0",
    98: "monic 2; a1 = -e(-1,0); a2 = 0",
    109: "monic 2; a1 = -e(0); a2 = 0",
    117: "monic 2; a1 = -e(1,0); a2 = 0",
    121: "monic 2; a1 = -e(-1,0); a2 = 0",
    129: "monic 2; a1 = -e(0,0); a2 = 0",
    140: "monic 2; a1 = -e(0); a2 = 0",
    146: "monic 2; a1 = -e(-1,0); a2 = 0",
    149: "monic 2; a1 = -e(0,0,0); a2 = 0",
}


def test_z_torsion_witnesses_keep_their_row_order():
    """150 seeded queries Z[E] in Q[E], E with torsion, box 1, max_deg
    2 and 3 in turn: the degree-2 witnesses are the pinned ones."""
    rng = random.Random(19)
    got = {}
    for i in range(150):
        r, s, x = _query(rng, ("Z", "Q"), True, False)
        w = find_integral_equation(r, s, x, 2 + i % 2, 1)
        if getattr(w, "degree", None) == 2:
            got[i] = witness_str(w)
    assert got == PINNED_DEGREE_2


def test_entire_torsion_queries_have_no_witness_above_degree_1():
    """Over an entire Z subring whose E has torsion, the every-degree
    reference finds no witness of degree 2 or 3 for an element with a
    non-integer coefficient or a fraction: the case the search stops at
    degree 1 although base Z and torsion alone would not stop it."""
    rng = random.Random(1616)
    found = {1: 0, None: 0}
    n = 0
    while n < 600:
        pair = (("Z", "Q"), ("Z", "Z"), ("Z", "Q"))[n % 3]
        fraction = n % 3 != 0
        r, s, x = _query(rng, pair, True, fraction)
        if not classify(r).entire or (not fraction and all(
                c.denominator == 1 for c in x.terms.values())):
            continue
        w = search_every_degree(r, s, x, 3, rng.randint(1, 2))
        found[getattr(w, "degree", None)] += 1
        n += 1
    assert found[1] and found[None]


@pytest.fixture
def solved_systems(monkeypatch):
    """The argument tuples of every _monic_solution call, in order."""
    calls = []
    solve = closure._monic_solution
    monkeypatch.setattr(closure, "_monic_solution",
                        lambda *args: calls.append(args) or solve(*args))
    return calls


def test_fixed_query_solves_no_system(solved_systems):
    """1/2 e(1,0,0) + 1/3 e(0,1,0) + e(0,0,1) over Z[Z^3] in Q[Z^3],
    graded by total degree: Z[Z^3] is entire, so only degree 1 is
    searched, and its a1 = -x is read off the terms, not solved for."""
    calls = solved_systems

    def ring(base):
        fine = group_algebra(base, FgGroup(3, ()), "fine")
        return coarsen(fine, GroupHom(fine.ggroup, FgGroup(1, ()),
                                      ((1, 1, 1),)))

    rz, rq = ring(Z), ring(Q)
    x = Element(rq, {rq.egroup.element((1, 0, 0)): Rational(1, 2),
                     rq.egroup.element((0, 1, 0)): Rational(1, 3),
                     rq.egroup.element((0, 0, 1)): 1})
    for box in (2, 3):
        calls.clear()
        res = find_integral_equation(rz, rq, x, max_deg=3, support_box=box)
        assert isinstance(res, NoWitnessUpTo)
        assert (res.max_deg, res.box) == (3, box)
        assert len(calls) == 0


def test_search_above_degree_1_only_where_not_entire(solved_systems):
    """E = Z/2 has torsion in both rings.  Z[Z/2]fine is entire, so
    1/2 e(1) is searched at degree 1 only, read off with no system;
    Z[Z/2]coarse is not, and its idempotent 1/2 (e(0) + e(1)), which no
    a1 in Z[Z/2] can cancel, takes the degree-2 system alone."""
    def rings(grading):
        return tuple(group_algebra(base, FgGroup(0, (2,)), grading)
                     for base in (Z, Q))

    rz, rq = rings("fine")
    res = find_integral_equation(rz, rq, e(rq, 1, c=Rational(1, 2)),
                                 max_deg=3, support_box=1)
    assert isinstance(res, NoWitnessUpTo)
    assert (res.max_deg, res.box) == (3, 1)
    assert len(solved_systems) == 0
    rz, rq = rings("coarse")
    x = e(rq, 0, c=Rational(1, 2)) + e(rq, 1, c=Rational(1, 2))
    res = find_integral_equation(rz, rq, x, max_deg=3, support_box=1)
    assert res.degree == 2
    assert [n for _, _, n, _ in solved_systems] == [2]


def _monomial_den_query(rng, pair, torsion, fraction):
    """(r, s, x) as _query draws them, x an element or a fraction over a
    monomial c * e(f) with c outside {1, -1} more often than not.  The
    support of x reaches up to 2 and f up to 1, so a1 = -x may leave a
    search box of radius 0 to 2."""
    r, s = _query_rings(rng, pair, torsion, fraction)
    x = _query_homogeneous(rng, s, rng.randint(1, 2))
    if fraction:
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        if s.base == "Q" and rng.randint(0, 1):
            c = Rational(c, rng.choice((2, 3)))
        f = rng.choice(list(s.egroup.box_elements(1)))
        den = Element.monomial(s, f, c)
        x = Fraction(x * den if rng.randint(0, 1) else x, den)
    return r, s, x


def test_read_off_matches_the_degree_1_system(solved_systems):
    """Elements and fractions over a monomial denominator, on 1,200
    seeded queries over Z in Z, Z in Q and Q in Q that search degree 1
    only: the witness read off the terms is the one the degree-1 system
    gives, term for term and in the same order, and no system is
    solved for any of them."""
    rng = random.Random(3030)
    found = {pair: set() for pair in PAIRS}
    n = 0
    while n < 1200:
        pair = PAIRS[n % 3]
        r, s, x = _monomial_den_query(rng, pair, rng.randint(0, 1),
                                      rng.randint(0, 1))
        if (r.base == "Z" and not classify(r).entire and any(
                c.denominator != 1 for c in x.terms.values())):
            continue  # searched from degree 2, by system
        box = rng.randint(0, 2)
        got = find_integral_equation(r, s, x, rng.randint(1, 3), box)
        ref = search_every_degree(r, s, x, 1, box)
        assert _outcome(got) == _outcome(
            ref or NoWitnessUpTo(max_deg=got.max_deg, box=box)), (x, box)
        if ref is not None:
            assert list(got.coeffs[0].terms.items()) == list(
                ref.coeffs[0].terms.items())
        found[pair].add(ref is not None)
        n += 1
    assert solved_systems == []
    assert all(seen == {True, False} for seen in found.values()), found


def test_two_term_denominator_still_solves_its_system(solved_systems):
    """A fraction over e(1,0) + e(0,1), homogeneous of total degree 1 in
    Z[Z^2], takes the degree-1 system: its quotient is found, and a
    quotient outside the Laurent ring is not."""
    def ring(base):
        fine = group_algebra(base, FgGroup(2, ()), "fine")
        return coarsen(fine, GroupHom(fine.ggroup, FgGroup(1, ()),
                                      ((1, 1),)))

    rz, rq = ring(Z), ring(Q)
    den = e(rq, 1, 0) + e(rq, 0, 1)
    x = Fraction(den * (e(rq, 1, 0) - e(rq, 0, 1, c=2)), den)
    w = find_integral_equation(rz, rq, x, max_deg=3, support_box=2)
    assert witness_str(w) == "monic 1; a1 = 2*e(0,1)-e(1,0)"
    assert [n for _, _, n, _ in solved_systems] == [1]
    res = find_integral_equation(rz, rq, Fraction(e(rq, 2, 0), den),
                                 max_deg=3, support_box=2)
    assert isinstance(res, NoWitnessUpTo)
    assert len(solved_systems) == 2


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
        assert closure._solve_linear("Z", sparse_rows(rows), rhs, n) == want
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
    # (x - t)(x - 1) = 0 holds for x = t/1, cleared of den = 1, but
    # a1 = -(t + 1) is not homogeneous and a2 = t has degree 1, not
    # 2 * deg(x).
    x = Fraction(t, one)
    bad = IntegralityWitness(2, (-(t + one), t))
    num, den = x.num, x.den
    assert (num * num - (t + one) * num * den + t * den * den).is_zero
    assert not verify_integral_witness(zr, zr, x, bad)
    assert not verify_integral_witness(zr, zr, t, bad)


def test_verify_matches_fraction_field_oracle():
    """The cleared check accepts exactly what Horner's rule in fraction-
    field arithmetic accepts: found witnesses, each with one coefficient
    changed (in degree or not), and degree-1 candidates from the fiber,
    for elements and fractions over Z and Q, fine and coarse rings, one-
    and two-term denominators.  Found degree-2 witnesses of elements are
    among them: only there does the Horner loop on x alone multiply."""
    rng = random.Random(4800)
    seen, verdicts, element_degree_2 = set(), set(), 0
    for i in range(400):
        fraction = i % 2 == 1
        r, s, x = _query(rng, PAIRS[i % 3], i % 4 < 2, fraction)
        den = x.den if fraction else Element.one(s)
        g = degree_of(x.num if fraction else x) - degree_of(den)
        w = find_integral_equation(r, s, x, 2, rng.randint(1, 2))
        ws = [IntegralityWitness(1, (Element(r, {
            rng.choice(box_fiber(r.delta, 1, g) or [r.egroup.zero()]):
            rng.choice((-2, -1, 1, 2))}),))]
        if isinstance(w, IntegralityWitness):
            j = rng.randrange(w.degree)
            fiber = box_fiber(r.delta, 1, (j + 1) * g)
            f = (rng.choice(fiber) if fiber and rng.randint(0, 1)
                 else rng.choice(list(r.egroup.box_elements(1))))
            coeffs = list(w.coeffs)
            coeffs[j] = coeffs[j] + e(r, *f.coords, c=rng.choice((-1, 1)))
            ws += [w, IntegralityWitness(w.degree, tuple(coeffs))]
            element_degree_2 += not fraction and w.degree == 2
        for cand in ws:
            got = verify_integral_witness(r, s, x, cand)
            assert got == verify_by_fractions(r, s, x, cand), (x, cand.coeffs)
            verdicts.add((fraction, got))
        seen.add((r.base, r.delta.is_injective(), len(den.terms) > 1))
    assert verdicts == {(f, v) for f in (False, True) for v in (False, True)}
    assert ({(b, fine) for b, fine, _ in seen}
            == set(product("ZQ", (False, True))))
    assert {two for *_, two in seen} == {False, True}
    assert element_degree_2 >= 3


def test_verify_rejects_a_coefficient_that_is_not_an_element():
    """A malformed witness is False, not an error: a coefficient that is
    not an element, a degree that is not an int (a bool is not one) and
    coefficients with no length."""
    zr = group_algebra(Z, FgGroup(1, ()), "fine")
    t = e(zr, 1)
    for a in (1, None, Fraction(t, Element.one(zr))):
        w = IntegralityWitness(1, (a,))
        assert not verify_integral_witness(zr, zr, t, w)
    assert verify_integral_witness(zr, zr, t, IntegralityWitness(1, (-t,)))
    for degree, coeffs in (("1", ()), (1, None), (1, 5), (True, (-t,)),
                           (1.0, (-t,))):
        w = IntegralityWitness(degree, coeffs)
        assert not verify_integral_witness(zr, zr, t, w), (degree, coeffs)


def test_degree_1_element_queries_multiply_nothing(monkeypatch):
    """Z[Z] in Q[Z]: an element answered at degree 1 is found and
    verified with no ring product, and a fraction over a monomial den
    with one, a1 * den in the cleared equation."""
    products = []
    mul = Element.__mul__
    monkeypatch.setattr(Element, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    zr = group_algebra(Z, FgGroup(1, ()), "coarse")
    qr = group_algebra(Q, FgGroup(1, ()), "coarse")
    x = e(qr, 1, c=3) - e(qr, 0, c=2)
    w = find_integral_equation(zr, qr, x)
    assert witness_str(w) == "monic 1; a1 = 2*e(0)-3*e(1)"
    assert products == []
    y = Fraction(e(qr, 2, c=4), e(qr, 1, c=2))
    w = find_integral_equation(zr, qr, y)
    assert witness_str(w) == "monic 1; a1 = -2*e(1)"
    assert len(products) == 1


def test_verify_needs_x_over_the_big_ring():
    """An x over another ring, or no ring element at all, is a typed
    error in the check and in the search alike."""
    zr = group_algebra(Z, FgGroup(1, ()), "fine")
    qr = group_algebra(Q, FgGroup(1, ()), "fine")
    w = IntegralityWitness(1, (-e(zr, 1),))
    for x in (e(zr, 1), Fraction(e(zr, 1), Element.one(zr)), 5):
        with pytest.raises(IncompatibleRingsError,
                           match="^x must live in the big ring$"):
            verify_integral_witness(zr, qr, x, w)
        with pytest.raises(IncompatibleRingsError,
                           match="^x must live in the big ring$"):
            find_integral_equation(zr, qr, x)


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


def test_finders_reject_bounds_that_describe_no_search():
    """max_deg < 1, a negative box, k_max < 0 or a bound that is not an
    int raise GradalError; the smallest bounds that describe a search are
    accepted."""
    zr = group_algebra(Z, FgGroup(1, ()), "fine")
    qr = group_algebra(Q, FgGroup(1, ()), "fine")
    x = e(qr, 1)
    frac = Fraction(e(zr, 2), e(zr, 1))
    psi = GroupHom(qr.ggroup, FgGroup(0, ()), ())
    for max_deg, box in ((0, 3), (-2, 3), (3, -1), (1, -5)):
        with pytest.raises(GradalError, match="max_deg|box"):
            find_integral_equation(zr, qr, x, max_deg, box)
        with pytest.raises(GradalError, match="max_deg|box"):
            find_integral_equation_fraction(zr, frac, max_deg, box)
        with pytest.raises(GradalError, match="max_deg|box"):
            components_integral_check(zr, psi, x, max_deg, box)
    with pytest.raises(GradalError, match="box"):
        find_almost_integral_witness(zr, qr, x, 1, -1)
    for k_max in (-1, -3):
        with pytest.raises(GradalError, match="k_max"):
            find_almost_integral_witness(zr, qr, x, k_max, 3)
    assert isinstance(find_integral_equation(zr, qr, x, 1, 1),
                      IntegralityWitness)
    res = find_integral_equation(zr, qr, x, 1, 0)
    assert isinstance(res, NoWitnessUpTo) and (res.max_deg, res.box) == (1, 0)
    assert res.k_max is None  # a field not given
    assert find_almost_integral_witness(zr, qr, x, 0, 1).k == 0
    # A bound that is not an int is refused, not searched with max_deg
    # True or failing inside the search.
    for max_deg, box in ((True, 1), (2.5, 1), (1, 1.5), (1, False), ("2", 1)):
        with pytest.raises(GradalError, match="^search bounds must be ints"):
            find_integral_equation(zr, qr, x, max_deg, box)
        with pytest.raises(GradalError, match="^search bounds must be ints"):
            find_integral_equation_fraction(zr, frac, max_deg, box)
    for k_max, box in ((True, 1), (1.0, 1), (1, 0.5)):
        with pytest.raises(GradalError, match="^search bounds must be ints"):
            find_almost_integral_witness(zr, qr, x, k_max, box)


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


def test_components_rejects_a_fraction():
    """Components are taken of an element; a fraction is refused with a
    typed error, not an AttributeError."""
    zr, qr, psi = make_summand_rings()
    x = Fraction(e(qr, 0, 1), e(qr, 1, 0, c=2))
    with pytest.raises(ParentMismatchError):
        components_integral_check(zr, psi, x)


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
    assert _z_top(struct, v)[0] < _z_top(struct, f)[0]


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


def test_division_self_check_is_an_internal_error(monkeypatch):
    """Over a simple base the leading coefficient is always a unit; a
    unit test that says otherwise is a bug, not the caller's input."""
    struct = laurent_extension(Q)
    f = e(struct.ring, 1) - e(struct.ring, 0)
    monkeypatch.setattr(closure, "homogeneous_unit_test", lambda x: None)
    with pytest.raises(InternalInvariantError,
                       match="^leading coefficient is not invertible$"):
        graded_euclidean_division(struct, f, f)


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
            assert _z_top(struct, v)[0] < _z_top(struct, f)[0]
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
            assert _z_top(struct, v)[0] < _z_top(struct, f)[0]


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


def test_lem50_coarse_ring_is_r_along_psi():
    r, pair = lem50_plane()
    assert coarsen(r, pair.psi) == pair.coarse
    assert pair.psi.codomain == pair.target.ggroup


def free_summand_instance(seed):
    """(r, F gens, H gens): F the kernel of the instance's psi, H the
    canonical second summand it was built on."""
    r, psi = generate_instance(seed, "free-summand")
    kern, i_k = hom_kernel(psi)
    section = direct_sum(FgGroup(kern.rank, ()), psi.codomain).inj2
    return (r, [i_k.apply(x) for x in kern.generators()],
            [section.apply(x) for x in psi.codomain.generators()])


def test_lem50_matches_the_route_through_g():
    """Splitting E along pi and intersecting D with F inside G give the
    same exponent maps and the same rings."""
    for seed in range(500):
        r, f_gens, h_gens = free_summand_instance(seed)
        pair = lem50_iso(r, f_gens, h_gens)
        mu_p, mu_q, target, coarse = lem50_reference(r, f_gens, h_gens)
        assert pair.p.exponent_map == mu_p
        assert pair.q.exponent_map == mu_q
        assert pair.target.describe() == target.describe()
        assert pair.coarse.describe() == coarse.describe()


def test_lem50_rejects_what_the_route_through_g_rejects():
    """Torsion F, a non-simple ring, F + H short of G, and a support D
    = <(1,1)> that the projection onto H = <(0,1)> moves."""
    diagonal = regrade_extend(group_algebra(Q, FgGroup(1, ()), "fine"),
                              GroupHom(FgGroup(1, ()), FgGroup(2, ()),
                                       ((1,), (1,))))
    cases = [(group_algebra(Q, FgGroup(1, (2,)), "fine"), (0, 1), (1, 0)),
             (group_algebra(Z, FgGroup(2, ()), "fine"), (1, 0), (0, 1)),
             (group_algebra(Q, FgGroup(2, ()), "fine"), (2, 0), (0, 1)),
             (diagonal, (1, 0), (0, 1))]
    for r, f, h in cases:
        f_gens, h_gens = [r.ggroup.element(f)], [r.ggroup.element(h)]
        for build in (lem50_iso, lem50_reference):
            with pytest.raises(HypothesisViolatedError):
                build(r, f_gens, h_gens)
    with pytest.raises(HypothesisViolatedError, match="support"):
        lem50_iso(diagonal, [diagonal.ggroup.element((1, 0))],
                  [diagonal.ggroup.element((0, 1))])


def test_lem50_matches_the_route_through_g_on_cli_complements():
    """F generated by one or two random elements of G = Z^r x T, H the
    complement a section of G -> G/F gives, as iso-lem50 picks it: both
    routes build the same maps and rings, or both reject the input."""
    rng = random.Random(5050)
    built = rejected = 0
    for _ in range(600):
        g = FgGroup(rng.randint(1, 3),
                    rng.choice([(), (2,), (3,), (2, 2), (6,), (2, 4)]))
        f_gens = [g.element([rng.randint(-2, 2) for _ in range(g.dim)])
                  for _ in range(rng.randint(1, 2))]
        _, proj = quotient_by(g, f_gens)
        section = find_section(proj)
        if section is None:
            continue
        h_gens = [section.apply(x) for x in proj.codomain.generators()]
        r = group_algebra(Q, g, "fine")
        try:
            pair = lem50_iso(r, f_gens, h_gens)
        except HypothesisViolatedError:
            with pytest.raises(HypothesisViolatedError):
                lem50_reference(r, f_gens, h_gens)
            rejected += 1
            continue
        mu_p, mu_q, target, coarse = lem50_reference(r, f_gens, h_gens)
        assert pair.p.exponent_map == mu_p
        assert pair.q.exponent_map == mu_q
        assert pair.target.describe() == target.describe()
        assert pair.coarse.describe() == coarse.describe()
        built += 1
    assert built > 200 and rejected > 20


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


# --- ring maps on coordinates ---

def sample_element(rng, nf):
    """Up to four terms with exponents in [-2, 2], reduced, coefficients
    of nf's base."""
    cs = [1, -1, 2, -3] if nf.base == "Z" else [1, -1, Rational(1, 2),
                                               Rational(-2, 3)]
    g = nf.egroup
    return Element(nf, {g.element([rng.randint(-2, 2) for _ in range(g.dim)]):
                        rng.choice(cs) for _ in range(rng.randint(0, 4))})


def fitting_ring_maps():
    """Maps whose exponent map runs between their rings' exponent groups
    over one base: both directions of lem50_iso pairs, j_pi_embedding
    along quotient projections that have a section, and a projection
    Z^2 -> Z that merges exponents."""
    maps = []
    for seed in range(30):
        pair = lem50_iso(*free_summand_instance(seed))
        maps += [pair.p, pair.q]
    rng = random.Random(3450)
    while len(maps) < 100:
        g = FgGroup(rng.randint(1, 2), rng.choice([(), (2,), (3,), (2, 4)]))
        kill = g.element([rng.randint(-2, 2) for _ in range(g.dim)])
        psi = quotient_by(g, [kill])[1]
        pi = find_section(psi)
        if pi is not None:
            r = group_algebra(rng.choice([Z, Q]), g, "fine")
            maps.append(j_pi_embedding(r, psi, pi))
    plane, line = (group_algebra(Q, FgGroup(n, ()), "fine") for n in (2, 1))
    merge = GroupHom(plane.egroup, line.egroup, ((1, 1),))
    return maps + [RingMap(plane, line, merge)]


def test_ring_map_apply_matches_the_per_term_oracle():
    """RingMap.apply sends coordinate tuples through the matrix; it
    builds the element the per-term route builds, terms in the same
    order with the same coefficient types, merged terms summed and
    cancelled ones dropped."""
    rng = random.Random(3451)
    maps = fitting_ring_maps()
    for k in range(1500):
        m = maps[k % len(maps)]
        x = sample_element(rng, m.domain)
        got, want = m.apply(x), ring_map_by_terms(m, x)
        assert got.parent == want.parent
        assert list(got.terms.items()) == list(want.terms.items())
        assert [type(c) for c in got.terms.values()] == [
            type(c) for c in want.terms.values()]
    plane = maps[-1].domain
    assert maps[-1].apply(e(plane, 1, 0) - e(plane, 0, 1)).is_zero


def test_misfit_ring_maps_fail_as_the_per_term_oracle():
    """A map whose exponent map misses its rings, or whose bases differ,
    goes term by term: the same value, or the same error and message."""
    zl, ql = (group_algebra(b, FgGroup(1, ()), "fine") for b in (Z, Q))
    plane = group_algebra(Q, FgGroup(2, ()), "fine")
    line = identity_hom(zl.egroup)
    cases = [(RingMap(ql, plane, identity_hom(plane.egroup)), e(ql, 1)),
             (RingMap(ql, plane, line), e(ql, 1)),
             (RingMap(ql, zl, line), e(ql, 1, c=Rational(1, 2))),
             (RingMap(ql, zl, line), e(ql, 1, c=Rational(4, 2))),
             (RingMap(zl, ql, line), e(zl, 1, c=3) - e(zl, 0)),
             (RingMap(ql, plane, None), e(ql, 1)),
             (RingMap(ql, plane, None), Element.zero(ql)),
             (RingMap(ql, "a ring", line), e(ql, 1)),
             (RingMap(ql, ql, line), e(zl, 1))]

    def outcome(run, m, x):
        try:
            y = run(m, x)
        except Exception as exc:
            return type(exc), str(exc)
        return y.parent, [(f, c, type(c)) for f, c in y.terms.items()]

    for m, x in cases:
        assert outcome(RingMap.apply, m, x) == outcome(ring_map_by_terms, m, x)


def test_lem50_maps_apply_no_group_hom(monkeypatch):
    """Both maps of a lem50_iso pair fit their rings, so neither sends a
    term through GroupHom.apply."""
    rng = random.Random(3452)
    pairs = [lem50_iso(*free_summand_instance(seed)) for seed in range(6)]
    xs = [(pair, sample_element(rng, pair.coarse),
           sample_element(rng, pair.target)) for pair in pairs for _ in range(5)]
    applied = []
    real = GroupHom.apply
    monkeypatch.setattr(GroupHom, "apply",
                        lambda h, x: applied.append(1) or real(h, x))
    for pair, x, y in xs:
        assert pair.p.apply(pair.q.apply(x)) == x
        assert pair.q.apply(pair.p.apply(y)) == y
    assert applied == []


def test_lem50_builds_its_h_subgroup_once(monkeypatch):
    """lem50_iso hands the subgroup H it built to the restriction that
    needs it, so the F and H subgroups are the only two it generates."""
    instances = [free_summand_instance(seed) for seed in range(8)]
    calls = []
    for mod in (closure, ringexpr):
        real = mod.subgroup_generated_by
        monkeypatch.setattr(mod, "subgroup_generated_by",
                            lambda g, gens, real=real:
                            calls.append(1) or real(g, gens))
    for inst in instances:
        del calls[:]
        lem50_iso(*inst)
        assert len(calls) == 2
