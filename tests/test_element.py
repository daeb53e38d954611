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
from gradal.abelian import (
    FgGroup,
    GroupHom,
    box_fiber,
    direct_sum,
    find_section,
    hom_image,
    hom_inverse,
    hom_kernel,
    identity_hom,
    is_in_torsionfree_summand,
    lift_hom,
    normalize_presentation,
    quotient_by,
    solve_in_subgroup,
    subgroup_generated_by,
    zero_hom,
)
from gradal.closure import (
    RingMap,
    components_integral_check,
    find_integral_equation,
    find_integral_equation_fraction,
    graded_euclidean_division,
    j_pi_embedding,
    laurent_extension,
    lem50_iso,
    witness_str,
)
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
from gradal.harness import _TORSION_CHAINS, report_json, run_check
from gradal.ringexpr import (
    BaseQ,
    BaseZ,
    _over_base,
    classify,
    coarsen,
    fraction_field,
    group_algebra,
    normalize,
    regrade_extend,
    regrade_restrict,
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


def test_derived_elements_survive_the_checked_constructor():
    """Sums, differences, negations, zero, homogeneous parts and
    same-base reparents skip Element's checks; each is unchanged by
    Element(parent, terms): the same terms, in the same order, with the
    same coefficient types, so no zero coefficient is kept."""
    rng = random.Random(8642)
    groups = [FgGroup(1, ()), FgGroup(2, ()), FgGroup(0, (4,)),
              FgGroup(1, (2,)), FgGroup(1, (2, 6))]
    pairs = [(group_algebra(base, g, "fine"), group_algebra(base, g, "coarse"))
             for base in (Z, Q) for g in groups]
    cancelled = 0

    def unchanged(v, parent):
        w = Element(v.parent, v.terms)
        assert v.parent is parent
        assert list(w.terms.items()) == list(v.terms.items())
        assert [type(c) for c in w.terms.values()] == [
            type(c) for c in v.terms.values()]

    for _ in range(400):
        nf, other = rng.choice(pairs)
        x = random_element(rng, nf)
        y = random_element(rng, nf) if rng.random() < 0.6 else (
            -x + random_element(rng, nf, max_terms=1))
        results = [x + y, x - y, -x, y - x, x - x, Element.zero(nf),
                   *homogeneous_components(x).values()]
        for v in results:
            unchanged(v, nf)
        unchanged(reparent(x, other), other)
        unchanged(reparent(reparent(x, other), nf), nf)
        cancelled += len((x + y).terms) < len(set(x.terms) | set(y.terms))
    assert cancelled > 50, cancelled


def test_foreign_exponents_are_typed_errors():
    """An exponent of another group, or a bare tuple, raises
    ParentMismatchError in Element(...) and in coeff."""
    x = e(QZ, 1, c=2)
    bad = (FgGroup(2, ()).element((1, 1)), (1, 1), (1,), 1)
    for f in bad:
        with pytest.raises(ParentMismatchError, match="^exponent in "):
            x.coeff(f)
        with pytest.raises(ParentMismatchError, match="^exponent in "):
            Element(QZ, {f: 1})
    with pytest.raises(ParentMismatchError,
                       match=r"^exponent in tuple, ring exponents in Z$"):
        Element(QZ, {(1, 1): 1})
    assert x.coeff(QZ.egroup.element((0,))) == 0
    assert type(x.coeff(QZ.egroup.element((0,)))) is Rational
    assert type(e(ZZ, 1).coeff(ZZ.egroup.element((0,)))) is int


_G = FgGroup(1, (2,))
_H = identity_hom(_G)
FOREIGN = [
    ("reparent", lambda: reparent(e(QZ, 1), 3), "^expected a ring, got int$"),
    ("coeff", lambda: e(QZ, 1).coeff([1, 0]), "^exponent in list, "),
    ("hom_kernel", lambda: hom_kernel(5), "^expected a hom, got int$"),
    ("hom_image", lambda: hom_image(5), "^expected a hom, got int$"),
    ("hom_inverse", lambda: hom_inverse(5), "^expected a hom, got int$"),
    ("find_section", lambda: find_section(5), "^expected a hom, got int$"),
    ("lift_hom", lambda: lift_hom(_H, 5), "^psi must be a hom into"),
    ("quotient_by", lambda: quotient_by(_G, [5]), "^generator of int, "),
    ("subgroup_generated_by", lambda: subgroup_generated_by(_G, [(1, 0)]),
     "^generator of tuple, "),
    ("is_in_torsionfree_summand",
     lambda: is_in_torsionfree_summand(_G, [5]), "^generator of int, "),
    ("box_fiber", lambda: box_fiber(_H, 1, 5), "^target in int, "),
    ("solve_in_subgroup", lambda: solve_in_subgroup(_H, 5),
     "^target in int, "),
    ("direct_sum", lambda: direct_sum(_G, 5), "^expected a group, got int$"),
    ("group_algebra", lambda: group_algebra(QZ, 5, "fine"),
     "^expected a group, got int$"),
    ("coarsen", lambda: coarsen(QZ, 5), "^psi must be a hom from"),
    ("regrade_extend", lambda: regrade_extend(QZ, 5),
     "^embed must be a hom from"),
    ("classify", lambda: classify(5), "^expected a ring, got int$"),
    ("_over_base", lambda: _over_base(5, "Q"), "^expected a ring, got int$"),
    # the operand that each function reads first
    ("quotient_by-group", lambda: quotient_by(5, []),
     "^expected a group, got int$"),
    ("subgroup_generated_by-group", lambda: subgroup_generated_by(5, []),
     "^expected a group, got int$"),
    ("is_in_torsionfree_summand-group",
     lambda: is_in_torsionfree_summand(5, []), "^expected a group, got int$"),
    ("solve_in_subgroup-hom", lambda: solve_in_subgroup(5, _G.zero()),
     "^expected a hom, got int$"),
    ("box_fiber-hom", lambda: box_fiber(5, 1, _G.zero()),
     "^expected a hom, got int$"),
    ("lift_hom-iota", lambda: lift_hom(5, _H), "^expected a hom, got int$"),
    ("coarsen-ring", lambda: coarsen(5, _H), "^expected a ring, got int$"),
    ("fraction_field", lambda: fraction_field(5),
     "^expected a ring, got int$"),
    ("regrade_restrict", lambda: regrade_restrict(QZ, [5]),
     "^subgroup generators must live in G$"),
    ("classify-unhashable", lambda: classify([1]),
     "^expected a ring, got list$"),
    ("direct_sum-unhashable", lambda: direct_sum(_G, [1]),
     "^expected a group, got list$"),
    ("group_algebra-ring", lambda: group_algebra(5, _G, "fine"),
     "^expected a ring, got int$"),
    ("GroupHom", lambda: GroupHom(5, _G, ()), "^expected a group, got int$"),
    ("identity_hom", lambda: identity_hom(5), "^expected a group, got int$"),
    ("zero_hom", lambda: zero_hom(_G, 5), "^expected a group, got int$"),
    ("element", lambda: FgGroup(1).element(5),
     "^expected 1 coordinates, got int$"),
    ("components_integral_check",
     lambda: components_integral_check(QZ, identity_hom(QZ.ggroup), 5),
     "^expected an element, got int$"),
    ("graded_euclidean_division",
     lambda: graded_euclidean_division(laurent_extension(QZ), 5, 5),
     "^expected an element, got int$"),
    ("graded_euclidean_division-struct",
     lambda: graded_euclidean_division(5, 5, 5),
     "^pass the Laurent structure, see laurent_extension$"),
    ("j_pi_embedding", lambda: j_pi_embedding(QZ, 5, 5),
     "^expected a hom, got int$"),
    ("j_pi_embedding-ring",
     lambda: j_pi_embedding(5, identity_hom(QZ.ggroup), 5),
     "^expected a ring, got int$"),
    ("laurent_extension", lambda: laurent_extension(5),
     "^expected a ring, got int$"),
    ("RingMap.apply",
     lambda: RingMap(QZ, QZ, identity_hom(QZ.egroup)).apply(5),
     "^expected an element, got int$"),
    ("homogeneous_components", lambda: homogeneous_components(5),
     "^expected an element, got int$"),
    ("is_homogeneous", lambda: is_homogeneous(5),
     "^expected an element, got int$"),
    ("degree_of", lambda: degree_of(5), "^expected an element, got int$"),
    ("nzd_test", lambda: nzd_test(5), "^expected an element, got int$"),
    ("homogeneous_unit_test", lambda: homogeneous_unit_test(5),
     "^expected an element, got int$"),
    ("lemma_p70_check",
     lambda: lemma_p70_check(QZ, identity_hom(QZ.ggroup), 5, 5),
     "^expected an element, got int$"),
    ("find_integral_equation", lambda: find_integral_equation(5, QZ, 5),
     "^expected a ring, got int$"),
    ("find_integral_equation_fraction",
     lambda: find_integral_equation_fraction(QZ, 5),
     "^expected a fraction, got int$"),
    ("witness_str", lambda: witness_str(5), "^expected a witness, got int$"),
    ("run_check", lambda: run_check(5), "^expected a check config, got int$"),
    ("report_json", lambda: report_json(5),
     "^expected a check report, got int$"),
    # containers of operands
    ("subgroup_generated_by-container", lambda: subgroup_generated_by(_G, 5),
     "^expected generators, got int$"),
    ("quotient_by-container", lambda: quotient_by(_G, None),
     "^expected generators, got NoneType$"),
    ("is_in_torsionfree_summand-container",
     lambda: is_in_torsionfree_summand(_G, 5),
     "^expected generators, got int$"),
    ("regrade_restrict-container", lambda: regrade_restrict(QZ, 5),
     "^expected generators, got int$"),
    ("lem50_iso-container", lambda: lem50_iso(QZ, 5, []),
     "^expected generators, got int$"),
    ("Element-container", lambda: Element(QZ, 5),
     "^expected a dict of terms, got int$"),
    ("Element-list", lambda: Element(QZ, [(1,)]),
     "^expected a dict of terms, got list$"),
    ("normalize_presentation", lambda: normalize_presentation(5, [[2, 0]]),
     "^each relation column needs 5 entries, the ambient dim$"),
    ("normalize_presentation-container",
     lambda: normalize_presentation(2, 5),
     "^expected relation columns, got int$"),
    ("normalize_presentation-column", lambda: normalize_presentation(2, [5]),
     "^expected a relation column, got int$"),
    ("Element.__sub__", lambda: e(QZ, 1) - "x",
     "^cannot combine Element with 'x'$"),
    ("Element.__sub__-fraction",
     lambda: e(QZ, 1) - Fraction(e(QZ, 1), e(QZ, 0)),
     r"^cannot combine Element with <\(e\(1\)\)/\(e\(0\)\) in "),
]


@pytest.mark.parametrize("call,message", [f[1:] for f in FOREIGN],
                         ids=[f[0] for f in FOREIGN])
def test_foreign_operands_at_every_entry_point(call, message):
    """A public entry point given a non-group, non-element, non-hom or
    non-ring operand raises ParentMismatchError, not an AttributeError
    or TypeError from inside it."""
    with pytest.raises(ParentMismatchError, match=message):
        call()


def test_huge_torsion_span_is_refused_before_its_system(monkeypatch):
    """Both systems over the torsion span V have at least |V| rows and |V|
    unknowns, so a span with |V|^2 past _SYSTEM_CELLS is refused while it
    is listed, before _shift_system is reached; at |V|^2 equal to the
    limit the system is built."""
    def unreachable(*args):
        raise AssertionError("_shift_system reached")

    monkeypatch.setattr(element, "_shift_system", unreachable)
    x = Element.one(QT) + e(QT, 1)  # V = Z/4
    for limit, refused in ((15, True), (16, False)):
        monkeypatch.setattr(element, "_SYSTEM_CELLS", limit)
        for decide in (nzd_test, homogeneous_unit_test):
            with pytest.raises(GradalError if refused else AssertionError,
                               match="^a torsion span of 4 or more elements"
                               if refused else "reached"):
                decide(x)
    monkeypatch.undo()
    big = group_algebra(Q, FgGroup(0, (200000,)), "coarse")
    y = Element.one(big) + e(big, 1)
    for decide in (nzd_test, homogeneous_unit_test):
        with pytest.raises(GradalError, match="^a torsion span of 3163 "):
            decide(y)


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


def test_reparent_from_z_into_q_widens_every_coefficient():
    """Z into Q builds the Q element unchecked, one Fraction per term;
    it equals Element(nf, terms), term for term and type for type, over
    every torsion chain the harness draws, at ranks 0 to 2.  Q into Z
    stays checked and refuses a coefficient that is not an integer."""
    rng = random.Random(3434)
    pairs = [(zr, _over_base(zr, "Q")) for zr in
             (group_algebra(Z, FgGroup(rank, t), "fine")
              for rank in range(3) for t in _TORSION_CHAINS)]
    for k in range(600):
        zr, qr = pairs[k % len(pairs)]
        x = random_element(rng, zr)
        got, want = reparent(x, qr), Element(qr, dict(x.terms))
        assert got.parent is qr
        assert list(got.terms.items()) == list(want.terms.items())
        assert all(type(c) is Rational for c in got.terms.values())
        assert reparent(got, zr) == x
    half = Element(QZ, {QZ.egroup.element((1,)): Rational(1, 2)})
    with pytest.raises(GradalError, match=r"^coefficient 1/2 is not an"):
        reparent(half, _over_base(QZ, "Z"))


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


def test_shift_system_rows_are_sparse_pairs():
    """Each row of _shift_system is a list of (unknown, coefficient)
    pairs with nonzero coefficients and distinct unknowns, in unknown
    order, and no dense row is built.  Read as a matrix the rows are the
    shifted products: for integer weights w the row sums are the
    coefficients of sum_j w_j * p_j * e(s_j), and the right-hand side
    holds the target's coefficients."""
    rng = random.Random(4802)
    rings = oracle_rings()
    for _ in range(150):
        nf = rng.choice(rings)
        pool = list(nf.egroup.box_elements(1))
        columns = [(random_element(rng, nf),
                    rng.sample(pool, min(len(pool), 4)))
                   for _ in range(rng.randint(1, 2))]
        target = random_element(rng, nf)
        rows, rhs = element._shift_system(target, columns)
        for row in rows:
            assert all(type(pair) is tuple and len(pair) == 2 and pair[1]
                       for pair in row)
            unknowns = [j for j, _ in row]
            assert unknowns == sorted(set(unknowns))
        weights = [rng.randint(-3, 3) for _, shifts in columns for _ in shifts]
        total, j = Element.zero(nf), 0
        for p, shifts in columns:
            for s in shifts:
                total = total + p * Element.monomial(nf, s, weights[j])
                j += 1
        sums = [sum(c * weights[j] for j, c in row) for row in rows]
        assert (sorted(c for c in sums if c)
                == sorted(total.terms.values()))
        assert sorted(c for c in rhs if c) == sorted(target.terms.values())
        assert len(rhs) == len(rows)


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


def test_p70_refusals_name_the_hypothesis():
    """Each hypothesis of the statement that fails is named, in the order
    lemma_p70_check tests them."""
    fine2 = group_algebra(Q, FgGroup(2, ()), "fine")
    psi = GroupHom(fine2.ggroup, FgGroup(1, ()), ((1, 1),))
    one = Element.one(fine2)
    qt = group_algebra(Q, FgGroup(0, (2,)), "coarse")
    double = GroupHom(QZ.ggroup, QZ.ggroup, ((2,),))
    for call, message in (
            (lambda: lemma_p70_check(fine2, psi, e(QZ, 1), one),
             "elements must live in the given ring"),
            (lambda: lemma_p70_check(qt, identity_hom(qt.ggroup),
                                     Element.one(qt), Element.one(qt)),
             "ring is not entire"),
            (lambda: lemma_p70_check(QZ, double, e(QZ, 1), e(QZ, 0)),
             "bad coarsening map: coarsening map is not onto"),
            (lambda: lemma_p70_check(fine2, psi,
                                     e(fine2, 1, 0) + e(fine2, 0, 1), one),
             "the product is not homogeneous, statement does not apply")):
        with pytest.raises(PreconditionViolatedError, match=f"^{message}$"):
            call()


def test_reachable_refusals():
    """Refusals of a zero operand and of operands from different rings."""
    fine2 = group_algebra(Q, FgGroup(2, ()), "fine")
    with pytest.raises(ZeroElementError,
                       match="^zero divisor test on the zero element$"):
        nzd_test(Element.zero(QZ))
    with pytest.raises(ParentMismatchError,
                       match="^numerator and denominator rings differ$"):
        Fraction(e(QZ, 1), e(fine2, 0, 0))
    with pytest.raises(ParentMismatchError, match="^exponent groups differ$"):
        reparent(e(QZ, 1), fine2)


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
