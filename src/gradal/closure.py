"""Witness-based integrality for graded ring extensions.

Integrality of x over a subring R is always established by an explicit
monic equation whose coefficients are homogeneous elements of R with
degrees pinned to multiples of deg(x); almost-integrality by an explicit
membership x^(k+1) in the R-span of 1, x, ..., x^k.  R and the ring of x
differ only in their base (Z in Z, Z in Q or Q in Q), so an element of R
is carried over by reparent.  Searches are bounded (max degree, exponent
box) and report NoWitnessUpTo instead of claiming non-integrality.  One
search core serves elements x, which have no denominator, and
homogeneous fractions num/den.  At degree 1 it reads the witness a1 = -x,
or a1 = -num/den for a monomial den, off the terms; otherwise it solves
one exact linear system per degree, rationally over base Q and by
Hermite form over base Z.  Almost-integrality is that monic search at
degree k+1, read as a membership, so the two notions agree judgment for
judgment at aligned bounds.  One verification routine checks every
witness before it is returned, in the arithmetic of the ring x lives
in: an element's equation x^n + sum a_i x^(n-i) as it stands, a
fraction's multiplied through by den^n.

The module also houses the explicit constructions the package exists to
reproduce: the torsion idempotent that breaks integral closedness, the
graded euclidean division, worked inside a Laurent extension, the
isomorphism splitting a free grading summand into an adjoined exponent
group (along the idempotent of the exponent group that the projection
onto the complement pulls back to), and the kernel-absorbing embedding
attached to a section of a coarsening.
"""

from fractions import Fraction as Rational
from math import prod

from .abelian import (
    FgGroup,
    GroupElem,
    GroupHom,
    _A_HOM,
    _A_RING,
    _GENERATORS,
    _Record,
    _check_ints,
    _each,
    _need,
    add_homs,
    box_fiber,
    compose,
    direct_sum,
    hom_image,
    hom_inverse,
    hom_kernel,
    identity_hom,
    lift_hom,
    subgroup_generated_by,
)
from .element import (
    Element,
    Fraction,
    Unit,
    _AN_ELEMENT,
    _by_degree,
    _image,
    _shift_system,
    degree_of,
    homogeneous_components,
    homogeneous_unit_test,
    reparent,
)
from .errors import (
    BadOrderError,
    GradalError,
    HypothesisViolatedError,
    IncompatibleRingsError,
    InternalInvariantError,
    NotASectionError,
    NotSimpleBaseError,
    ZeroElementError,
)
from .intmat import _int_row, solve_int, solve_rational
from .ringexpr import (
    BaseZ,
    NormalForm,
    _over_base,
    _restricted,
    classify,
    coarsen,
    group_algebra,
    normalize,
)

__all__ = [
    "IntegralityWitness",
    "AlmostIntegralWitness",
    "NoWitnessUpTo",
    "RingMap",
    "verify_integral_witness",
    "find_integral_equation",
    "find_almost_integral_witness",
    "components_integral_check",
    "ComponentsReport",
    "torsion_idempotent",
    "TorsionIdempotent",
    "LaurentStructure",
    "laurent_extension",
    "graded_euclidean_division",
    "lem50_iso",
    "Lem50Pair",
    "j_pi_embedding",
    "witness_str",
]


class IntegralityWitness(_Record):
    """x^degree + coeffs[0]*x^(degree-1) + ... + coeffs[-1] = 0."""

    __slots__ = ("degree", "coeffs")


class AlmostIntegralWitness(_Record):
    """x^(k+1) = sum(combination[i] * x^i), a combination of 1, ..., x^k."""

    __slots__ = ("k", "combination")


class NoWitnessUpTo(_Record):
    """No witness within the bounds searched (a bound not used is None)."""

    __slots__ = ("max_deg", "k_max", "box")


def witness_str(w):
    _need(w, IntegralityWitness,
          "expected a witness, got {0.__class__.__name__}")
    parts = [f"monic {w.degree}"]
    for i, a in enumerate(w.coeffs, start=1):
        parts.append(f"a{i} = {a}")
    return "; ".join(parts)


def _check_base_change(r, s):
    """Raise unless s is r over a wider base: Z in Z, Z in Q or Q in Q."""
    for ring in (r, s):
        _need(ring, NormalForm, _A_RING)
    if (r.base, s.base) not in (("Z", "Z"), ("Z", "Q"), ("Q", "Q")):
        raise IncompatibleRingsError(f"base {r.base} does not embed in {s.base}")
    if r.fraction or s.fraction:
        raise IncompatibleRingsError(
            "witness searches run on the underlying rings, not fraction forms")
    if r.egroup != s.egroup or r.ggroup != s.ggroup or r.delta != s.delta:
        raise IncompatibleRingsError(
            "rings differ beyond the base: exponent group, grading group "
            "and degree map must agree")


def _solve_linear(base, rows, rhs, ncols):
    """Exact solve of sparse rows; integer solutions when the subring base
    is Z, through the dense rows that solve_int's Hermite form needs."""
    if base != "Z":
        return solve_rational(rows, rhs, ncols)
    int_rows, int_rhs = [], []
    for row, b in zip(rows, rhs):
        dense = [0] * (ncols + 1)
        for j, v in _int_row([*row, (ncols, b)]).items():
            dense[j] = v
        int_rhs.append(dense.pop())
        int_rows.append(dense)
    return solve_int(int_rows, int_rhs, len(int_rows), ncols)


def _monic_solution(r, factors, n, fibers):
    """Coefficients a_1..a_n with factors[n] + sum a_i factors[n-i] = 0.

    factors[j] plays the role of x^j; for fractions the caller passes the
    cleared products so the same system serves both shapes; fibers[i]
    lists the subring exponents in the box of degree i * deg(x), in
    box_elements order, for i = 1..n.  Variables are ordered by
    (i, exponent), rows as _shift_system orders them, which makes the
    returned witness deterministic.
    """
    rows, rhs = _shift_system(-factors[n], [(factors[n - i], fibers[i])
                                           for i in range(1, n + 1)])
    sol = _solve_linear(r.base, rows, rhs, sum(map(len, fibers[1:n + 1])))
    if sol is None:
        return None
    sol = iter(sol)
    return tuple(Element(r, {f: v for f, v in zip(fibers[i], sol) if v})
                 for i in range(1, n + 1))


def _check_query(r, s, x):
    """Raise unless s is r over a wider base and x lives over s."""
    _check_base_change(r, s)
    if not isinstance(x, (Element, Fraction)) or x.parent != s:
        raise IncompatibleRingsError("x must live in the big ring")


def _num_den(x):
    """(num, den) with x = num/den; den is None for an element."""
    if isinstance(x, Fraction):
        return x.num, x.den
    return x, None


def _cleared(num, den, coeffs):
    """num^n + sum coeffs[i-1] * num^(n-i) * den^i, by Horner's rule.

    This is den^n times x^n + sum a_i x^(n-i) for x = num/den, and den
    is a homogeneous non zero divisor, so one vanishes iff the other does.
    With den None it is x^n + sum a_i x^(n-i) itself, num being x.
    """
    if den is None:
        acc = num + coeffs[0]
        for a in coeffs[1:]:
            acc = acc * num + a
        return acc
    acc, den_i = num + coeffs[0] * den, den
    for a in coeffs[1:]:
        den_i = den_i * den
        acc = acc * num + a * den_i
    return acc


def verify_integral_witness(r, s, x, w):
    """Exact check of a monic witness: equation, membership, degrees.

    x is an element of s or a homogeneous fraction over s; a malformed
    witness is False.  If num is homogeneous, x has a degree g, and each
    nonzero a_i must have one degree bucket, keyed (i * g).coords.  The
    equation is evaluated in the arithmetic of s: on x itself for an
    element, cleared of the denominator for a fraction.
    """
    _check_query(r, s, x)
    if (not isinstance(w, IntegralityWitness) or type(w.degree) is not int
            or w.degree < 1 or not hasattr(w.coeffs, "__len__")
            or len(w.coeffs) != w.degree):
        return False
    for a in w.coeffs:
        if not isinstance(a, Element) or a.parent != r:
            return False
    num, den = _num_den(x)
    buckets = _by_degree(num)
    if len(buckets) == 1:
        g = GroupElem(s.delta.codomain, next(iter(buckets)))
        g = g if den is None else g - degree_of(den)
        for i, a in enumerate(w.coeffs, start=1):
            if a.terms and list(_by_degree(a)) != [(i * g).coords]:
                return False
    return _cleared(num, den, [reparent(a, s) for a in w.coeffs]).is_zero


# Most candidates a witness search lists: max_deg * (2 box + 1)^rank * |T|.
_SEARCH_CELLS = 10 ** 6


def _search(r, s, x, max_deg, box):
    """Lowest-degree verified monic witness for x over r, or None.

    A max_deg below 1 or a negative box describes no search, and more
    than _SEARCH_CELLS candidates one too large to run: both raise
    GradalError.  x is an element of s or a homogeneous fraction over s.
    At degree n the factor standing in for x^j is x^j for an element,
    num^j * den^(n-j) for a fraction, which stops at degree 1.  For an
    element or a monomial den, degree 1 needs no system: its one
    solution a1 = -x or -num/den is read off the terms (_read_off).
    The witness is re-verified on x.

    Degrees above 1 are searched only when r has base Z, r is not entire
    and x has a non-integer coefficient: a deep search, which starts at
    degree 2, x being an element outside r.  Otherwise a witness in the
    box exists iff one of degree 1 does, because:
    - Q[E] = Q[T][Z^r] = prod K_i[Z^r] with fields K_i (Perlis-Walker).
      If P(y) = 0 in a domain K[Z^r], P monic of degree n with
      coefficient exponents in the box [-b, b]^r, so are y's: past
      M > b in a coordinate, y^n has a leading form of degree nM there
      while each a_i y^(n-i) reaches at most b + (n-i)M < nM.  Applied
      in each K_i[Z^r]: an x in r has a witness in the box iff supp(x)
      lies in it, and then X - x is one.
    - x lies in r if it is an element over a common base (Z in Z, Q in
      Q) or with integer coefficients.  If r is entire, K = ker delta is
      torsionfree and a homogeneous x of degree g is e_f * p with p in
      the fraction field of base[K] (a fraction exists only over an
      entire ring).  A witness, whose coefficients have degree i * g,
      makes p integral over base(r)[K], a Laurent ring and so normal
      (Gilmer 1984); hence p lies in base(r)[K] and x in r.
    """
    _check_ints("search bounds", (max_deg, box))
    if max_deg < 1:
        raise GradalError(f"max_deg must be at least 1, got {max_deg}")
    if box < 0:
        raise GradalError(f"support box must be at least 0, got {box}")
    _check_query(r, s, x)
    if x.is_zero:
        raise ZeroElementError("integrality of zero is trivial; pass nonzero x")
    num, den = _num_den(x)
    deep = (r.base == "Z" and not classify(r).entire
            and any(c.denominator != 1 for c in num.terms.values()))
    if not deep:
        max_deg = 1
    exps = r.delta.domain
    cells = max_deg * (2 * box + 1) ** exps.rank * prod(exps.torsion)
    if cells > _SEARCH_CELLS:
        raise GradalError(f"a search over {cells} candidates exceeds the "
                          f"limit of {_SEARCH_CELLS}; lower max_deg or box")
    g = degree_of(num) if den is None else degree_of(num) - degree_of(den)
    fibers, factors = [None], []
    # a deep x is an element outside r: no a1 in r cancels it in x + a1
    for n in range(2 if deep else 1, max_deg + 1):
        if n == 1 and (den is None or len(den.terms) == 1):
            coeffs = _read_off(r, num, den, box)
        else:
            fibers += [box_fiber(r.delta, box, i * g)
                       for i in range(len(fibers), n + 1)]
            factors = factors or [Element.one(s) if den is None else den, num]
            if n > 1:
                factors.append(factors[-1] * num)
            coeffs = _monic_solution(r, factors, n, fibers)
        if coeffs is not None:
            w = IntegralityWitness(n, coeffs)
            if not verify_integral_witness(r, s, x, w):
                raise InternalInvariantError("witness failed its own verification")
            return w
    return None


def _read_off(r, num, den, box):
    """(a1,) with a1 = -num/den for a monomial den = c*e(f), or None;
    a1 = -num for den None, x = num being an element.

    den has one term, so each unknown of the degree-1 system sits in one
    row of its own, and the system has at most one solution: a1, when a1
    lies in the box fiber.  None when a coefficient of a1 lies outside
    r's base or a free exponent outside [-box, box]; else a1 with its
    terms in fiber order, as _monic_solution would build it.
    """
    if den is None:
        terms = [(h, -v) for h, v in num.terms.items()]
    else:
        (f, c), = den.terms.items()
        terms = [(h - f, -Rational(v) / c) for h, v in num.terms.items()]
    rank = r.egroup.rank
    for h, a in terms:
        if (r.base == "Z" and a.denominator != 1
                or any(abs(u) > box for u in h.coords[:rank])):
            return None
    return (Element(r, dict(sorted(terms, key=lambda t: t[0].coords))),)


def find_integral_equation(r, s, x, max_deg=3, support_box=3):
    """Lowest-degree monic witness for x over r, searched within bounds."""
    w = _search(r, s, x, max_deg, support_box)
    return w or NoWitnessUpTo(max_deg=max_deg, box=support_box)


def find_almost_integral_witness(r, s, x, k_max=2, support_box=3):
    """Smallest k with x^(k+1) in the r-span of 1, x, ..., x^k.

    x^(k+1) + a_1 x^k + ... + a_(k+1) = 0 says x^(k+1) is the combination
    -a_(k+1), ..., -a_1 of 1, x, ..., x^k, so this is the monic search at
    degree k+1, and it agrees with find_integral_equation at max_deg =
    k_max + 1.  x may also be a homogeneous fraction over s.  The
    search has verified that equation, which is the membership.
    """
    _check_ints("search bounds", (k_max,))
    if k_max < 0:
        raise GradalError(f"k_max must be at least 0, got {k_max}")
    w = _search(r, s, x, k_max + 1, support_box)
    if w is None:
        return NoWitnessUpTo(k_max=k_max, box=support_box)
    return AlmostIntegralWitness(w.degree - 1,
                                 tuple(-a for a in reversed(w.coeffs)))


def find_integral_equation_fraction(r, x, max_deg=3, support_box=3):
    """find_integral_equation(r, x.parent, x, max_deg, support_box) for a
    Fraction x."""
    # _search, not find_integral_equation, so that bench/tracer.py counts
    # these searches apart; delete this alias once the tracer drops it.
    _need(x, Fraction, "expected a fraction, got {0.__class__.__name__}")
    w = _search(r, x.parent, x, max_deg, support_box)
    return w or NoWitnessUpTo(max_deg=max_deg, box=support_box)


class ComponentsReport(_Record):
    """The coarse search result and (degree, result) per fine component."""

    __slots__ = ("coarse_result", "fine_results")

    @property
    def coarse_found(self):
        return isinstance(self.coarse_result, IntegralityWitness)

    @property
    def fine_found(self):
        return all(isinstance(res, IntegralityWitness)
                   for _, res in self.fine_results)

    @property
    def outcome(self):
        """both, only-coarse, only-fine or neither."""
        return {(True, True): "both", (True, False): "only-coarse",
                (False, True): "only-fine", (False, False): "neither"}[
                    (self.coarse_found, self.fine_found)]


def components_integral_check(r, psi, x, max_deg=3, support_box=3):
    """Integrality of a coarse-homogeneous x versus its fine components.

    Runs the witness search for x over the coarsened ring and for every
    homogeneous component of x over the fine ring, and reports which
    side produced witnesses: both, only-coarse, only-fine or neither.
    Bounded searches mean only-coarse/only-fine record where a witness
    was found within bounds, not a proof of non-integrality.
    """
    s = _need(x, Element, _AN_ELEMENT).parent
    _check_base_change(r, s)
    if x.is_zero:
        raise ZeroElementError("decompose a nonzero element")
    r_c = coarsen(r, psi)
    # s is r over s.base (checked above) and coarsen has checked psi
    s_c = _over_base(r_c, s.base)
    x_c = reparent(x, s_c)
    coarse_result = find_integral_equation(r_c, s_c, x_c, max_deg, support_box)
    fine = []
    for deg, part in homogeneous_components(x).items():
        fine.append((deg, find_integral_equation(r, s, part,
                                                 max_deg, support_box)))
    return ComponentsReport(coarse_result, tuple(fine))


class TorsionIdempotent(_Record):
    """f in ring_q over ring_z, with f^2 + (c-1)f - d = 0 as witness."""

    __slots__ = ("n", "ring_z", "ring_q", "f", "c", "d", "witness")


def torsion_idempotent(n):
    """The degree-zero idempotent that breaks integral closedness.

    Over F = Z/n the element f = (1/n) * sum of all e_g is idempotent,
    lies outside the integer-coefficient subring, and satisfies the
    monic equation f^2 + (c-1)f - d = 0 with c = 1 + (n-1)e_g^(n-1) and
    d = n*f, both with integer coefficients.  All identities are checked
    exactly on construction, at a cost quadratic in n, so orders above
    256 are refused.
    """
    _check_ints("orders", (n,), BadOrderError)
    if n < 2:
        raise BadOrderError(f"need n >= 2, got {n}")
    if n > 256:
        raise BadOrderError(f"need n <= 256, got {n}")
    grp = FgGroup(0, (n,))
    ring_z = group_algebra(normalize(BaseZ()), grp, "coarse")
    ring_q = _over_base(ring_z, "Q")
    e = ring_q.egroup
    f = Element(ring_q, {e.element((i,)): Rational(1, n) for i in range(n)})
    ez = ring_z.egroup
    c = Element(ring_z, {ez.zero(): 1, ez.element((n - 1,)): n - 1})
    d = Element(ring_z, {ez.element((i,)): 1 for i in range(n)})
    if f * f != f:
        raise InternalInvariantError("idempotent identity failed")
    if reparent(c, ring_q) * f != reparent(d, ring_q):
        raise InternalInvariantError("f*c = d identity failed")
    if all(v.denominator == 1 for v in f.terms.values()):
        raise InternalInvariantError("f unexpectedly has integer coefficients")
    one_z = Element.one(ring_z)
    witness = IntegralityWitness(2, (c - one_z, -d))
    if not verify_integral_witness(ring_z, ring_q, f, witness):
        raise InternalInvariantError("monic witness failed verification")
    return TorsionIdempotent(n, ring_z, ring_q, f, c, d, witness)


class LaurentStructure(_Record):
    """A ring together with its Laurent extension by one invisible z.

    ring is base_ring with one adjoined exponent z of degree zero.
    emb_e carries base exponents into ring, z_proj reads the z power of
    an exponent of ring, and z_gen is the exponent of z itself.
    """

    __slots__ = ("ring", "base_ring", "emb_e", "z_proj", "z_gen")


def laurent_extension(r):
    if _need(r, NormalForm, _A_RING).fraction:
        raise GradalError("adjoin the Laurent variable before fractions")
    zgrp = FgGroup(1, ())
    ds = direct_sum(r.egroup, zgrp)
    ring = group_algebra(r, zgrp, "coarse")
    z_gen = ds.inj2.apply(zgrp.element((1,)))
    return LaurentStructure(ring, r, ds.inj1, ds.proj2, z_gen)


def _z_top(struct, x):
    """(k, top): the z-degree k of a nonzero x in struct.ring, its highest
    z power, and top, the terms of x that carry z^k."""
    zdeg = {f: struct.z_proj.apply(f).coords[0] for f in x.terms}
    k = max(zdeg.values())
    return k, Element(struct.ring, {f: c for f, c in x.terms.items()
                                    if zdeg[f] == k})


def graded_euclidean_division(struct, f, g):
    """g = u*f + v with the z-degree of v strictly below that of f.

    Needs a simple base ring so the leading z-coefficient (homogeneous,
    nonzero) is invertible.  Everything stays in the Laurent ring: lead,
    the top z-layer of f, is inverted there, and each step removes the
    top z-layer of v with the quotient term top * lead^-1.  Processing
    always eliminates the maximal z power, so the result does not depend
    on term order.
    """
    _need(struct, LaurentStructure,
          "pass the Laurent structure, see laurent_extension")
    if not classify(struct.base_ring).simple:
        raise NotSimpleBaseError("division needs a simple base ring")
    if (_need(f, Element, _AN_ELEMENT).parent != struct.ring
            or _need(g, Element, _AN_ELEMENT).parent != struct.ring):
        raise IncompatibleRingsError("f and g must live in the Laurent ring")
    if f.is_zero:
        raise ZeroElementError("division by zero")
    if g.is_zero:
        return Element.zero(struct.ring), Element.zero(struct.ring)
    degree_of(f)
    degree_of(g)
    fdeg, lead = _z_top(struct, f)
    res = homogeneous_unit_test(lead)
    if not isinstance(res, Unit):
        # a simple base is over Q with injective delta: lead is c*e(f)*z^k
        raise InternalInvariantError("leading coefficient is not invertible")
    u = Element.zero(struct.ring)
    v = g
    while not v.is_zero:
        vdeg, top = _z_top(struct, v)
        if vdeg < fdeg:
            break
        q = top * res.inverse
        u = u + q
        v = v - q * f
    return u, v


class RingMap(_Record):
    """Monomial ring morphism: e_f goes to e_(exponent_map(f)).

    Multiplicative and unital by construction; degree behavior is
    whatever the exponent map induces and is asserted by the callers
    that build these maps.
    """

    __slots__ = ("domain", "codomain", "exponent_map")

    def apply(self, x):
        """x's image: coordinates through the matrix of an exponent map
        that fits both rings over one base, else term by term, checked."""
        if _need(x, Element, _AN_ELEMENT).parent != self.domain:
            raise IncompatibleRingsError("element outside the map's domain")
        m, cod = self.exponent_map, self.codomain
        if (m.__class__ is GroupHom and cod.__class__ is NormalForm
                and (m.domain, m.codomain, cod.base)
                == (self.domain.egroup, cod.egroup, self.domain.base)):
            return _image(x, m, cod)
        out = {}
        for f, c in x.terms.items():
            img = self.exponent_map.apply(f)
            out[img] = out.get(img, 0) + c
        return Element(self.codomain, out)


def _hom_minus(f, g):
    """f - g for homs with the same domain and codomain."""
    neg = [[-v for v in row] for row in g.matrix]
    return add_homs(f, GroupHom(g.domain, g.codomain, neg))


class Lem50Pair(_Record):
    """Mutually inverse maps p: target -> coarse and q: coarse -> target."""

    __slots__ = ("p", "q", "target", "coarse", "psi")


def lem50_iso(r, f_gens, h_gens):
    """Split a free grading summand F into an adjoined exponent group.

    Given a simple ring r graded by G = F + H with F free and the degree
    support D satisfying rho(D) inside D (rho the projection onto H),
    builds mutually inverse monomial maps between r graded by H and the
    H-restriction of r with D cap F adjoined as extra exponents.  The
    degree map delta of a simple ring is injective, so rho pulls back to
    an idempotent pi of the exponent group E, and E = pi(E) + ker pi:
    pi(E) is the H-restriction and delta maps ker pi onto D cap F.  The
    adjoined basis monomials are the preimages y_e of a basis of D cap F.
    q is the lift of the identity through p; the checks that follow
    certify that it is two-sided.
    """
    if not classify(r).simple or r.fraction:
        raise HypothesisViolatedError("need a simple ring in algebra form")
    g = r.ggroup
    f_gens = list(_each(f_gens, _GENERATORS))
    h_gens = list(_each(h_gens, _GENERATORS))
    sf, i_f = subgroup_generated_by(g, f_gens)
    sh, i_h = subgroup_generated_by(g, h_gens)
    if not sf.is_torsionfree:
        raise HypothesisViolatedError("F must be free")
    ds = direct_sum(sf, sh)
    phi = add_homs(compose(i_f, ds.proj1), compose(i_h, ds.proj2))
    try:
        phi_inv = hom_inverse(phi)
    except GradalError as exc:
        raise HypothesisViolatedError(f"G is not F + H: {exc}") from exc
    psi = compose(ds.proj2, phi_inv)
    pi = lift_hom(r.delta, compose(i_h, compose(psi, r.delta)))
    if pi is None:
        raise HypothesisViolatedError(
            "projection onto the complement does not preserve the support")
    _, i_k = hom_kernel(pi)
    df, i_df = hom_image(compose(r.delta, i_k))
    if not df.is_torsionfree:
        # D cap F lies in F, which is checked free above
        raise InternalInvariantError(
            "intersection with a free group must be free")
    y_map = lift_hom(r.delta, i_df)
    if y_map is None:
        # D cap F is delta(ker pi)
        raise InternalInvariantError("support basis escaped the degree image")
    restricted, kappa = _restricted(r, h_gens, sh, i_h)
    ds_t = direct_sum(restricted.egroup, df)
    target = group_algebra(restricted, df, "coarse")
    coarse = coarsen(r, psi)
    mu_p = add_homs(compose(kappa, ds_t.proj1), compose(y_map, ds_t.proj2))
    mu_q = lift_hom(mu_p, identity_hom(r.egroup))
    if mu_q is None:
        # E = pi(E) + ker pi, which kappa and y_map reach
        raise InternalInvariantError("an exponent escaped the image of p")
    if compose(mu_p, mu_q) != identity_hom(r.egroup):
        raise InternalInvariantError("p . q is not the identity on exponents")
    if compose(mu_q, mu_p) != identity_hom(ds_t.group):
        raise InternalInvariantError("q . p is not the identity on exponents")
    if compose(coarse.delta, mu_p) != target.delta:
        raise InternalInvariantError("p does not preserve the H-degree")
    return Lem50Pair(RingMap(target, coarse, mu_p),
                     RingMap(coarse, target, mu_q), target, coarse, psi)


def j_pi_embedding(r, psi, pi):
    """Embed the coarsened ring into its kernel algebra along a section.

    psi coarsens the grading, pi is a section of psi.  A fine term of
    degree g is sent to itself times the adjoined exponent g - pi(psi(g)),
    which lies in the kernel of psi for every g; the map is monomial,
    multiplicative and preserves the coarse degree.
    """
    ggroup = _need(r, NormalForm, _A_RING).ggroup
    if _need(psi, GroupHom, _A_HOM).domain != ggroup:
        raise GradalError("psi must start at the grading group")
    if (_need(pi, GroupHom, _A_HOM).domain != psi.codomain
            or pi.codomain != psi.domain):
        raise NotASectionError("pi must map the coarse group back")
    if compose(psi, pi) != identity_hom(psi.codomain):
        raise NotASectionError("psi . pi is not the identity")
    k, i_k = hom_kernel(psi)
    theta = lift_hom(i_k, _hom_minus(identity_hom(r.ggroup), compose(pi, psi)))
    if theta is None:
        # psi . pi = id is checked above, so psi kills g - pi(psi(g))
        raise InternalInvariantError("g - pi(psi(g)) escaped the kernel")
    coarse = coarsen(r, psi)
    ds = direct_sum(r.egroup, k)
    target = group_algebra(coarse, k, "coarse")
    if target.egroup != ds.group:
        # both are direct_sum(r.egroup, k).group
        raise InternalInvariantError("kernel algebra exponents disagree")
    nu = add_homs(ds.inj1, compose(ds.inj2, compose(theta, r.delta)))
    if not nu.is_injective():
        raise InternalInvariantError("embedding is not injective")
    if compose(target.delta, nu) != coarse.delta:
        raise InternalInvariantError("embedding does not preserve the coarse degree")
    return RingMap(coarse, target, nu)
