"""Witness-based integrality for graded ring extensions.

Integrality of x over a subring R is always established by an explicit
monic equation whose coefficients are homogeneous elements of R with
degrees pinned to multiples of deg(x); almost-integrality by an explicit
membership x^(k+1) in the R-span of 1, x, ..., x^k.  Searches are
bounded (max degree, exponent box) and report NoWitnessUpTo instead of
claiming non-integrality.  One search core serves elements and
homogeneous fractions; it solves one exact linear system per degree,
rationally over base Q and by Hermite form over base Z.  Almost-
integrality is that monic search at degree k+1, read as a membership,
so the two notions agree judgment for judgment at aligned bounds.  One
verification routine checks every witness, for elements and fractions
alike, before it is returned.

The module also houses the explicit constructions the package exists to
reproduce: the torsion idempotent that breaks integral closedness, the
graded euclidean division over a Laurent extension, the isomorphism
splitting a free grading summand into an adjoined exponent group, and
the kernel-absorbing embedding attached to a section of a coarsening.
"""

from fractions import Fraction as Rational
from math import lcm

from .abelian import (
    FgGroup,
    GroupHom,
    add_homs,
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
    degree_of,
    homogeneous_components,
    homogeneous_unit_test,
    is_homogeneous,
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
from .intmat import solve_int, solve_rational
from .ringexpr import (
    BaseZ,
    BaseQ,
    classify,
    coarsen,
    group_algebra,
    normalize,
    restrict_data,
)

__all__ = [
    "IntegralityWitness",
    "AlmostIntegralWitness",
    "NoWitnessUpTo",
    "RingInclusion",
    "RingMap",
    "inclusion_for",
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


class IntegralityWitness:
    """x^degree + coeffs[0]*x^(degree-1) + ... + coeffs[-1] = 0."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs):
        self.degree = degree
        self.coeffs = coeffs


class AlmostIntegralWitness:
    """x^(k+1) = sum(combination[i] * x^i); generators span the module."""

    __slots__ = ("k", "generators", "combination")

    def __init__(self, k, generators, combination):
        self.k = k
        self.generators = generators
        self.combination = combination


class NoWitnessUpTo:
    """No witness within the bounds searched (a bound not used is None)."""

    __slots__ = ("max_deg", "k_max", "box")

    def __init__(self, max_deg=None, k_max=None, box=None):
        self.max_deg = max_deg
        self.k_max = k_max
        self.box = box


def witness_str(w):
    parts = [f"monic {w.degree}"]
    for i, a in enumerate(w.coeffs, start=1):
        parts.append(f"a{i} = {a}")
    return "; ".join(parts)


class RingInclusion:
    """A base change of graded rings: Z into Z, Z into Q, or Q into Q.

    Both rings share the exponent group, the grading group and the
    degree map, so an element keeps its terms on either side.
    """

    __slots__ = ("src", "dst")

    def __init__(self, src, dst):
        self.src = src
        self.dst = dst

    def cast(self, x):
        if x.parent != self.src:
            raise IncompatibleRingsError("element does not live in the subring")
        return reparent(x, self.dst)

    def member(self, x):
        """Pull x back into the subring, or None when it is not inside."""
        if x.parent != self.dst:
            raise IncompatibleRingsError("element does not live in the big ring")
        if self.src.base == "Z" and any(
                isinstance(c, Rational) and c.denominator != 1
                for c in x.terms.values()):
            return None
        return reparent(x, self.src)


def inclusion_for(r, s):
    """The base-change inclusion r into s."""
    if (r.base, s.base) not in (("Z", "Z"), ("Z", "Q"), ("Q", "Q")):
        raise IncompatibleRingsError(f"base {r.base} does not embed in {s.base}")
    if r.fraction or s.fraction:
        raise IncompatibleRingsError(
            "witness searches run on the underlying rings, not fraction forms")
    if r.egroup != s.egroup or r.ggroup != s.ggroup or r.delta != s.delta:
        raise IncompatibleRingsError(
            "rings differ beyond the base: exponent group, grading group "
            "and degree map must agree")
    return RingInclusion(r, s)


def _sorted_terms(x):
    return sorted(x.terms.items(), key=lambda kv: kv[0].coords)


def _solve_linear(base, rows, rhs, ncols):
    """Exact solve; integer solutions when the subring base is Z."""
    if base == "Z":
        int_rows = []
        int_rhs = []
        for row, b in zip(rows, rhs):
            scale = lcm(b.denominator, *(v.denominator for v in row))
            int_rows.append([v.numerator * (scale // v.denominator)
                             for v in row])
            int_rhs.append(b.numerator * (scale // b.denominator))
        sol = solve_int(int_rows, int_rhs, len(int_rows), ncols)
        return None if sol is None else [Rational(v) for v in sol]
    return solve_rational(rows, rhs, ncols)


def _monic_solution(r, factors, n, by_degree, degree):
    """Coefficients a_1..a_n with factors[n] + sum a_i factors[n-i] = 0.

    factors[j] plays the role of x^j; for fractions the caller passes the
    cleared products so the same system serves both shapes; by_degree
    maps a degree to the sorted subring exponents in the box.  Variables
    are ordered by (i, exponent), rows by first appearance in canonical
    order, which makes the returned witness deterministic.
    """
    variables = []
    columns = []
    row_index = {}
    rows_rhs = []

    def row_of(u):
        if u not in row_index:
            row_index[u] = len(rows_rhs)
            rows_rhs.append(Rational(0))
        return row_index[u]

    for f, c in _sorted_terms(factors[n]):
        rows_rhs[row_of(f)] -= Rational(c)
    for i in range(1, n + 1):
        for f in by_degree.get(i * degree, ()):
            col = {}
            for s, c in _sorted_terms(factors[n - i]):
                idx = row_of(f + s)
                col[idx] = col.get(idx, Rational(0)) + Rational(c)
            variables.append((i, f))
            columns.append(col)
    mat = [[0] * len(columns) for _ in rows_rhs]
    for j, col in enumerate(columns):
        for ridx, v in col.items():
            mat[ridx][j] = v
    sol = _solve_linear(r.base, mat, rows_rhs, len(columns))
    if sol is None:
        return None
    coeffs = []
    for i in range(1, n + 1):
        terms = {}
        for (vi, f), val in zip(variables, sol):
            if vi == i and val:
                terms[f] = int(val) if r.base == "Z" else val
        coeffs.append(Element(r, terms))
    return tuple(coeffs)


def _num_den(x):
    """(num, den, embed): x = num/den, and embed maps ring elements into
    the ring x lives in (the identity for an element, whose den is 1)."""
    if isinstance(x, Fraction):
        return x.num, x.den, Fraction.from_element
    return x, Element.one(x.parent), lambda e: e


def verify_integral_witness(r, s, x, w):
    """Exact check of a monic witness: equation, membership, degrees.

    x is an element of s or a homogeneous fraction over s; the equation
    is checked in genuine fraction arithmetic for the latter.
    """
    incl = inclusion_for(r, s)
    if not isinstance(w, IntegralityWitness) or w.degree < 1:
        return False
    if len(w.coeffs) != w.degree:
        return False
    for a in w.coeffs:
        if a.parent != r:
            return False
    num, den, embed = _num_den(x)
    if not x.is_zero and is_homogeneous(num):
        g = degree_of(num) - degree_of(den)
        for i, a in enumerate(w.coeffs, start=1):
            if a.is_zero:
                continue
            if not is_homogeneous(a):
                return False
            if degree_of(a) != i * g:
                return False
    acc = x ** w.degree
    for i, a in enumerate(w.coeffs, start=1):
        acc = acc + embed(incl.cast(a)) * x ** (w.degree - i)
    return acc.is_zero


def _search(r, s, x, max_deg, box):
    """Lowest-degree verified monic witness for x over r, or None.

    x is an element of s or a homogeneous fraction over s.  At degree n
    the factor standing in for x^j is num^j * den^(n-j) (num^j for an
    element), so both shapes share one linear system; the witness is
    then re-verified on x itself.
    """
    inclusion_for(r, s)
    if x.parent != s:
        raise IncompatibleRingsError("x must live in the big ring")
    if x.is_zero:
        raise ZeroElementError("integrality of zero is trivial; pass nonzero x")
    num, den, _ = _num_den(x)
    g = degree_of(num) - degree_of(den)
    by_degree = r.box_fibers(box)
    num_pows = [Element.one(s)]
    den_pows = [Element.one(s)]
    for _ in range(max_deg):
        num_pows.append(num_pows[-1] * num)
        if isinstance(x, Fraction):
            den_pows.append(den_pows[-1] * den)
    for n in range(1, max_deg + 1):
        factors = num_pows[:n + 1]
        if isinstance(x, Fraction):
            factors = [f * den_pows[n - j] for j, f in enumerate(factors)]
        coeffs = _monic_solution(r, factors, n, by_degree, g)
        if coeffs is not None:
            w = IntegralityWitness(n, coeffs)
            if not verify_integral_witness(r, s, x, w):
                raise InternalInvariantError("witness failed its own verification")
            return w
    return None


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
    membership is re-checked before the witness is returned.
    """
    w = _search(r, s, x, k_max + 1, support_box)
    if w is None:
        return NoWitnessUpTo(k_max=k_max, box=support_box)
    k = w.degree - 1
    combination = tuple(-a for a in reversed(w.coeffs))
    _, _, embed = _num_den(x)
    incl = inclusion_for(r, s)
    powers = [x ** i for i in range(k + 2)]
    acc = embed(Element.zero(s))
    for ri, p in zip(combination, powers):
        acc = acc + embed(incl.cast(ri)) * p
    if acc != powers[k + 1]:
        raise InternalInvariantError("membership witness failed verification")
    return AlmostIntegralWitness(k, tuple(powers[:k + 1]), combination)


def find_integral_equation_fraction(r, x, max_deg=3, support_box=3):
    """find_integral_equation(r, x.parent, x, max_deg, support_box)."""
    # _search, not find_integral_equation, so that bench/tracer.py counts
    # these searches apart; delete this alias once the tracer drops it.
    w = _search(r, x.parent, x, max_deg, support_box)
    return w or NoWitnessUpTo(max_deg=max_deg, box=support_box)


class ComponentsReport:
    """The coarse search result and (degree, result) per fine component."""

    __slots__ = ("coarse_result", "fine_results")

    def __init__(self, coarse_result, fine_results):
        self.coarse_result = coarse_result
        self.fine_results = fine_results

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
    s = x.parent
    inclusion_for(r, s)  # same exponents, base Z in Q or equal
    if x.is_zero:
        raise ZeroElementError("decompose a nonzero element")
    r_c = coarsen(r, psi)
    s_c = coarsen(s, psi)
    x_c = reparent(x, s_c)
    coarse_result = find_integral_equation(r_c, s_c, x_c, max_deg, support_box)
    fine = []
    for deg, part in homogeneous_components(x).items():
        fine.append((deg, find_integral_equation(r, s, part,
                                                 max_deg, support_box)))
    return ComponentsReport(coarse_result, tuple(fine))


class TorsionIdempotent:
    """f in ring_q over ring_z, with f^2 + (c-1)f - d = 0 as witness."""

    __slots__ = ("n", "group", "ring_z", "ring_q", "f", "c", "d", "witness")

    def __init__(self, n, group, ring_z, ring_q, f, c, d, witness):
        self.n = n
        self.group = group
        self.ring_z = ring_z
        self.ring_q = ring_q
        self.f = f
        self.c = c
        self.d = d
        self.witness = witness


def torsion_idempotent(n):
    """The degree-zero idempotent that breaks integral closedness.

    Over F = Z/n the element f = (1/n) * sum of all e_g is idempotent,
    lies outside the integer-coefficient subring, and satisfies the
    monic equation f^2 + (c-1)f - d = 0 with c = 1 + (n-1)e_g^(n-1) and
    d = n*f, both with integer coefficients.  All identities are checked
    exactly on construction.
    """
    if n < 2:
        raise BadOrderError(f"need n >= 2, got {n}")
    grp = FgGroup(0, (n,))
    ring_z = group_algebra(normalize(BaseZ()), grp, "coarse")
    ring_q = group_algebra(normalize(BaseQ()), grp, "coarse")
    e = ring_q.egroup
    f = Element(ring_q, {e.element((i,)): Rational(1, n) for i in range(n)})
    ez = ring_z.egroup
    c = Element(ring_z, {ez.zero(): 1, ez.element((n - 1,)): n - 1})
    d = Element(ring_z, {ez.element((i,)): 1 for i in range(n)})
    if f * f != f:
        raise InternalInvariantError("idempotent identity failed")
    incl = inclusion_for(ring_z, ring_q)
    if incl.cast(c) * f != incl.cast(d):
        raise InternalInvariantError("f*c = d identity failed")
    if incl.member(f) is not None:
        raise InternalInvariantError("f unexpectedly has integer coefficients")
    one_z = Element.one(ring_z)
    witness = IntegralityWitness(2, (c - one_z, -d))
    if not verify_integral_witness(ring_z, ring_q, f, witness):
        raise InternalInvariantError("monic witness failed verification")
    return TorsionIdempotent(n, grp, ring_z, ring_q, f, c, d, witness)


class LaurentStructure:
    """A ring together with its Laurent extension by one invisible z.

    ring is base_ring with one adjoined exponent z of degree zero; the
    maps split every exponent of ring into (base exponent, z power).
    """

    __slots__ = ("ring", "base_ring", "emb_e", "proj_e", "z_proj", "z_gen")

    def __init__(self, ring, base_ring, emb_e, proj_e, z_proj, z_gen):
        self.ring = ring
        self.base_ring = base_ring
        self.emb_e = emb_e
        self.proj_e = proj_e
        self.z_proj = z_proj
        self.z_gen = z_gen


def laurent_extension(r):
    if r.fraction:
        raise GradalError("adjoin the Laurent variable before fractions")
    zgrp = FgGroup(1, ())
    ds = direct_sum(r.egroup, zgrp)
    ring = group_algebra(r, zgrp, "coarse")
    z_gen = ds.inj2.apply(zgrp.element((1,)))
    return LaurentStructure(ring, r, ds.inj1, ds.proj1, ds.proj2, z_gen)


def _z_split(struct, x):
    """x as {z exponent: coefficient Element of the base ring}."""
    buckets = {}
    for f, c in x.terms.items():
        k = struct.z_proj.apply(f).coords[0]
        rf = struct.proj_e.apply(f)
        buckets.setdefault(k, {})[rf] = buckets.get(k, {}).get(rf, 0) + c
    return {k: Element(struct.base_ring, t) for k, t in buckets.items()
            if any(t.values())}

def _z_embed(struct, coeff, k):
    shift = k * struct.z_gen
    return Element(struct.ring,
                   {struct.emb_e.apply(f) + shift: c
                    for f, c in coeff.terms.items()})


def graded_euclidean_division(struct, f, g):
    """g = u*f + v with the z-degree of v strictly below that of f.

    Needs a simple base ring so the leading z-coefficient (homogeneous,
    nonzero) is invertible.  Processing always eliminates the maximal z
    power, so the result does not depend on term order.
    """
    if not isinstance(struct, LaurentStructure):
        raise GradalError("pass the Laurent structure, see laurent_extension")
    if not classify(struct.base_ring).simple:
        raise NotSimpleBaseError("division needs a simple base ring")
    if f.parent != struct.ring or g.parent != struct.ring:
        raise IncompatibleRingsError("f and g must live in the Laurent ring")
    if f.is_zero:
        raise ZeroElementError("division by zero")
    if g.is_zero:
        return Element.zero(struct.ring), Element.zero(struct.ring)
    degree_of(f)
    degree_of(g)
    fsplit = _z_split(struct, f)
    fdeg = max(fsplit)
    lead = fsplit[fdeg]
    res = homogeneous_unit_test(lead)
    if not isinstance(res, Unit):
        raise NotSimpleBaseError("leading coefficient is not invertible")
    linv = res.inverse
    u = Element.zero(struct.ring)
    v = g
    while not v.is_zero:
        vsplit = _z_split(struct, v)
        vdeg = max(vsplit)
        if vdeg < fdeg:
            break
        q = _z_embed(struct, vsplit[vdeg] * linv, vdeg - fdeg)
        u = u + q
        v = v - q * f
    return u, v


class RingMap:
    """Monomial ring morphism: e_f goes to e_(exponent_map(f)).

    Multiplicative and unital by construction; degree behavior is
    whatever the exponent map induces and is asserted by the callers
    that build these maps.
    """

    __slots__ = ("domain", "codomain", "exponent_map")

    def __init__(self, domain, codomain, exponent_map):
        self.domain = domain
        self.codomain = codomain
        self.exponent_map = exponent_map

    def apply(self, x):
        if x.parent != self.domain:
            raise IncompatibleRingsError("element outside the map's domain")
        out = {}
        for f, c in x.terms.items():
            img = self.exponent_map.apply(f)
            out[img] = out.get(img, 0) + c
        return Element(self.codomain, out)


def _hom_minus(f, g):
    """f - g for homs with the same domain and codomain."""
    neg = [[-v for v in row] for row in g.matrix]
    return add_homs(f, GroupHom(g.domain, g.codomain, neg))


class Lem50Pair:
    """Mutually inverse maps p: target -> coarse and q: coarse -> target."""

    __slots__ = ("p", "q", "target", "coarse", "psi", "chi")

    def __init__(self, p, q, target, coarse, psi, chi):
        self.p = p
        self.q = q
        self.target = target
        self.coarse = coarse
        self.psi = psi
        self.chi = chi


def lem50_iso(r, f_gens, h_gens):
    """Split a free grading summand F into an adjoined exponent group.

    Given a simple ring r graded by G = F + H with F free and the degree
    support D satisfying psi(D) inside D (psi the projection onto H),
    builds mutually inverse monomial maps between r graded by H and the
    H-restriction of r with D cap F adjoined as extra exponents.  The
    adjoined basis monomials are the canonical preimages y_e of a basis
    of D cap F, which exist and are unique because the degree map of a
    simple ring is injective.
    """
    cls = classify(r)
    if not cls.simple or r.fraction:
        raise HypothesisViolatedError("need a simple ring in algebra form")
    g = r.ggroup
    f_gens = list(f_gens)
    h_gens = list(h_gens)
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
    chi = compose(ds.proj1, phi_inv)
    psi = compose(ds.proj2, phi_inv)
    rho = compose(i_h, psi)
    d_sub, i_d = hom_image(r.delta)
    if lift_hom(i_d, compose(rho, i_d)) is None:
        raise HypothesisViolatedError(
            "projection onto the complement does not preserve the support")
    # D cap F: i_d of the kernel of (u, v) -> i_d(u) - i_f(v)
    ds_df = direct_sum(d_sub, sf)
    k, i_k = hom_kernel(_hom_minus(compose(i_d, ds_df.proj1),
                                   compose(i_f, ds_df.proj2)))
    df, i_df = hom_image(compose(i_d, compose(ds_df.proj1, i_k)))
    if not df.is_torsionfree:
        # D cap F lies in F, which is checked free above
        raise InternalInvariantError(
            "intersection with a free group must be free")
    restricted, kappa = restrict_data(r, h_gens)
    # canonical monomials: the unique exponents over a basis of D cap F
    y_map = lift_hom(r.delta, i_df)
    if y_map is None:
        # D cap F lies in D, the image of delta
        raise InternalInvariantError("support basis escaped the degree image")
    ds_t = direct_sum(restricted.egroup, df)
    target = group_algebra(restricted, df, "coarse")
    coarse = coarsen(r, psi)
    mu_p = add_homs(compose(kappa, ds_t.proj1), compose(y_map, ds_t.proj2))
    # q on e_f: split off the F-part chi(delta f) of its degree, divide
    # by its canonical monomial, land in the restriction.
    m = lift_hom(i_df, compose(i_f, compose(chi, r.delta)))
    if m is None:
        # delta(f) - rho(delta(f)) lies in F, and in D as rho preserves D
        raise InternalInvariantError("F-part of a degree escaped the support")
    w = lift_hom(kappa, _hom_minus(identity_hom(r.egroup), compose(y_map, m)))
    if w is None:
        # delta(f - y(m(f))) is the H-part of delta(f)
        raise InternalInvariantError(
            "residual exponent escaped the restriction")
    mu_q = add_homs(compose(ds_t.inj1, w), compose(ds_t.inj2, m))
    if compose(mu_p, mu_q) != identity_hom(r.egroup):
        raise InternalInvariantError("p . q is not the identity on exponents")
    if compose(mu_q, mu_p) != identity_hom(ds_t.group):
        raise InternalInvariantError("q . p is not the identity on exponents")
    if compose(coarse.delta, mu_p) != target.delta:
        raise InternalInvariantError("p does not preserve the H-degree")
    p = RingMap(target, coarse, mu_p)
    q = RingMap(coarse, target, mu_q)
    return Lem50Pair(p, q, target, coarse, psi, chi)


def j_pi_embedding(r, psi, pi):
    """Embed the coarsened ring into its kernel algebra along a section.

    psi coarsens the grading, pi is a section of psi.  A fine term of
    degree g is sent to itself times the adjoined exponent g - pi(psi(g)),
    which lies in the kernel of psi for every g; the map is monomial,
    multiplicative and preserves the coarse degree.
    """
    if psi.domain != r.ggroup:
        raise GradalError("psi must start at the grading group")
    if pi.domain != psi.codomain or pi.codomain != psi.domain:
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
    kn, _ = hom_kernel(nu)
    if not kn.is_trivial:
        raise InternalInvariantError("embedding is not injective")
    if compose(target.delta, nu) != coarse.delta:
        raise InternalInvariantError("embedding does not preserve the coarse degree")
    return RingMap(coarse, target, nu)
