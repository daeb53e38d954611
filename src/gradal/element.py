"""Elements of graded group algebras, and homogeneous fractions of them.

An element is a finite sum of terms c * e(f) with f in the exponent
group E and c in the base (int for Z, Fraction for Q).  Multiplication
is convolution of exponents on plain ints: coordinate tuples add, each
torsion coordinate reduced in the same pass, and over Q coefficients
multiply as integer numerators over each operand's common denominator.
Degrees live in the grading group via the parent's degree map.  A
Fraction is a checked pair (num, den) handed to the witness search; all
arithmetic is the ring's.

Element(parent, terms) checks each exponent and coefficient.  Sums,
negations, products, homogeneous parts, ring map images and reparents
other than Q into Z reuse valid terms, so Element._of builds them unchecked.

The two decision procedures here are exact, not sampled, and both work
in the ring's own exponent coordinates.  E = Z^r x T, so base[E] is the
Laurent ring base[T][Z^r], and Q[T] is a finite product of fields
(Perlis-Walker).  x lives in Q[V][Z^r] for V the subgroup of T that
the torsion parts of its support generate, and Q[T] is free over Q[V],
so x is a unit or a zero divisor there exactly when it is one in Q[E],
with the same inverse.  Each question is one linear system: unknown
coefficients c_s of the copies x * e(s) of x shifted by a support S,
summed to a target.

* nzd_test: S = V and target 0.  x is a zero divisor exactly when the
  system has a nonzero solution, a common annihilator in Q[V] of x's
  Laurent coefficients.
* homogeneous_unit_test: in each field factor a Laurent unit is a
  monomial whose exponent is the free part of a term of x, so any
  inverse is supported on the reflected support S = {-z} x V, and the
  system with target 1 settles the question.
"""

from fractions import Fraction as Rational
from math import lcm
from operator import add

from .abelian import (GroupElem, _A_RING, _Record, _check_ints, _each,
                      _member, _need, hom_kernel)
from .errors import (
    GradalError,
    HypothesisViolatedError,
    InternalInvariantError,
    NotEntireError,
    NotHomogeneousError,
    ParentMismatchError,
    PreconditionViolatedError,
    ZeroElementError,
)
from .intmat import mat_vec, nullspace_rational, solve_rational
from .ringexpr import NormalForm, classify, coarsen

__all__ = [
    "Element",
    "Fraction",
    "Unit",
    "NotUnit",
    "NonZeroDivisor",
    "ZeroDivisor",
    "P70Report",
    "homogeneous_components",
    "degree_of",
    "is_homogeneous",
    "homogeneous_unit_test",
    "nzd_test",
    "lemma_p70_check",
    "reparent",
]


def _coerce(base, c):
    if isinstance(c, bool) or not isinstance(c, (int, Rational)):
        raise GradalError(f"coefficient {c!r} is not an int or a Fraction")
    if base == "Q":
        return c if isinstance(c, Rational) else Rational(c)
    if isinstance(c, Rational):
        if c.denominator != 1:
            raise GradalError(f"coefficient {c} is not an integer")
        return c.numerator
    return c


def _ints(x):
    """(coords, numerator) pairs of x's terms over the lcm of their
    denominators, and that lcm."""
    den = lcm(*(c.denominator for c in x.terms.values()))
    return [(f.coords, c.numerator * (den // c.denominator))
            for f, c in x.terms.items()], den


def _term_str(c, f):
    mono = "e(" + ",".join(str(v) for v in f.coords) + ")"
    if c == 1:
        return mono
    if c == -1:
        return "-" + mono
    return f"{c}*{mono}"


_EXPONENT = "exponent in {0}, ring exponents in {1}"
_AN_ELEMENT = "expected an element, got {0.__class__.__name__}"
_TERMS = "expected a dict of terms, got {0.__class__.__name__}"


class Element:
    """Finite support map from exponents to coefficients."""

    __slots__ = ("parent", "terms")

    def __init__(self, parent, terms):
        _need(parent, NormalForm, "parent must be a ring normal form")
        clean = {}
        for f, c in _each(terms, _TERMS, dict.items):
            _member(f, parent.egroup, _EXPONENT)
            c = _coerce(parent.base, c)
            if c:
                clean[f] = c
        self.parent = parent
        self.terms = clean

    @classmethod
    def _of(cls, parent, terms):
        """The element with these terms, unchecked (see module docstring)."""
        out = cls.__new__(cls)
        out.parent, out.terms = parent, terms
        return out

    @classmethod
    def zero(cls, parent):
        return cls(parent, {})

    @classmethod
    def one(cls, parent):
        return cls(parent, {parent.egroup.zero(): 1})

    @classmethod
    def monomial(cls, parent, f, c=1):
        return cls(parent, {f: c})

    @property
    def is_zero(self):
        return not self.terms

    def support(self):
        return sorted(self.terms, key=lambda f: f.coords)

    def coeff(self, f):
        _member(f, self.parent.egroup, _EXPONENT)
        return self.terms.get(f) or _coerce(self.parent.base, 0)

    def _check(self, other):
        _need(other, Element, "cannot combine Element with {0!r}")
        if other.parent != self.parent:
            raise ParentMismatchError("elements of different rings")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for f, c in other.terms.items():
            out[f] = out.get(f, 0) + c
        return Element._of(self.parent, {f: c for f, c in out.items() if c})

    def __neg__(self):
        return Element._of(self.parent, {f: -c for f, c in self.terms.items()})

    def __sub__(self, other):
        self._check(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Rational)):
            return self.scale(other)
        self._check(other)
        g, (a, da), (b, db) = self.parent.egroup, _ints(self), _ints(other)
        mods, acc = g.torsion and (0,) * g.rank + g.torsion, {}
        for f1, c1 in a:
            for f2, c2 in b:  # reduced as they add; modulus 0 is free
                f = (tuple([(u + v) % m if m else u + v
                            for u, v, m in zip(f1, f2, mods)])
                     if mods else tuple(map(add, f1, f2)))
                acc[f] = acc.get(f, 0) + c1 * c2
        q = self.parent.base == "Q"
        return Element._of(self.parent,
                           {GroupElem(g, f): Rational(c, da * db) if q else c
                            for f, c in acc.items() if c})

    def __rmul__(self, other):
        if isinstance(other, (int, Rational)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        if isinstance(c, bool) or not isinstance(c, (int, Rational)):
            raise GradalError(f"scalar {c!r} is not an int or a Fraction")
        return Element(self.parent, {f: c * v for f, v in self.terms.items()})

    def __pow__(self, n):
        _check_ints("powers", (n,))
        if n < 0:
            raise GradalError("negative powers need the unit test first")
        out = Element.one(self.parent)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, Element) and self.parent == other.parent
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.parent,
                     tuple(sorted((f.coords, c) for f, c in self.terms.items()))))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for f in self.support():
            c = self.terms[f]
            s = _term_str(c, f)
            if parts and not s.startswith("-"):
                parts.append("+" + s)
            else:
                parts.append(s)
        return "".join(parts)

    def __repr__(self):
        return f"<{self} in {self.parent.describe()}>"


def _by_degree(x):
    """x's terms bucketed by degree, keyed by reduced coordinate tuples."""
    delta = _need(x, Element, _AN_ELEMENT).parent.delta
    cod, rows = delta.codomain, delta.matrix
    buckets = {}
    for f, c in x.terms.items():
        buckets.setdefault(cod._mod(tuple(mat_vec(rows, f.coords))), {})[f] = c
    return buckets


def homogeneous_components(x):
    """Decomposition by degree, as an ordered {degree: part} dict."""
    buckets = _by_degree(x)
    cod = x.parent.delta.codomain
    return {GroupElem(cod, d): Element._of(x.parent, t)
            for d, t in sorted(buckets.items())}


def is_homogeneous(x):
    return len(_by_degree(x)) <= 1


def degree_of(x):
    buckets = _by_degree(x)
    if not buckets:
        raise ZeroElementError("the zero element has no degree")
    if len(buckets) > 1:
        raise NotHomogeneousError(
            f"{x} has {len(buckets)} homogeneous components")
    return GroupElem(x.parent.delta.codomain, next(iter(buckets)))


def reparent(x, nf):
    """View x in another ring with the same exponent group.

    Legal when the exponent groups agree; moving from base Z into base Q
    widens coefficients, the reverse needs them integral.
    """
    _need(x, Element, "cannot reparent a {0.__class__.__name__}")
    if _need(nf, NormalForm, _A_RING).egroup != x.parent.egroup:
        raise ParentMismatchError("exponent groups differ")
    if nf.base == x.parent.base:
        return Element._of(nf, dict(x.terms))
    if nf.base == "Q":
        return Element._of(nf, {f: Rational(c) for f, c in x.terms.items()})
    return Element(nf, dict(x.terms))


def _image(x, hom, nf):
    """sum c * e(hom(f)) over x's terms c * e(f), hom fitting x and nf."""
    g, out = nf.egroup, {}
    for f, c in x.terms.items():
        img = g._mod(tuple(mat_vec(hom.matrix, f.coords)))
        out[img] = out[img] + c if img in out else c
    return Element._of(nf, {GroupElem(g, f): c for f, c in out.items() if c})


class Unit(_Record):
    __slots__ = ("inverse",)


class NotUnit(_Record):
    __slots__ = ("reason",)


class NonZeroDivisor(_Record):
    __slots__ = ("reason",)


class ZeroDivisor(_Record):
    __slots__ = ("annihilator",)


def _torsion_span(x):
    """V, the subgroup of T that the torsion parts of x's terms generate,
    as exponents of E = Z^r x T with free part 0, sorted by coordinates
    (so the zero first).  The module docstring says why V is enough.

    Both systems over V have at least |V| rows and |V| unknowns, so a
    closure past sqrt(_SYSTEM_CELLS) elements raises GradalError at once.
    """
    egroup = x.parent.egroup
    r = egroup.rank
    parts = {egroup.element((0,) * r + f.coords[r:]) for f in x.terms}
    span, todo = {egroup.zero()}, [egroup.zero()]
    while todo:  # close {0} under the torsion parts
        u = todo.pop()
        new = {u + t for t in parts} - span
        span |= new
        todo += new
        if len(span) ** 2 > _SYSTEM_CELLS:
            raise GradalError(f"a torsion span of {len(span)} or more "
                              f"elements exceeds the system limit of "
                              f"{_SYSTEM_CELLS}")
    return sorted(span, key=lambda t: t.coords)


# Most entries, rows times unknowns, of a dense shifted-products system.
_SYSTEM_CELLS = 10 ** 7


def _shift_system(target, columns):
    """The exact system sum_k c_k * p_k * e(s_k) = target, in sparse rows.

    columns is a list of (p, shifts), one unknown per shift in that
    order.  There is one row per exponent, in order of first appearance:
    target's terms, then each shifted p, terms in coordinate order;
    solve_int picks its integer solution by that order.  Returns (rows,
    rhs): each row a list of (unknown, nonzero coefficient) pairs in
    unknown order, rhs dense.  No dense row is built, but a system of
    more than _SYSTEM_CELLS entries, which the integer path would
    densify, is refused with GradalError.
    """
    g, support = target.parent.egroup, target.support()
    rows = {f.coords: [] for f in support}
    unknown = 0
    for p, shifts in columns:
        terms = sorted((f.coords, c) for f, c in p.terms.items())
        for s in shifts:
            for f, c in terms:
                rows.setdefault(g._mod(tuple(map(add, f, s.coords))),
                                []).append((unknown, c))
            unknown += 1
    cells = len(rows) * unknown
    if cells > _SYSTEM_CELLS:
        raise GradalError(f"a {len(rows)} x {unknown} system of {cells} "
                          f"entries exceeds the limit of {_SYSTEM_CELLS}")
    rhs = [target.terms[f] for f in support] + [0] * (len(rows) - len(support))
    return list(rows.values()), rhs


def nzd_test(x):
    """Decide whether x is a non zero divisor.  Exact: the decision
    never truncates.

    Q[V] is a finite product of fields and a Laurent ring over a field
    is entire, so x is a zero divisor exactly when its Laurent
    coefficients over Q[V] share a common annihilator w in Q[V]: the
    nullspace of x * w = 0 over the copies of x shifted by V.  A term
    with no torsion part gives V = 0 and an empty nullspace.
    """
    if _need(x, Element, _AN_ELEMENT).is_zero:
        raise ZeroElementError("zero divisor test on the zero element")
    span = _torsion_span(x)
    rows, _ = _shift_system(Element.zero(x.parent), [(x, span)])
    null = nullspace_rational(rows, len(span))
    if not null:
        return NonZeroDivisor("the Laurent coefficients over the torsion "
                              "part have no common annihilator")
    scale = lcm(*(v.denominator for v in null[0]))
    w = Element(x.parent, {t: v * scale for t, v in zip(span, null[0])})
    if (x * w).is_zero and not w.is_zero:
        return ZeroDivisor(w)
    raise InternalInvariantError("annihilator construction failed verification")


def homogeneous_unit_test(x):
    """Decide invertibility of a homogeneous element.  Exact.

    One term: the coefficient decides.  Several terms: in each field
    factor F of Q[V][Z^r] a unit is a monomial c*z^a with a the free
    part of a term of x, so the unique inverse is supported on the
    reflected support {-a} x V, and one solve of x * w = 1 over the
    copies of x shifted by it decides.  Over Z the rational inverse must
    also be integral.  The inverse is an Element, so x may not live in a
    fraction form: there the answer would be the underlying ring's.
    """
    if _need(x, Element, _AN_ELEMENT).parent.fraction:
        raise HypothesisViolatedError(
            "unit test over a fraction form; pass the underlying ring")
    if x.is_zero:
        raise ZeroElementError("unit test on the zero element")
    degree_of(x)
    base = x.parent.base
    if len(x.terms) == 1:
        (f, c), = x.terms.items()
        if base == "Z" and c not in (1, -1):
            return NotUnit(f"coefficient {c} is not a unit in Z")
        inv_c = Rational(1, 1) / c if base == "Q" else c
        return Unit(Element.monomial(x.parent, -f, inv_c))
    egroup = x.parent.egroup
    r = egroup.rank
    span = _torsion_span(x)
    exps = [egroup.element(tuple(-u for u in b) + t.coords[r:])
            for b in sorted({f.coords[:r] for f in x.terms}) for t in span]
    rows, rhs = _shift_system(Element.one(x.parent), [(x, exps)])
    sol = solve_rational(rows, rhs, len(exps))
    if sol is None:
        return NotUnit("no inverse supported on the reflected support, "
                       "which holds every inverse")
    if base == "Z" and any(v.denominator != 1 for v in sol):
        return NotUnit("the unique rational inverse is not integral")
    w = Element(x.parent, dict(zip(exps, sol)))
    if (x * w) == Element.one(x.parent):
        return Unit(w)
    raise InternalInvariantError("inverse construction failed verification")


class Fraction:
    """A homogeneous fraction num/den over an entire ring, as a search input.

    The gates are those of a fraction: num and den Elements of one ring,
    den nonzero and homogeneous, the ring entire.  There is no fraction
    arithmetic: the witness search and its verification multiply through
    by powers of den, a non zero divisor, and stay in the ring.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        for part in (num, den):
            _need(part, Element, "cannot form a fraction of a "
                                 "{0.__class__.__name__}")
        if num.parent != den.parent:
            raise ParentMismatchError("numerator and denominator rings differ")
        if den.is_zero:
            raise ZeroElementError("zero denominator")
        if not classify(num.parent).entire:
            raise NotEntireError("fractions need an entire ring")
        degree_of(den)  # raises NotHomogeneous when den is mixed
        self.num = num
        self.den = den

    @property
    def parent(self):
        return self.num.parent

    @property
    def is_zero(self):
        return self.num.is_zero

    def __str__(self):
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"<{self} in {self.parent.describe()}>"


class P70Report(_Record):
    __slots__ = ("x_homogeneous", "y_homogeneous", "product_nonzero")

    @property
    def passed(self):
        return self.x_homogeneous and self.y_homogeneous and self.product_nonzero


def lemma_p70_check(nf, psi, x, y):
    """Entire ring, coarsening with torsionfree kernel, x and y coarse
    homogeneous with a homogeneous product: then both factors must be
    homogeneous and the product nonzero.  Returns the three verdict bits;
    inputs outside the hypotheses raise PreconditionViolated.
    """
    if (_need(x, Element, _AN_ELEMENT).parent != nf
            or _need(y, Element, _AN_ELEMENT).parent != nf):
        raise PreconditionViolatedError("elements must live in the given ring")
    if not classify(nf).entire:
        raise PreconditionViolatedError("ring is not entire")
    kpsi, _ = hom_kernel(psi)
    if not kpsi.is_torsionfree:
        raise PreconditionViolatedError("coarsening kernel has torsion")
    try:
        coarse = coarsen(nf, psi)
    except GradalError as exc:
        raise PreconditionViolatedError(f"bad coarsening map: {exc}") from exc
    if x.is_zero or y.is_zero:
        raise PreconditionViolatedError("factors must be nonzero")
    for v in (x, y):
        if not is_homogeneous(reparent(v, coarse)):
            raise PreconditionViolatedError(
                "factors must be homogeneous in the coarse grading")
    xy = x * y
    if not xy.is_zero and not is_homogeneous(xy):
        raise PreconditionViolatedError(
            "the product is not homogeneous, statement does not apply")
    return P70Report(is_homogeneous(x), is_homogeneous(y), not xy.is_zero)
