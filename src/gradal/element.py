"""Elements of graded group algebras and their fraction rings.

An element is a finite sum of terms c * e(f) with f in the exponent
group E and c in the base (int for Z, Fraction for Q).  Multiplication
is convolution of exponents.  Degrees live in the grading group via the
parent's degree map.

The two decision procedures here are exact, not sampled, and both work
in the ring's own exponent coordinates.  E = Z^r x T, so base[E] is the
Laurent ring base[T][Z^r], and Q[T] is a finite product of fields
(Perlis-Walker).  x lives in Q[V][Z^r] for V the subgroup of T that
the torsion parts of its support generate, and Q[T] is free over Q[V],
so x is a unit or a zero divisor there exactly when it is one in Q[E],
with the same inverse.  x is cut into blocks: for each free part z of
its support, the matrix of multiplication by its Laurent coefficient at
z on Q[V].

* nzd_test: x is a zero divisor exactly when the blocks have a common
  nullspace vector, a common annihilator in Q[V].
* homogeneous_unit_test: in each field factor a Laurent unit is a
  monomial whose exponent is the free part of a term of x, so any
  inverse is supported on the reflected support {-z} x V and one linear
  solve over it settles the question.
"""

from fractions import Fraction as Rational
from math import gcd, lcm

from .abelian import hom_kernel
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
from .intmat import nullspace_rational, solve_rational
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


def _term_str(c, f):
    mono = "e(" + ",".join(str(v) for v in f.coords) + ")"
    if c == 1:
        return mono
    if c == -1:
        return "-" + mono
    return f"{c}*{mono}"


class Element:
    """Finite support map from exponents to coefficients."""

    __slots__ = ("parent", "terms")

    def __init__(self, parent, terms):
        if not isinstance(parent, NormalForm):
            raise ParentMismatchError("parent must be a ring normal form")
        clean = {}
        for f, c in terms.items():
            if f.group != parent.egroup:
                raise ParentMismatchError(
                    f"exponent in {f.group}, ring exponents in {parent.egroup}")
            c = _coerce(parent.base, c)
            if c:
                clean[f] = c
        self.parent = parent
        self.terms = clean

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
        return self.terms.get(f, _coerce(self.parent.base, 0))

    def _check(self, other):
        if not isinstance(other, Element):
            raise ParentMismatchError(f"cannot combine Element with {other!r}")
        if other.parent != self.parent:
            raise ParentMismatchError("elements of different rings")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for f, c in other.terms.items():
            out[f] = out.get(f, 0) + c
        return Element(self.parent, out)

    def __neg__(self):
        return Element(self.parent, {f: -c for f, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Rational)):
            return self.scale(other)
        self._check(other)
        out = {}
        for f1, c1 in self.terms.items():
            for f2, c2 in other.terms.items():
                f = f1 + f2
                out[f] = out.get(f, 0) + c1 * c2
        return Element(self.parent, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Rational)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        return Element(self.parent, {f: c * v for f, v in self.terms.items()})

    def __pow__(self, n):
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


def homogeneous_components(x):
    """Decomposition by degree, as an ordered {degree: part} dict."""
    buckets = {}
    for f, c in x.terms.items():
        d = x.parent.delta.apply(f)
        buckets.setdefault(d, {})[f] = c
    return {d: Element(x.parent, t)
            for d, t in sorted(buckets.items(), key=lambda kv: kv[0].coords)}


def is_homogeneous(x):
    return len(homogeneous_components(x)) <= 1


def degree_of(x):
    if x.is_zero:
        raise ZeroElementError("the zero element has no degree")
    comps = homogeneous_components(x)
    if len(comps) > 1:
        raise NotHomogeneousError(
            f"{x} has {len(comps)} homogeneous components")
    return next(iter(comps))


def reparent(x, nf):
    """View x in another ring with the same exponent group.

    Legal when the exponent groups agree; moving from base Z into base Q
    widens coefficients, the reverse needs them integral.
    """
    if not isinstance(x, Element):
        raise ParentMismatchError(f"cannot reparent a {type(x).__name__}")
    if nf.egroup != x.parent.egroup:
        raise ParentMismatchError("exponent groups differ")
    return Element(nf, dict(x.terms))


class Unit:
    __slots__ = ("inverse",)

    def __init__(self, inverse):
        self.inverse = inverse


class NotUnit:
    __slots__ = ("reason",)

    def __init__(self, reason=""):
        self.reason = reason


class NonZeroDivisor:
    __slots__ = ("reason",)

    def __init__(self, reason=""):
        self.reason = reason


class ZeroDivisor:
    __slots__ = ("annihilator",)

    def __init__(self, annihilator):
        self.annihilator = annihilator


def _laurent_blocks(x):
    """Split x along its exponent group E = Z^r x T, in E's coordinates.

    base[E] = base[T][Z^r]: the free part of an exponent, coords[:r], is
    the Laurent exponent and the torsion part, coords[r:], indexes a
    basis of base[T].  Only the subgroup V of T that the torsion parts
    of x generate is needed (the module docstring says why).  Returns
    (t_elems, blocks): V as exponents of E (free part 0, sorted by
    coordinates, so the zero first), and for each free part z of a term
    of x the matrix of multiplication by the Laurent coefficient at z on
    Q[V] in the basis t_elems.
    """
    egroup = x.parent.egroup
    r = egroup.rank
    parts = {f: egroup.element((0,) * r + f.coords[r:]) for f in x.terms}
    span, todo = {egroup.zero()}, [egroup.zero()]
    while todo:  # close {0} under the torsion parts
        u = todo.pop()
        new = {u + t for t in parts.values()} - span
        span |= new
        todo += new
    t_elems = sorted(span, key=lambda t: t.coords)
    index = {t: i for i, t in enumerate(t_elems)}
    n = len(t_elems)
    blocks = {}
    for f, c in x.terms.items():
        z = f.coords[:r]
        if z not in blocks:
            blocks[z] = [[0] * n for _ in range(n)]
        m = blocks[z]
        t = parts[f]
        for j, tj in enumerate(t_elems):
            m[index[t + tj]][j] += c
    return t_elems, blocks


def nzd_test(x):
    """Decide whether x is a non zero divisor.  Exact: the decision
    never truncates.

    Q[V] is a finite product of fields and a Laurent ring over a field
    is entire, so x is a zero divisor exactly when its Laurent
    coefficients over Q[V] share a common annihilator w in Q[V]: the
    nullspace of their stacked multiplication blocks.  Terms with no
    torsion part give 1 x 1 blocks and an empty nullspace.
    """
    if x.is_zero:
        raise ZeroElementError("zero divisor test on the zero element")
    t_elems, blocks = _laurent_blocks(x)
    stacked = [row for z in sorted(blocks) for row in blocks[z]]
    null = nullspace_rational(stacked, len(t_elems))
    if not null:
        return NonZeroDivisor("the Laurent coefficients over the torsion "
                              "part have no common annihilator")
    scale = lcm(*(v.denominator for v in null[0]))
    w = Element(x.parent, {t: v * scale for t, v in zip(t_elems, null[0])})
    if (x * w).is_zero and not w.is_zero:
        return ZeroDivisor(w)
    raise InternalInvariantError("annihilator construction failed verification")


def homogeneous_unit_test(x):
    """Decide invertibility of a homogeneous element.  Exact.

    One term: the coefficient decides.  Several terms: in each field
    factor F of Q[V][Z^r] a unit is a monomial c*z^a with a the free
    part of a term of x, so the unique inverse is supported on the
    reflected support {-a} x V and one linear solve over it decides.
    Over Z the rational inverse must also be integral.  The inverse is
    an Element, so x may not live in a fraction form: there the answer
    would be the underlying ring's.
    """
    if x.parent.fraction:
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
    t_elems, blocks = _laurent_blocks(x)
    n = len(t_elems)
    frees = sorted(blocks)
    width = len(frees) * n
    # Column block k holds the coefficient of z^-b, b = frees[k], in the
    # inverse; block z of x sends it to the row block of z^(z - b).
    rows, row_at = [], {}
    for k, b in enumerate(frees):
        for z, m in blocks.items():
            d = tuple(u - v for u, v in zip(z, b))
            if d not in row_at:
                row_at[d] = len(rows)
                rows.extend([0] * width for _ in range(n))
            for i, row in enumerate(m):
                rows[row_at[d] + i][k * n:(k + 1) * n] = row
    egroup = x.parent.egroup
    rhs = [0] * len(rows)
    rhs[row_at[(0,) * egroup.rank]] = 1
    sol = solve_rational(rows, rhs, width)
    if sol is None:
        return NotUnit("no inverse supported on the reflected support, "
                       "which holds every inverse")
    if base == "Z" and any(v.denominator != 1 for v in sol):
        return NotUnit("the unique rational inverse is not integral")
    exps = [egroup.element(tuple(-u for u in b) + t.coords[egroup.rank:])
            for b in frees for t in t_elems]
    w = Element(x.parent, dict(zip(exps, sol)))
    if (x * w) == Element.one(x.parent):
        return Unit(w)
    raise InternalInvariantError("inverse construction failed verification")


class Fraction:
    """Quotient of two elements with a homogeneous nonzero denominator.

    Only defined over entire rings.  Equality is cross multiplication;
    cancellation is opportunistic (integer content, monomial denominators)
    and never required for correctness.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if num.parent != den.parent:
            raise ParentMismatchError("numerator and denominator rings differ")
        if den.is_zero:
            raise ZeroElementError("zero denominator")
        if not classify(num.parent).entire:
            raise NotEntireError("fractions need an entire ring")
        degree_of(den)  # raises NotHomogeneous when den is mixed
        num, den = _cancel(num, den)
        self.num = num
        self.den = den

    @property
    def parent(self):
        return self.num.parent

    @classmethod
    def from_element(cls, x):
        return cls(x, Element.one(x.parent))

    @property
    def is_zero(self):
        return self.num.is_zero

    def __add__(self, other):
        self._check(other)
        return Fraction(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    def __neg__(self):
        return Fraction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return Fraction(self.num * other.num, self.den * other.den)

    def __pow__(self, n):
        if n < 0:
            raise GradalError("negative powers of a fraction are not "
                              "supported; swap numerator and denominator")
        out = Fraction.from_element(Element.one(self.parent))
        for _ in range(n):
            out = out * self
        return out

    def _check(self, other):
        if not isinstance(other, Fraction):
            raise ParentMismatchError(f"cannot combine Fraction with {other!r}")
        if other.parent != self.parent:
            raise ParentMismatchError("fractions over different rings")

    def __eq__(self, other):
        if not isinstance(other, Fraction) or other.parent != self.parent:
            return False
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        raise TypeError("fractions are compared by cross multiplication, "
                        "not hashed")

    def __str__(self):
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"<{self} in {self.parent.describe()}>"


def _cancel(num, den):
    """Cheap cancellations that keep representatives small."""
    if num.is_zero:
        return num, Element.one(num.parent)
    if len(den.terms) == 1:
        f, c = next(iter(den.terms.items()))
        if num.parent.base == "Q":
            shifted = Element(num.parent,
                              {ff - f: cc / c for ff, cc in num.terms.items()})
            return shifted, Element.one(num.parent)
        if c in (1, -1):
            shifted = Element(num.parent,
                              {ff - f: cc * c for ff, cc in num.terms.items()})
            return shifted, Element.one(num.parent)
    if num.parent.base == "Z":
        cn = gcd(*(abs(c) for c in num.terms.values())) if num.terms else 0
        cd = gcd(*(abs(c) for c in den.terms.values()))
        g = gcd(cn, cd)
        if g > 1:
            num = Element(num.parent, {f: c // g for f, c in num.terms.items()})
            den = Element(den.parent, {f: c // g for f, c in den.terms.items()})
    return num, den


class P70Report:
    __slots__ = ("x_homogeneous", "y_homogeneous", "product_nonzero")

    def __init__(self, x_homogeneous, y_homogeneous, product_nonzero):
        self.x_homogeneous = x_homogeneous
        self.y_homogeneous = y_homogeneous
        self.product_nonzero = product_nonzero

    @property
    def passed(self):
        return self.x_homogeneous and self.y_homogeneous and self.product_nonzero


def lemma_p70_check(nf, psi, x, y):
    """Entire ring, coarsening with torsionfree kernel, x and y coarse
    homogeneous with a homogeneous product: then both factors must be
    homogeneous and the product nonzero.  Returns the three verdict bits;
    inputs outside the hypotheses raise PreconditionViolated.
    """
    if x.parent != nf or y.parent != nf:
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
