"""Elements of graded group algebras and their fraction rings.

An element is a finite sum of terms c * e(f) with f in the exponent
group E and c in the base (int for Z, Fraction for Q).  Multiplication
is convolution of exponents.  Degrees live in the grading group via the
parent's degree map.

The two decision procedures here are exact, not sampled:

* nzd_test writes x inside base[U] for U the group generated by its
  support differences.  If U is torsionfree, a total order on U makes
  leading terms multiplicative and x cannot annihilate anything.
  Otherwise Q[T] for the torsion part T of U is a finite product of
  fields, so x is a zero divisor exactly when its Laurent coefficients
  over Q[T] have a common annihilator there, a nullspace computation.
* homogeneous_unit_test uses the same product decomposition: in each
  field component a Laurent unit is a monomial whose exponent sits
  inside the support of x, so any inverse is supported in the reflected
  support box and one linear solve settles the question.
"""

from fractions import Fraction as Rational
from itertools import product as _product
from math import gcd, lcm

from .abelian import (
    FgGroup,
    hom_kernel,
    solve_in_subgroup,
    subgroup_generated_by,
)
from .errors import (
    GradalError,
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


def _kernel_coordinates(x, sub, iota):
    """Rewrite support exponents of x as elements of the subgroup."""
    coords = {}
    for f in x.terms:
        u = solve_in_subgroup(iota, f)
        if u is None:
            # callers pass differences in sub (their span, or ker delta)
            raise InternalInvariantError("support escaped the subgroup")
        coords[f] = u
    return coords


def _laurent_buckets(x, sub, coords):
    """Group coefficients of x by the free part of their sub-coordinates.

    Returns {free exponent tuple: {torsion element of T: coeff}} where T
    is the torsion part of sub.
    """
    t_grp = FgGroup(0, sub.torsion)
    buckets = {}
    for f, c in x.terms.items():
        u = coords[f]
        z = u.coords[:sub.rank]
        t = t_grp.element(u.coords[sub.rank:])
        buckets.setdefault(z, {})[t] = buckets.get(z, {}).get(t, 0) + c
    return t_grp, buckets


def _mult_matrix(t_grp, coeffs, t_elems, index):
    """Matrix of multiplication by sum(coeffs) on Q[T]."""
    n = len(t_elems)
    m = [[0] * n for _ in range(n)]
    for t, c in coeffs.items():
        for j, tj in enumerate(t_elems):
            m[index[t + tj]][j] += c
    return m


def nzd_test(x):
    """Decide whether x is a non zero divisor.  Exact: the decision
    never truncates.

    Torsionfree support-difference group: non zero divisor, by splitting
    any candidate annihilator along cosets and using that the group
    algebra of an ordered group over an entire base is entire.  With
    torsion: zero divisor iff the Laurent coefficients over the torsion
    part share a common annihilator there.
    """
    if x.is_zero:
        raise ZeroElementError("zero divisor test on the zero element")
    supp = x.support()
    s0 = supp[0]
    diffs = [s - s0 for s in supp[1:]]
    sub, iota = subgroup_generated_by(x.parent.egroup, diffs)
    if sub.is_torsionfree:
        return NonZeroDivisor("support differences generate a torsionfree group")
    shifted = Element(x.parent, {f - s0: c for f, c in x.terms.items()})
    coords = _kernel_coordinates(shifted, sub, iota)
    t_grp, buckets = _laurent_buckets(shifted, sub, coords)
    t_elems = list(t_grp.torsion_elements())
    index = {t: i for i, t in enumerate(t_elems)}
    stacked = []
    for z in sorted(buckets):
        stacked.extend(_mult_matrix(t_grp, buckets[z], t_elems, index))
    null = nullspace_rational(stacked, len(t_elems))
    if not null:
        return NonZeroDivisor("no common annihilator over the torsion part")
    vec = null[0]
    scale = 1
    for v in vec:
        scale = lcm(scale, v.denominator)
    terms = {}
    for i, v in enumerate(vec):
        c = v * scale
        if c:
            emb = iota.apply(sub.element(
                (0,) * sub.rank + t_elems[i].coords))
            terms[emb] = int(c) if x.parent.base == "Z" else c
    w = Element(x.parent, terms)
    if (x * w).is_zero and not w.is_zero:
        return ZeroDivisor(w)
    raise InternalInvariantError("annihilator construction failed verification")


def homogeneous_unit_test(x):
    """Decide invertibility of a homogeneous element.  Exact.

    The element is translated into base[K], K the kernel of the degree
    map.  Torsionfree K: units are single terms with invertible
    coefficient.  Otherwise any inverse lives in the reflected support
    box, so one linear solve decides.
    """
    if x.is_zero:
        raise ZeroElementError("unit test on the zero element")
    g = degree_of(x)
    supp = x.support()
    f0 = supp[0]
    y = Element(x.parent, {f - f0: c for f, c in x.terms.items()})
    k, iota = hom_kernel(x.parent.delta)
    base = x.parent.base
    if k.is_torsionfree:
        if len(y.terms) > 1:
            return NotUnit("several terms over a torsionfree kernel")
        c = y.terms[next(iter(y.terms))]
        if base == "Z" and c not in (1, -1):
            return NotUnit(f"coefficient {c} is not a unit in Z")
        inv_c = Rational(1, 1) / c if base == "Q" else c
        return Unit(Element.monomial(x.parent, -f0, inv_c))
    coords = _kernel_coordinates(y, k, iota)
    u_list = list(coords.values())
    lo = [min(u.coords[i] for u in u_list) for i in range(k.rank)]
    hi = [max(u.coords[i] for u in u_list) for i in range(k.rank)]
    candidates = []
    free_ranges = [range(-hi[i], -lo[i] + 1) for i in range(k.rank)]
    tor_ranges = [range(d) for d in k.torsion]
    for combo in _product(*free_ranges, *tor_ranges):
        candidates.append(k.element(combo))
    # rows: every exponent reachable as u + candidate, in k coordinates
    row_index = {}
    rows = []
    cols = []
    for cand in candidates:
        col = {}
        for f, c in y.terms.items():
            target = coords[f] + cand
            if target not in row_index:
                row_index[target] = len(rows)
                rows.append(target)
            col[row_index[target]] = col.get(row_index[target], 0) + c
        cols.append(col)
    a = [[cols[j].get(i, 0) for j in range(len(cols))]
         for i in range(len(rows))]
    b = [1 if r.is_zero else 0 for r in rows]
    sol = solve_rational(a, b, len(cols))
    if sol is None:
        return NotUnit("no inverse supported in the reflected support box, "
                       "which is complete for this kernel")
    if base == "Z" and any(v.denominator != 1 for v in sol):
        return NotUnit("the unique rational inverse is not integral")
    terms = {}
    for cand, v in zip(candidates, sol):
        if v:
            emb = iota.apply(cand)
            terms[emb - f0] = int(v) if base == "Z" else v
    w = Element(x.parent, terms)
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
