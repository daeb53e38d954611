"""Ring constructions and their normal form.

Every ring this package handles is determined by four pieces of data: a
base (Z or Q), an exponent group E, a grading group G, a degree map
delta: E -> G, plus a flag marking the graded ring of fractions.  The
monomials are e_f for f in E, the degree of e_f is delta(f), and the
underlying ring is the group algebra base[E].

A NormalForm holds those five fields, and the constructor functions here
are the only code that builds one: start from normalize(BaseZ()) or
normalize(BaseQ()) and apply group_algebra, coarsen, regrade_restrict,
regrade_extend and fraction_field, plus the private base change
_over_base, which keeps E, G, delta and the fraction flag and swaps the
base, so the Q ring of a pair Z[E] in Q[E] comes from its Z ring instead
of a second build.  Every ring is reached from the public ones as
regrade_extend(coarsen(group_algebra(base, E, "fine"), onto_support), emb)
with emb the embedding of the degree support into G, and fraction_field
on top for a fraction ring.
"""

from functools import lru_cache

from .abelian import (
    FgGroup,
    GroupHom,
    _A_RING,
    _GENERATORS,
    _Record,
    _Value,
    _each,
    _member,
    _need,
    add_homs,
    compose,
    direct_sum,
    hom_image,
    hom_kernel,
    lift_hom,
    quotient_by,
    subgroup_generated_by,
    zero_hom,
)
from .errors import (
    GradalError,
    InternalInvariantError,
    NotASubgroupError,
    NotEntireError,
    NotSurjectiveError,
    ParentMismatchError,
    TorsionKernelError,
)

__all__ = [
    "NormalForm",
    "Classification",
    "BaseZ",
    "BaseQ",
    "normalize",
    "classify",
    "coarsen",
    "group_algebra",
    "regrade_restrict",
    "regrade_extend",
    "restrict_data",
    "fraction_field",
]


class NormalForm(_Value):
    """A ring: an immutable value, compared and hashed by (base, egroup,
    ggroup, delta, fraction).  What is derived from a ring is computed
    by functions keyed by that value (classify here, abelian.box_fiber
    for the witness search)."""

    __slots__ = ("base", "egroup", "ggroup", "delta", "fraction")

    def __init__(self, base, egroup, ggroup, delta, fraction=False):
        if base not in ("Z", "Q"):
            raise GradalError(f"unknown base {base!r}")
        if delta.domain != egroup or delta.codomain != ggroup:
            raise ParentMismatchError("degree map does not match E and G")
        self.base = base
        self.egroup = egroup
        self.ggroup = ggroup
        self.delta = delta
        self.fraction = fraction
        self._key = (base, egroup, ggroup, delta, fraction)
        self._hash = hash(self._key)

    def __repr__(self):
        return (f"NormalForm(base={self.base!r}, egroup={self.egroup!r}, "
                f"ggroup={self.ggroup!r}, delta={self.delta!r}, "
                f"fraction={self.fraction!r})")

    def describe(self):
        body = f"{self.base}[{self.egroup}] graded by {self.ggroup}"
        return f"Frac({body})" if self.fraction else body


class Classification(_Record):
    __slots__ = ("entire", "simple", "noetherian", "support", "full_support")


class BaseZ:
    """Marker for the base ring Z; normalize(BaseZ()) is the ring."""

    __slots__ = ()


class BaseQ:
    """Marker for the base ring Q; normalize(BaseQ()) is the ring."""

    __slots__ = ()


_TRIVIAL = FgGroup(0, ())
_Z = NormalForm("Z", _TRIVIAL, _TRIVIAL, zero_hom(_TRIVIAL, _TRIVIAL))
_Q = NormalForm("Q", _TRIVIAL, _TRIVIAL, _Z.delta)


def _over_base(nf, base):
    """nf with base Z or Q and the same E, G, delta and fraction flag."""
    _need(nf, NormalForm, _A_RING)
    return NormalForm(base, nf.egroup, nf.ggroup, nf.delta, nf.fraction)


def group_algebra(nf, f, kind):
    """Adjoin the exponent group f to nf.

    fine: new degrees live in G + f, the adjoined exponents graded by
    themselves.  coarse: new exponents are degree-invisible, G unchanged.
    """
    if kind not in ("fine", "coarse"):
        raise GradalError(f"unknown group algebra kind {kind!r}")
    if _need(nf, NormalForm, _A_RING).fraction:
        raise GradalError(
            "adjoin exponents before passing to fractions, not after")
    ds_e = direct_sum(nf.egroup, f)
    if kind == "fine":
        ds_g = direct_sum(nf.ggroup, f)
        delta = add_homs(
            compose(ds_g.inj1, compose(nf.delta, ds_e.proj1)),
            compose(ds_g.inj2, ds_e.proj2))
        return NormalForm(nf.base, ds_e.group, ds_g.group, delta, False)
    delta = compose(nf.delta, ds_e.proj1)
    return NormalForm(nf.base, ds_e.group, nf.ggroup, delta, False)


def coarsen(nf, psi):
    """Push the grading through a surjection psi of grading groups."""
    what = "psi must be a hom from the grading group"
    g = _need(nf, NormalForm, _A_RING).ggroup
    if _need(psi, GroupHom, what).domain != g:
        raise ParentMismatchError(what)
    if not psi.is_surjective():
        raise NotSurjectiveError("coarsening map is not onto")
    if nf.fraction:
        k, _ = hom_kernel(psi)
        if not k.is_torsionfree:
            raise TorsionKernelError(
                "cannot coarsen a fraction ring along a map with torsion kernel")
    return NormalForm(nf.base, nf.egroup, psi.codomain,
                      compose(psi, nf.delta), nf.fraction)


def restrict_data(nf, gens):
    """Restrict to degrees inside the subgroup the gens generate.

    Returns (restricted NormalForm, kappa) where kappa embeds the new
    exponent group into the old one; callers transporting elements need
    kappa, plain regrading does not.  The checks done, the subgroup of
    the gens goes to _restricted, which lem50_iso calls with its own.
    """
    if _need(nf, NormalForm, _A_RING).fraction:
        raise GradalError(
            "restricting a fraction ring is not supported; restrict first")
    gens = list(_each(gens, _GENERATORS))
    for x in gens:
        _member(x, nf.ggroup, "subgroup generators must live in G")
    return _restricted(nf, gens, *subgroup_generated_by(nf.ggroup, gens))


def _restricted(nf, gens, f, iota_f):
    """restrict_data past its checks, (f, iota_f) the gens' subgroup."""
    q, proj = quotient_by(nf.ggroup, gens)
    e2, kappa = hom_kernel(compose(proj, nf.delta))
    delta2 = lift_hom(iota_f, compose(nf.delta, kappa))
    if delta2 is None:
        # delta(kappa(E2)) lies in ker proj, the image of injective iota_f
        raise InternalInvariantError("degree escaped the subgroup")
    return NormalForm(nf.base, e2, f, delta2, False), kappa


def regrade_restrict(nf, gens):
    return restrict_data(nf, gens)[0]


def regrade_extend(nf, embed):
    """View the grading inside a bigger group via an embedding."""
    what = "embed must be a hom from the grading group"
    g = _need(nf, NormalForm, _A_RING).ggroup
    if _need(embed, GroupHom, what).domain != g:
        raise ParentMismatchError(what)
    if not embed.is_injective():
        raise NotASubgroupError("grading extension map is not injective")
    return NormalForm(nf.base, nf.egroup, embed.codomain,
                      compose(embed, nf.delta), nf.fraction)


def fraction_field(nf):
    """Graded ring of fractions: homogeneous nonzero denominators."""
    if _need(nf, NormalForm, _A_RING).fraction:
        return nf
    if not classify(nf).entire:
        raise NotEntireError(
            "ring has homogeneous zero divisors, no fraction ring")
    return NormalForm(nf.base, nf.egroup, nf.ggroup, nf.delta, True)


def normalize(expr):
    """The normal form of a base marker; a NormalForm passes through."""
    if isinstance(expr, BaseZ):
        return _Z
    if isinstance(expr, BaseQ):
        return _Q
    if isinstance(expr, NormalForm):
        return expr
    raise GradalError(f"not a ring expression: {expr!r}")


def classify(nf):
    """Entire / simple / noetherian plus the degree support subgroup.

    entire: no homogeneous zero divisors, equivalent to the kernel of the
    degree map being torsionfree.  simple: every nonzero homogeneous
    element invertible; over Q that forces an injective degree map, over
    Z it never holds (2 is not invertible), and a fraction ring always
    qualifies.  noetherian: always, the exponent group is finitely
    generated over a noetherian base.  Computed once per ring value:
    equal rings built separately share one Classification.
    """
    return _classify(_need(nf, NormalForm, _A_RING))


@lru_cache(maxsize=256)
def _classify(nf):
    k, _ = hom_kernel(nf.delta)
    if nf.fraction:
        entire = True
        simple = True
    else:
        entire = k.is_torsionfree
        simple = nf.base == "Q" and k.is_trivial
    support, _ = hom_image(nf.delta)
    return Classification(entire, simple, True, support,
                          nf.delta.is_surjective())
