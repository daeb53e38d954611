"""Finitely generated abelian groups in invariant factor form.

A group is written as Z^rank x Z/d1 x ... x Z/dk with 2 <= d1 | d2 | ...
| dk.  Elements are integer coordinate vectors with torsion coordinates
reduced into [0, dj).  Homomorphisms are integer matrices acting on
coordinates.  Structural operations (quotients, subgroups, kernels,
direct sums) return the result together with the maps that relate it to
its ambient group, since renormalization permutes and mixes coordinates.

Invariant factors come from the Smith form of a presentation matrix.
Bases, kernels, coordinates and integer solutions come from the column
Hermite form, which is unique for its lattice, so they never depend on
the generators that span it.

A _Value compares by content, a plain result _Record by identity.
Every operand of the wrong kind meets one of three guards, _need (a
class), _member (an element of a given group) or _each (a container),
which raise ParentMismatchError.

>>> G = FgGroup(1, (4,))
>>> G.element((3, 7)).coords
(3, 3)
>>> str(G)
'Z x Z/4'
"""

from functools import lru_cache
from itertools import product
from math import gcd, lcm
from operator import add, mod, mul, neg, sub

from .errors import (
    GradalError,
    InternalInvariantError,
    NotAHomomorphismError,
    NotSurjectiveError,
    ParentMismatchError,
)
from .intmat import (
    _echelon_solve,
    hermite_columns,
    identity,
    inverse_unimodular,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve_int,
    zeros,
)

__all__ = [
    "FgGroup",
    "GroupElem",
    "GroupHom",
    "smith_normal_form",
    "hermite_columns",
    "normalize_presentation",
    "direct_sum",
    "DirectSum",
    "subgroup_generated_by",
    "quotient_by",
    "hom_kernel",
    "hom_image",
    "hom_inverse",
    "solve_in_subgroup",
    "lift_hom",
    "find_section",
    "is_in_torsionfree_summand",
    "identity_hom",
    "zero_hom",
    "add_homs",
    "compose",
    "box_fiber",
]


class _Value:
    """A value compared by class and _key, hashed by the stored _hash."""

    __slots__ = ("_key", "_hash")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash


class _Record:
    """A plain record: its fields are the subclass's __slots__, filled in
    order by position and then by keyword; a field not given is None."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} has {len(fields)} fields")
        for name, value in zip(fields, args):
            setattr(self, name, value)
        for name in fields[len(args):]:
            setattr(self, name, kwargs.pop(name, None))
        if kwargs:
            raise TypeError(f"{type(self).__name__}: extra {sorted(kwargs)}")


def _check_ints(what, values, error=GradalError):
    """Raise error unless every value is an int (a bool is not)."""
    for v in values:
        if type(v) is not int:
            raise error(f"{what} must be ints, got {v!r}")


_A_GROUP = "expected a group, got {0.__class__.__name__}"
_A_HOM = "expected a hom, got {0.__class__.__name__}"
_A_RING = "expected a ring, got {0.__class__.__name__}"
_GENERATOR = "generator of {0}, ambient {1}"
_GENERATORS = "expected generators, got {0.__class__.__name__}"
_COLUMNS = "expected relation columns, got {0.__class__.__name__}"
_COLUMN = "expected a relation column, got {0.__class__.__name__}"


def _need(x, cls, message):
    """x, when it is a cls; else ParentMismatchError(message.format(x))."""
    if x.__class__ is not cls:
        raise ParentMismatchError(message.format(x))
    return x


def _member(x, group, message):
    """x, when it is an element of group; else ParentMismatchError with
    message.format(where, group), where being x's group, else its type."""
    if x.__class__ is not GroupElem or x.group != group:
        raise ParentMismatchError(message.format(
            getattr(x, "group", x.__class__.__name__), group))
    return x


def _each(xs, message, view=iter):
    """view(xs), by default iter(xs); ParentMismatchError if xs has none."""
    try:
        return view(xs)
    except TypeError:
        raise ParentMismatchError(message.format(xs)) from None


class FgGroup(_Value):
    """Z^rank x Z/torsion[0] x ... with the divisibility chain enforced.

    A value: compared and hashed by (rank, torsion).
    """

    __slots__ = ("rank", "torsion", "dim")

    def __init__(self, rank, torsion=()):
        torsion = tuple(torsion)
        _check_ints("rank and invariant factors", (rank, *torsion))
        if rank < 0:
            raise GradalError(f"negative rank {rank}")
        for d in torsion:
            if d < 2:
                raise GradalError(f"invariant factor {d} < 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise GradalError(f"invariant factors {a}, {b} break the chain")
        self.rank = rank
        self.torsion = torsion
        self.dim = rank + len(torsion)
        self._key = (rank, torsion)
        self._hash = hash(self._key)

    def __repr__(self):
        return f"FgGroup(rank={self.rank!r}, torsion={self.torsion!r})"

    @property
    def is_trivial(self):
        return self.dim == 0

    @property
    def is_torsionfree(self):
        return not self.torsion

    def order(self):
        """Number of elements, or None when infinite."""
        if self.rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def reduce(self, coords):
        try:
            coords = tuple(coords)
        except TypeError:
            raise ParentMismatchError(f"expected {self.dim} coordinates, "
                                      f"got {type(coords).__name__}") from None
        if len(coords) != self.dim:
            raise ParentMismatchError(
                f"expected {self.dim} coordinates, got {len(coords)}")
        _check_ints("coordinates", coords)
        return self._mod(coords)

    def _mod(self, coords):
        """reduce without its checks, for the results of validated operands."""
        if not self.torsion:
            return coords
        r = self.rank
        return coords[:r] + tuple(map(mod, coords[r:], self.torsion))

    def element(self, coords):
        return GroupElem(self, self.reduce(coords))

    def zero(self):
        return GroupElem(self, (0,) * self.dim)

    def generators(self):
        n = self.dim
        return [self.element(tuple(int(i == j) for j in range(n)))
                for i in range(n)]

    def relation_columns(self):
        """Columns spanning the relation lattice of the standard presentation."""
        cols = []
        for j, d in enumerate(self.torsion):
            col = [0] * self.dim
            col[self.rank + j] = d
            cols.append(col)
        return cols

    def torsion_elements(self):
        """All finite-order elements, embedded in this group."""
        free = (0,) * self.rank
        for combo in product(*(range(d) for d in self.torsion)):
            yield GroupElem(self, free + combo)

    def box_elements(self, box):
        """Free coordinates in [-box, box], torsion coordinates exhaustive,
        yielded in increasing coordinate order."""
        free_ranges = [range(-box, box + 1)] * self.rank
        tor_ranges = [range(d) for d in self.torsion]
        for combo in product(*free_ranges, *tor_ranges):
            yield GroupElem(self, combo)

    def __str__(self):
        if self.is_trivial:
            return "0"
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts)


class GroupElem:
    """A coordinate tuple in a group; compared and hashed by (group, coords),
    the hash computed at first use, since many are never hashed."""

    __slots__ = ("group", "coords", "_hash")

    def __init__(self, group, coords):
        self.group = group
        self.coords = coords
        self._hash = None

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not GroupElem:
            return NotImplemented
        return self.coords == other.coords and self.group == other.group

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.group, self.coords))
        return self._hash

    def __repr__(self):
        return f"GroupElem(group={self.group!r}, coords={self.coords!r})"

    def __add__(self, other):
        g = _member(other, self.group, "elements of {1} and {0}").group
        return GroupElem(g, g._mod(tuple(map(add, self.coords, other.coords))))

    def __sub__(self, other):
        g = _member(other, self.group, "elements of {1} and {0}").group
        return GroupElem(g, g._mod(tuple(map(sub, self.coords, other.coords))))

    def __neg__(self):
        g = self.group
        return GroupElem(g, g._mod(tuple(map(neg, self.coords))))

    def __rmul__(self, k):
        _check_ints("group multiples", (k,))
        g = self.group
        return GroupElem(g, g._mod(tuple(k * a for a in self.coords)))

    @property
    def is_zero(self):
        return not any(self.coords)

    def elem_order(self):
        """Smallest k >= 1 with k*self = 0, or None for infinite order."""
        g = self.group
        if any(self.coords[:g.rank]):
            return None
        n = 1
        for j, d in enumerate(g.torsion):
            c = self.coords[g.rank + j]
            n = lcm(n, d // gcd(d, c)) if c else n
        return n

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


class GroupHom(_Value):
    """Homomorphism given by its matrix on standard generators.

    Column j is the image of the j-th generator of the domain, written in
    codomain coordinates.  Rows hitting torsion coordinates are stored
    reduced, so equality of homs, by (domain, codomain, matrix), is
    equality of the maps.

    The constructor checks its input, then ends in _fill.  compose and
    add_homs build homomorphisms from homomorphisms and call _fill alone.
    """

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain, codomain, matrix):
        _need(domain, FgGroup, _A_GROUP)
        try:
            rows = [list(r) for r in matrix]
        except TypeError:
            raise NotAHomomorphismError(
                f"expected a list of rows, got {matrix!r}") from None
        if len(rows) != _need(codomain, FgGroup, _A_GROUP).dim:
            raise NotAHomomorphismError(
                f"matrix has {len(rows)} rows, codomain dim {codomain.dim}")
        for row in rows:
            if len(row) != domain.dim:
                raise NotAHomomorphismError(
                    f"matrix row width {len(row)}, domain dim {domain.dim}")
            _check_ints("matrix entries", row, NotAHomomorphismError)
        r = codomain.rank
        # A torsion generator of order d must map to an element killed by d.
        for j, d in enumerate(domain.torsion):
            img = tuple(row[domain.rank + j] for row in rows)
            if any(img[:r]) or any(d * c % t for c, t in
                                   zip(img[r:], codomain.torsion)):
                order = codomain.element(img).elem_order()
                raise NotAHomomorphismError(
                    f"generator of order {d} maps to an element of "
                    + (f"order {order}" if order else "infinite order"))
        self._fill(domain, codomain, rows)

    def _fill(self, domain, codomain, rows):
        """Store the hom of rows (new lists), torsion rows reduced here."""
        for i, d in enumerate(codomain.torsion, codomain.rank):
            rows[i] = [x % d for x in rows[i]]
        mat = tuple(map(tuple, rows))
        self.domain, self.codomain, self.matrix = domain, codomain, mat
        self._key = (domain, codomain, mat)
        self._hash = hash(self._key)
        return self

    def __repr__(self):
        return (f"GroupHom(domain={self.domain!r}, codomain={self.codomain!r}, "
                f"matrix={self.matrix!r})")

    def apply(self, elem):
        _member(elem, self.domain, "element of {0}, hom domain {1}")
        cod = self.codomain
        return GroupElem(cod, cod._mod(tuple(mat_vec(self.matrix, elem.coords))))

    def is_injective(self):
        k, _ = hom_kernel(self)
        return k.is_trivial

    def is_surjective(self):
        """An invariant-factor question: onto when the Smith form of
        _presentation has codomain.dim diagonal entries, all 1."""
        m, n = self.codomain.dim, self.domain.dim + len(self.codomain.torsion)
        _, d = smith_normal_form(_presentation(self), m, n)
        return m <= n and all(d[i][i] == 1 for i in range(m))


def identity_hom(g):
    return GroupHom(g, g, identity(_need(g, FgGroup, _A_GROUP).dim))


def zero_hom(a, b):
    return GroupHom(a, b, zeros(_need(b, FgGroup, _A_GROUP).dim,
                                _need(a, FgGroup, _A_GROUP).dim))


def compose(f, g):
    """f after g."""
    what = "compose: codomain/domain mismatch"
    if _need(g, GroupHom, what).codomain != _need(f, GroupHom, what).domain:
        raise ParentMismatchError(what)
    return GroupHom.__new__(GroupHom)._fill(
        g.domain, f.codomain, mat_mul(f.matrix, g.matrix, cols_b=g.domain.dim))


def add_homs(f, g):
    what = "add_homs: shape mismatch"
    if (_need(f, GroupHom, what).domain != _need(g, GroupHom, what).domain
            or f.codomain != g.codomain):
        raise ParentMismatchError(what)
    m = [[a + b for a, b in zip(ra, rb)]
         for ra, rb in zip(f.matrix, g.matrix)]
    return GroupHom.__new__(GroupHom)._fill(f.domain, f.codomain, m)


def box_fiber(hom, box, target):
    """The domain's box elements that hom maps to target, in the order
    box_elements yields them.  A candidate is a coordinate tuple, dropped
    at the first codomain row that misses target; only those kept become
    GroupElems."""
    cod, dom = _need(hom, GroupHom, _A_HOM).codomain, hom.domain
    _member(target, cod, "target in {0}, codomain {1}")
    _check_ints("box bounds", (box,))
    rows = tuple(zip(hom.matrix, target.coords, (0,) * cod.rank + cod.torsion))
    ranges = [range(-box, box + 1)] * dom.rank + [range(d) for d in dom.torsion]
    out = []
    for combo in product(*ranges):
        for row, t, d in rows:
            v = sum(map(mul, row, combo))
            if (v % d if d else v) != t:
                break
        else:
            out.append(GroupElem(dom, combo))
    return out


def normalize_presentation(ambient_dim, rel_cols):
    """Normalize Z^ambient_dim / <rel_cols> to invariant factor form.

    Returns (group, to_normal, from_normal).  to_normal maps ambient
    coordinates onto coordinates of the normalized group; from_normal
    lifts normalized generators back, and to_normal @ from_normal is the
    identity exactly (not only modulo relations).
    """
    _check_ints("ambient dims", (ambient_dim,))
    if ambient_dim < 0:
        raise GradalError(f"ambient dim must be at least 0, got {ambient_dim}")
    m = ambient_dim
    rel_cols = [list(_each(c, _COLUMN)) for c in _each(rel_cols, _COLUMNS)]
    k = len(rel_cols)
    if any(len(c) != m for c in rel_cols):
        raise ParentMismatchError(
            f"each relation column needs {m} entries, the ambient dim")
    for c in rel_cols:
        _check_ints("relation entries", c)
    a = [[rel_cols[j][i] for j in range(k)] for i in range(m)]
    u, d = smith_normal_form(a, m, k)
    diag = [d[i][i] for i in range(min(m, k))]
    torsion_idx = [i for i, val in enumerate(diag) if val >= 2]
    free_idx = [i for i in range(m) if i >= len(diag) or diag[i] == 0]
    order = free_idx + torsion_idx
    grp = FgGroup(len(free_idx), tuple(diag[i] for i in torsion_idx))
    uinv = inverse_unimodular(u)
    to_mat = [u[i][:] for i in order]
    from_mat = [[uinv[r][i] for i in order] for r in range(m)]
    return grp, to_mat, from_mat


def _subgroup_from_lattice(g, lattice_cols):
    """Subgroup of g spanned by integer columns (plus g's relations).

    Returns (s, iota) with iota an embedding of the abstract subgroup.
    """
    m = g.dim
    rels = g.relation_columns()
    cols = [list(c) for c in lattice_cols] + rels
    a = [[cols[j][i] for j in range(len(cols))] for i in range(m)]
    h, _, pivots = hermite_columns(a, m, len(cols))
    s = len(pivots)
    if s == 0:
        trivial = FgGroup(0, ())
        return trivial, zero_hom(trivial, g)
    # The pivot columns 0..s-1 of h are a basis of the lattice.
    bmat = [row[:s] for row in h]
    rel_in_basis = []
    for rc in rels:
        x = _echelon_solve(h, pivots, rc)
        if x is None:
            raise InternalInvariantError("relation escaped its own lattice")
        rel_in_basis.append(x)
    sub, _, from_n = normalize_presentation(s, rel_in_basis)
    return sub, GroupHom(sub, g, mat_mul(bmat, from_n, cols_b=sub.dim))


def subgroup_generated_by(g, gens):
    """Abstract subgroup generated by elements of g, with its embedding."""
    return _subgroup_from_lattice(_need(g, FgGroup, _A_GROUP), [
        list(_member(x, g, _GENERATOR).coords)
        for x in _each(gens, _GENERATORS)])


def quotient_by(g, gens):
    """Quotient of g by the subgroup the elements generate.

    Returns (q, proj) with proj the projection g -> q.
    """
    rel_cols = _need(g, FgGroup, _A_GROUP).relation_columns() + [
        list(_member(x, g, _GENERATOR).coords)
        for x in _each(gens, _GENERATORS)]
    q, to_n, _ = normalize_presentation(g.dim, rel_cols)
    return q, GroupHom(g, q, to_n)


def _presentation(h):
    """Rows of [matrix of h | relation columns of its codomain]."""
    rels = h.codomain.relation_columns()
    return [list(row) + [rc[i] for rc in rels]
            for i, row in enumerate(h.matrix)]


def hom_kernel(psi):
    """Kernel of a homomorphism as (k, iota) with iota: k -> domain."""
    a, b = _need(psi, GroupHom, _A_HOM).domain, psi.codomain
    n = a.dim + len(b.torsion)
    _, v, pivots = hermite_columns(_presentation(psi), b.dim, n)
    # Every column of the echelon form after the pivots 0..k-1 is zero,
    # so the same columns of v span the integer kernel.
    return _subgroup_from_lattice(
        a, [[row[j] for row in v[:a.dim]] for j in range(len(pivots), n)])


def hom_image(psi):
    """Image subgroup of the codomain, as (s, iota)."""
    return subgroup_generated_by(_need(psi, GroupHom, _A_HOM).codomain, [
        psi.apply(g) for g in psi.domain.generators()])


def solve_in_subgroup(iota, target):
    """Some x in the domain of iota with iota(x) = target, or None.

    When iota is injective the preimage is unique, so the answer does not
    depend on which solution the integer solver picks.
    """
    g = _need(iota, GroupHom, _A_HOM).codomain
    _member(target, g, "target in {0}, codomain {1}")
    sol = solve_int(_presentation(iota), list(target.coords), g.dim,
                    iota.domain.dim + len(g.torsion))
    if sol is None:
        return None
    return iota.domain.element(sol[:iota.domain.dim])


def lift_hom(iota, psi):
    """Some phi with iota . phi = psi, or None when there is none.

    Solved generator by generator through solve_in_subgroup, so the lift
    is the unique one when iota is injective.  A torsion generator of
    order d needs a preimage x of order dividing d; when d*x is not 0
    (iota is then not injective), x is corrected by some z in the kernel
    of iota with d*z = -d*x, and no such z means no lift.
    """
    what = "psi must be a hom into iota's codomain"
    cod = _need(iota, GroupHom, _A_HOM).codomain
    if _need(psi, GroupHom, what).codomain != cod:
        raise ParentMismatchError(what)
    cols = []
    for gen in psi.domain.generators():
        x = solve_in_subgroup(iota, psi.apply(gen))
        if x is None:
            return None
        d = gen.elem_order()
        if d is not None and not (d * x).is_zero:
            k, iota_k = hom_kernel(iota)
            scaled = GroupHom(k, iota.domain, [[d * v for v in row]
                                               for row in iota_k.matrix])
            z = solve_in_subgroup(scaled, -(d * x))
            if z is None:
                return None
            x = x + iota_k.apply(z)
        cols.append(x.coords)
    return GroupHom(psi.domain, iota.domain,
                    [[c[i] for c in cols] for i in range(iota.domain.dim)])


def hom_inverse(phi):
    """Inverse of an isomorphism; raises if phi is not one.

    A lift inv of the identity through phi makes phi onto.  When phi is
    an endomorphism it is then one-to-one as well, since finitely
    generated abelian groups are Hopfian (Vasconcelos 1969), and inv is
    its two-sided inverse.  Groups are kept in invariant factor form, so
    distinct domain and codomain are not isomorphic and phi is none.
    Only a failure computes the kernel, to say what phi fails to be.
    """
    _need(phi, GroupHom, _A_HOM)
    inv = lift_hom(phi, identity_hom(phi.codomain))
    if inv is not None and phi.domain == phi.codomain:
        return inv
    if not hom_kernel(phi)[0].is_trivial:
        raise GradalError("not injective, no inverse")
    raise GradalError("not surjective, no inverse")


class DirectSum(_Record):
    """A group with the injections and projections of its two summands."""

    __slots__ = ("group", "inj1", "inj2", "proj1", "proj2")


def direct_sum(a, b):
    """Direct sum renormalized to invariant factor form, computed once
    per pair of group values.

    The trivial-summand cases return the other group unchanged so that
    adjoining the trivial group is the identity on the nose.
    """
    return _direct_sum(_need(a, FgGroup, _A_GROUP),
                       _need(b, FgGroup, _A_GROUP))


@lru_cache(maxsize=256)
def _direct_sum(a, b):
    if a.is_trivial:
        return DirectSum(b, zero_hom(a, b), identity_hom(b),
                         zero_hom(b, a), identity_hom(b))
    if b.is_trivial:
        return DirectSum(a, identity_hom(a), zero_hom(b, a),
                         identity_hom(a), zero_hom(a, b))
    m = a.dim + b.dim
    rel_cols = []
    for ca in a.relation_columns():
        rel_cols.append(ca + [0] * b.dim)
    for cb in b.relation_columns():
        rel_cols.append([0] * a.dim + cb)
    s, to_n, from_n = normalize_presentation(m, rel_cols)
    inj1 = GroupHom(a, s, [row[:a.dim] for row in to_n])
    inj2 = GroupHom(b, s, [row[a.dim:] for row in to_n])
    proj1 = GroupHom(s, a, from_n[:a.dim])
    proj2 = GroupHom(s, b, from_n[a.dim:])
    return DirectSum(s, inj1, inj2, proj1, proj2)


def find_section(psi):
    """A section of a surjection, or None when no section exists.

    A section is a lift of the identity of the codomain through psi.
    """
    a, b = _need(psi, GroupHom, _A_HOM).domain, psi.codomain
    if not psi.is_surjective():
        raise NotSurjectiveError(f"{a} -> {b} is not onto")
    pi = lift_hom(psi, identity_hom(b))
    if pi is not None and compose(psi, pi) != identity_hom(b):
        # lift_hom returns pi with psi . pi = id(b) or None, never another map
        raise InternalInvariantError("constructed map fails psi . pi = id")
    return pi


def is_in_torsionfree_summand(g, gens):
    """Whether the subgroup U the gens generate lies in a torsionfree
    direct summand of g.

    With T the torsion subgroup and c: T -> Q = g/U the inclusion
    followed by the projection, U lies in such a summand exactly when c
    has a left inverse.  By Miyata's theorem (0 -> A -> B -> C -> 0 of
    finitely generated modules splits when B ~ A + C) that holds exactly
    when Q ~ T + Q/c(T), and comparing orders of the torsion parts shows
    that this isomorphism already forces c to be injective.  The test is
    a comparison of invariant factors, so it decides every input.
    """
    q, proj = quotient_by(g, gens)
    qt, _ = quotient_by(q, [proj.apply(x) for x in g.generators()[g.rank:]])
    return direct_sum(FgGroup(0, g.torsion), qt).group == q
