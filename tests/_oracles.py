"""Independent reference computations used to cross-check the package.

Everything here is deliberately written from scratch against the
mathematical definitions, sharing no code paths with src/gradal, so a
bug in the package cannot hide behind the same bug in the tests.  The
exceptions: lem50_reference builds the free-summand isomorphism with
the package's group operations, but along a second route through the
grading group; search_every_degree is the witness search without its
stop at degree 1, solving each degree's system with the package's
solver; nzd_by_blocks and unit_by_blocks are the unit and zero-divisor
decisions on the package's elements and solvers, with their systems
assembled from Laurent multiplication blocks rather than shifted
copies; verify_by_fractions is the witness check in fraction-field
arithmetic on the package's elements; tokenize_by_characters is the
CLI's earlier scanner, a loop over characters that the
regular-expression scanner must agree with; smith_by_parallel_updates
and hermite_by_parallel_updates are the integer normal forms as they
were before their transforms rode in the reduced matrix, each operation
written once for the matrix and once for its transform;
mul_by_group_elems and hom_matrix_by_group_elems are Element.__mul__
and the GroupHom constructor's checks as they were before they ran on
plain ints, through validated GroupElems, FgGroup.element and Element's
constructor; surjective_by_quotient is GroupHom.is_surjective as it was
before it read the Smith diagonal, the triviality of the quotient by the
images of the generators; ring_map_by_terms is RingMap.apply as it was
before it mapped coordinate tuples, each term through GroupHom.apply and
the image through Element's constructor; quotient_by_normalizing is
quotient_by as it was before it skipped the inverse Smith transform,
the to_normal of the package's normalize_presentation.
"""

from fractions import Fraction
from itertools import product
from math import lcm

from gradal.abelian import (
    GroupHom,
    add_homs,
    compose,
    direct_sum,
    hom_image,
    hom_inverse,
    hom_kernel,
    identity_hom,
    lift_hom,
    normalize_presentation,
    quotient_by,
    subgroup_generated_by,
)
from gradal.closure import (
    IntegralityWitness,
    _monic_solution,
    verify_integral_witness,
)
from gradal.element import (
    Element,
    Fraction as RingFraction,
    NonZeroDivisor,
    NotUnit,
    Unit,
    ZeroDivisor,
    degree_of,
    is_homogeneous,
    reparent,
)
from gradal.errors import (
    DslSyntaxError,
    GradalError,
    HypothesisViolatedError,
    IncompatibleRingsError,
    NotAHomomorphismError,
)
from gradal.intmat import (
    hermite_columns,
    inverse_unimodular,
    nullspace_rational,
    solve_rational,
)
from gradal.ringexpr import classify, coarsen, group_algebra, restrict_data


# --- plain integer matrix helpers ---

def mat_mul_plain(a, b):
    if not a or not b:
        return []
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if aik:
                for j in range(cols):
                    out[i][j] += aik * b[k][j]
    return out


def snf_column_transform(ua, d):
    """A unimodular v with ua*v = d, built from column Hermite forms.

    smith_normal_form builds no column transform.  ua and d must span
    the same column lattice, which their Hermite forms, unique per
    lattice, decide; then ua*w1 = h = d*w2 and v = w1 * w2^-1."""
    h, w1, _ = hermite_columns(ua)
    h2, w2, _ = hermite_columns(d)
    assert h == h2
    return mat_mul_plain(w1, inverse_unimodular(w2))


def det_bareiss(rows):
    """Determinant by fraction-free elimination (square input)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_divisibility_chain(diag):
    vals = [d for d in diag]
    for i in range(len(vals) - 1):
        if vals[i] == 0 and vals[i + 1] != 0:
            return False
        if vals[i] != 0 and vals[i + 1] % vals[i] != 0:
            return False
    return True


def sparse_rows(a):
    """Dense rows as the rational solvers take them: lists of (column,
    nonzero value) pairs."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in a]


def rref_dense(rows, ncols):
    """Dense Gauss-Jordan over Q, in place: the elimination the package
    used before its sparse kernel, kept as the reference.

    rows are lists of Fraction; columns from ncols on (right-hand sides)
    are carried but never pivoted on.  Pivot = first remaining nonzero
    row in column order.  Returns the pivot columns.
    """
    m = len(rows)
    piv_cols = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x
                           for x, y in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
    return piv_cols


# --- brute-force torsionfree summands ---

def torsionfree_summand_bruteforce(rank, torsion, gens, limit=50_000):
    """Whether the subgroup generated by gens (coordinate tuples) lies in
    a torsionfree direct summand of Z^rank x Z/torsion[0] x ..., or None
    when there are more than limit candidates.

    Such a summand exists exactly when some retraction r of the group
    onto its torsion subgroup T kills every generator: ker r is then a
    torsionfree complement of T that contains them, and any torsionfree
    summand F extends to a complement of T by adding the free part of
    its own complement.  A retraction is the identity on T, so it is
    fixed by the images of the free generators, and each of the
    |T|^rank choices is one; all of them are tried.
    """
    t_elems = list(product(*(range(d) for d in torsion)))
    if len(t_elems) ** rank > limit:
        return None
    for images in product(t_elems, repeat=rank):
        if all((u[rank + j] + sum(u[i] * images[i][j]
                                  for i in range(rank))) % d == 0
               for u in gens for j, d in enumerate(torsion)):
            return True
    return False


# --- brute-force graded entirety ---

def _add_coords(group, a, b):
    return group.element(tuple(x + y for x, y in zip(a.coords, b.coords)))


def _homogeneous_vectors(exps, coeffs=(-1, 0, 1)):
    for combo in product(coeffs, repeat=len(exps)):
        if any(combo):
            yield dict((f, c) for f, c in zip(exps, combo) if c)


def _dict_mul(e, x, y):
    out = {}
    for f, a in x.items():
        for g, b in y.items():
            h = _add_coords(e, f, g)
            out[h] = out.get(h, 0) + a * b
    return {f: c for f, c in out.items() if c}


def zero_divisor_pair_bruteforce(nf, box=1, max_support=6):
    """A pair of nonzero homogeneous x, y with x*y = 0, or None.

    Search space: x runs over one- and two-term {-1,1} combinations of
    equal-degree exponents from the box; for each x, y runs over
    {-1,0,1} vectors supported on the cyclic closure of the support
    difference translated back to x's fiber.  When the grading kernel
    has a torsion element t, the pair (e_t - e_0, sum of e_it) lies in
    this space, so the search finds a witness whenever one exists at
    desk scale; when the kernel is torsionfree no homogeneous zero
    divisor exists at all.
    """
    e = nf.egroup
    exps = list(e.box_elements(box))
    by_degree = {}
    for f in exps:
        by_degree.setdefault(nf.delta.apply(f), []).append(f)
    candidates = []
    for fiber in by_degree.values():
        for f in fiber:
            candidates.append({f: 1})
        for i in range(len(fiber)):
            for j in range(i + 1, len(fiber)):
                for s in (1, -1):
                    candidates.append({fiber[i]: 1, fiber[j]: s})
    for x in candidates:
        supp = list(x.keys())
        if len(supp) == 1:
            continue
        diff = supp[1] - supp[0]
        order = diff.elem_order()
        if order is None or order > max_support:
            continue
        cyc = [e.zero()]
        cur = e.zero()
        for _ in range(order - 1):
            cur = cur + diff
            cyc.append(cur)
        base_pts = [supp[0] + c for c in cyc]
        for y in _homogeneous_vectors(base_pts):
            degs = {nf.delta.apply(f) for f in y}
            if len(degs) != 1:
                continue
            if not _dict_mul(e, x, y):
                return x, y
    return None


# --- reference unit and zero-divisor decisions ---

def _solve_dense(columns, target):
    """The unique rational x with sum x_j * columns[j] = target, or None.

    columns and target are {exponent: coefficient} dicts.  Raises when
    the solution is not unique: callers only pass columns that a
    solution would make independent.
    """
    rows = sorted({f for col in columns for f in col} | set(target),
                  key=lambda f: f.coords)
    m = [[Fraction(col.get(f, 0)) for col in columns]
         + [Fraction(target.get(f, 0))] for f in rows]
    piv = rref_dense(m, len(columns))
    if any(row[-1] for row in m[len(piv):]):
        return None
    assert len(piv) == len(columns), "solution is not unique"
    x = [Fraction(0)] * len(columns)
    for c, row in zip(piv, m):
        x[c] = row[-1]
    return x


def unit_inverse_box(nf, x):
    """The inverse of x as an {exponent: coefficient} dict, or None.

    x is an {exponent: coefficient} dict.  The candidates are the whole
    reflected box: free coordinates from -max to -min of the support's,
    torsion coordinates exhaustive.  In each field factor of Q[T][Z^r]
    a unit is a monomial with its exponent in the support, so the box
    holds every inverse.  Over Z the inverse must also be integral.
    """
    e = nf.egroup
    free = [[f.coords[i] for f in x] for i in range(e.rank)]
    ranges = [range(-max(v), -min(v) + 1) for v in free]
    cands = [e.element(c) for c in
             product(*ranges, *(range(d) for d in e.torsion))]
    sol = _solve_dense([_dict_mul(e, x, {c: 1}) for c in cands],
                       {e.zero(): 1})
    if sol is None:
        return None
    if nf.base == "Z":
        if any(v.denominator != 1 for v in sol):
            return None
        sol = [int(v) for v in sol]
    return {c: v for c, v in zip(cands, sol) if v}


def is_zero_divisor_reference(nf, x):
    """Whether the {exponent: coefficient} dict x is a zero divisor.

    Finite E: the determinant of multiplication by x on Q[E].  Infinite
    E = Z^r x T: every annihilator has one in Q[T] (kill the field
    factors of Q[T] where x vanishes with their idempotent), so the test
    is the rank of w -> x*w on Q[T].
    """
    e = nf.egroup
    t_elems = list(e.torsion_elements())
    den = 1  # Bareiss divides exactly only over Z: clear denominators
    for c in x.values():
        den *= Fraction(c).denominator
    x = {f: int(c * den) for f, c in x.items()}
    cols = [_dict_mul(e, x, {t: 1}) for t in t_elems]
    if e.rank == 0:
        return det_bareiss([[col.get(f, 0) for col in cols]
                            for f in t_elems]) == 0
    rows = sorted({f for col in cols for f in col}, key=lambda f: f.coords)
    m = [[Fraction(col.get(f, 0)) for col in cols] for f in rows]
    return len(rref_dense(m, len(cols))) < len(cols)


# --- the unit and zero-divisor decisions by Laurent blocks ---

def laurent_blocks(x):
    """(t_elems, blocks) for x in base[E], E = Z^r x T: t_elems is V, the
    subgroup of T that the torsion parts of x generate, as exponents of
    E (free part 0, sorted by coordinates, so the zero first), and
    blocks maps each free part z of a term of x to the matrix of
    multiplication by the Laurent coefficient at z on Q[V] in the basis
    t_elems."""
    egroup = x.parent.egroup
    r = egroup.rank
    parts = {f: egroup.element((0,) * r + f.coords[r:]) for f in x.terms}
    span, todo = {egroup.zero()}, [egroup.zero()]
    while todo:
        u = todo.pop()
        new = {u + t for t in parts.values()} - span
        span |= new
        todo += new
    t_elems = sorted(span, key=lambda t: t.coords)
    index = {t: i for i, t in enumerate(t_elems)}
    n = len(t_elems)
    blocks = {}
    for f, c in x.terms.items():
        m = blocks.setdefault(f.coords[:r], [[0] * n for _ in range(n)])
        for j, tj in enumerate(t_elems):
            m[index[parts[f] + tj]][j] += c
    return t_elems, blocks


def nzd_by_blocks(x):
    """nzd_test's verdict: x is a zero divisor exactly when its blocks,
    stacked, have a common nullspace vector."""
    t_elems, blocks = laurent_blocks(x)
    stacked = [row for z in sorted(blocks) for row in blocks[z]]
    null = nullspace_rational(sparse_rows(stacked), len(t_elems))
    if not null:
        return NonZeroDivisor("the Laurent coefficients over the torsion "
                              "part have no common annihilator")
    scale = lcm(*(v.denominator for v in null[0]))
    return ZeroDivisor(Element(x.parent, {t: v * scale for t, v
                                          in zip(t_elems, null[0])}))


def unit_by_blocks(x):
    """homogeneous_unit_test's verdict for homogeneous x with several
    terms: column block k is the coefficient of z^-b, b the k-th free
    part, in the inverse, and block z of x sends it to the row block of
    z^(z - b); the right-hand side is 1 at the zero exponent."""
    t_elems, blocks = laurent_blocks(x)
    n = len(t_elems)
    frees = sorted(blocks)
    width = len(frees) * n
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
    sol = solve_rational(sparse_rows(rows), rhs, width)
    if sol is None:
        return NotUnit("no inverse supported on the reflected support, "
                       "which holds every inverse")
    if x.parent.base == "Z" and any(v.denominator != 1 for v in sol):
        return NotUnit("the unique rational inverse is not integral")
    exps = [egroup.element(tuple(-u for u in b) + t.coords[egroup.rank:])
            for b in frees for t in t_elems]
    return Unit(Element(x.parent, dict(zip(exps, sol))))


# --- reference graded euclidean division ---

def divide_reference(struct, f, g):
    """(u, v) with g = u*f + v, computed on raw coefficient dicts.

    Works coset by coset on the z-degree decomposition, cancelling the
    single top z-layer of f each round, using Fraction arithmetic for
    base Q and exact integer division checks for base Z. Returns None
    when a base-Z division does not go through (the engine raises
    there).
    """
    ring = struct.ring
    e = ring.egroup
    z = struct.z_proj

    def layers(x):
        out = {}
        for exp, c in x.terms.items():
            out.setdefault(z.apply(exp).coords[0], {})[exp] = c
        return out

    fl = layers(f)
    top = max(fl)
    ftop = fl[top]
    if len(ftop) != 1:
        return None
    (lead_exp, lead_coeff), = ftop.items()

    rem = dict(g.terms)
    quo = {}
    guard = 0
    while rem:
        guard += 1
        if guard > 10000:
            return None
        rtop = max(z.apply(exp).coords[0] for exp in rem)
        if rtop < top:
            break
        layer = {exp: c for exp, c in rem.items()
                 if z.apply(exp).coords[0] == rtop}
        progressed = False
        for exp, c in sorted(layer.items(), key=lambda t: t[0].coords):
            if ring.base == "Z":
                if c % lead_coeff:
                    return None
                q = c // lead_coeff
            else:
                q = Fraction(c) / Fraction(lead_coeff)
            shift = exp - lead_exp
            quo[shift] = quo.get(shift, 0) + q
            for fexp, fc in f.terms.items():
                tgt = shift + fexp
                nxt = rem.get(tgt, 0) - q * fc
                if nxt:
                    rem[tgt] = nxt
                else:
                    rem.pop(tgt, None)
            progressed = True
            break
        if not progressed:
            break
    return quo, rem


# --- reference free-summand isomorphism ---

def _hom_minus(f, g):
    return add_homs(f, GroupHom(g.domain, g.codomain,
                                [[-v for v in row] for row in g.matrix]))


def lem50_reference(r, f_gens, h_gens):
    """(mu_p, mu_q, target, coarse) of the free-summand isomorphism.

    Works in the grading group G = F + H: D cap F (D the degree support)
    is the image in G of the kernel of (u, v) -> u - v on D + F, and an
    exponent f is split by chi, the projection of G onto F: m(f) is the
    coordinate of chi(delta f) in D cap F and w(f) = f - y(m(f)) lies in
    the H-restriction.  Raises HypothesisViolatedError where the package
    must.
    """
    if not classify(r).simple or r.fraction:
        raise HypothesisViolatedError("need a simple ring in algebra form")
    g = r.ggroup
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
        raise HypothesisViolatedError("rho does not preserve the support")
    ds_df = direct_sum(d_sub, sf)
    _, i_k = hom_kernel(_hom_minus(compose(i_d, ds_df.proj1),
                                   compose(i_f, ds_df.proj2)))
    df, i_df = hom_image(compose(i_d, compose(ds_df.proj1, i_k)))
    restricted, kappa = restrict_data(r, h_gens)
    y_map = lift_hom(r.delta, i_df)
    ds_t = direct_sum(restricted.egroup, df)
    target = group_algebra(restricted, df, "coarse")
    mu_p = add_homs(compose(kappa, ds_t.proj1), compose(y_map, ds_t.proj2))
    m = lift_hom(i_df, compose(i_f, compose(chi, r.delta)))
    w = lift_hom(kappa, _hom_minus(identity_hom(r.egroup), compose(y_map, m)))
    mu_q = add_homs(compose(ds_t.inj1, w), compose(ds_t.inj2, m))
    return mu_p, mu_q, target, coarsen(r, psi)


# --- the witness search at every degree ---

def search_every_degree(r, s, x, max_deg, box):
    """Lowest-degree monic witness for x over r, or None, trying every
    degree 1..max_deg with the box fibers grouped here by sorting."""
    num, den = ((x.num, x.den) if isinstance(x, RingFraction)
                else (x, Element.one(s)))
    g = degree_of(num) - degree_of(den)
    lists = {}
    for f in sorted(r.egroup.box_elements(box), key=lambda f: f.coords):
        lists.setdefault(r.delta.apply(f), []).append(f)
    fibers = [lists.get(i * g, []) for i in range(max_deg + 1)]
    for n in range(1, max_deg + 1):
        factors = [num ** j * den ** (n - j) for j in range(n + 1)]
        coeffs = _monic_solution(r, factors, n, fibers)
        if coeffs is not None:
            w = IntegralityWitness(n, coeffs)
            assert verify_integral_witness(r, s, x, w)
            return w
    return None


# --- the witness check in fraction-field arithmetic ---

def verify_by_fractions(r, s, x, w):
    """verify_integral_witness as it ran before its equation was cleared
    of denominators: the same gates, then Horner's rule on x = num/den in
    the fraction field, a fraction held as a (num, den) pair of Elements
    and added and multiplied by cross multiplication.  It vanishes iff
    its numerator does, den being a non zero divisor."""
    if len(w.coeffs) != w.degree or any(a.parent != r for a in w.coeffs):
        return False
    num, den = ((x.num, x.den) if isinstance(x, RingFraction)
                else (x, Element.one(s)))
    if not x.is_zero and is_homogeneous(num):
        g = degree_of(num) - degree_of(den)
        for i, a in enumerate(w.coeffs, start=1):
            if not a.is_zero and (not is_homogeneous(a)
                                  or degree_of(a) != i * g):
                return False

    def add(p, q):
        return p[0] * q[1] + q[0] * p[1], p[1] * q[1]

    def embed(a):
        return reparent(a, s), Element.one(s)

    acc = add((num, den), embed(w.coeffs[0]))
    for a in w.coeffs[1:]:
        acc = add((acc[0] * num, acc[1] * den), embed(a))
    return acc[0].is_zero


# --- the CLI scanner, character by character ---

def tokenize_by_characters(text):
    """[(kind, text, line, col)] ending in an "end" token; raises
    DslSyntaxError at the first character no token starts with."""
    toks = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if text[i:i + 2] == "->":
            toks.append(("sym", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in "[]()<>,;*+-/^:=":
            toks.append(("sym", ch, line, col))
            i += 1
            col += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            toks.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(("end", "", line, col))
    return toks


# --- the integer normal forms, transforms updated alongside ---

def _smallest_entry(d, m, n, start):
    best = None
    for i in range(start, m):
        for j in range(start, n):
            v = abs(d[i][j])
            if v and (best is None or v < best[0]):
                best = (v, i, j)
    return None if best is None else (best[1], best[2])


def _swap_into_place(d, u, t, pos):
    pi, pj = pos
    if pi != t:
        d[t], d[pi] = d[pi], d[t]
        u[t], u[pi] = u[pi], u[t]
    if pj != t:
        for row in d:
            row[t], row[pj] = row[pj], row[t]


def smith_by_parallel_updates(a, m, n):
    """(u, d) with u*a*v = d in Smith form, u updated beside d."""
    d = [list(row) for row in a]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    t = 0
    while t < min(m, n):
        pos = _smallest_entry(d, m, n, t)
        if pos is None:
            break
        _swap_into_place(d, u, t, pos)
        while True:
            restart = False
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    for j in range(n):
                        d[i][j] -= q * d[t][j]
                    for j in range(m):
                        u[i][j] -= q * u[t][j]
                    if d[i][t]:
                        restart = True
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    for row in d:
                        row[j] -= q * row[t]
                    if d[t][j]:
                        restart = True
            if restart:
                _swap_into_place(d, u, t, _smallest_entry(d, m, n, t))
                continue
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % d[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(n):
                d[t][j] += d[offender][j]
            for j in range(m):
                u[t][j] += u[offender][j]
        if d[t][t] < 0:
            for j in range(n):
                d[t][j] = -d[t][j]
            for j in range(m):
                u[t][j] = -u[t][j]
        t += 1
    return u, d


def hermite_by_parallel_updates(a, m, n):
    """(h, v, pivots) with a*v = h in column Hermite form, v updated
    beside h."""
    h = [list(row) for row in a]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    pivots = []
    p = 0
    for r in range(m):
        if p >= n:
            break
        nz = [j for j in range(p, n) if h[r][j]]
        if not nz:
            continue
        j0 = nz[0]
        if j0 != p:
            for row in h:
                row[p], row[j0] = row[j0], row[p]
            for row in v:
                row[p], row[j0] = row[j0], row[p]
        for j in range(p + 1, n):
            while h[r][j]:
                if abs(h[r][j]) < abs(h[r][p]):
                    for row in h:
                        row[p], row[j] = row[j], row[p]
                    for row in v:
                        row[p], row[j] = row[j], row[p]
                q = h[r][j] // h[r][p]
                for row in h:
                    row[j] -= q * row[p]
                for row in v:
                    row[j] -= q * row[p]
        if h[r][p] < 0:
            for row in h:
                row[p] = -row[p]
            for row in v:
                row[p] = -row[p]
        for j in range(p):
            q = h[r][j] // h[r][p]
            if q:
                for row in h:
                    row[j] -= q * row[p]
                for row in v:
                    row[j] -= q * row[p]
        pivots.append((r, p))
        p += 1
    return h, v, pivots


# --- products and hom checks through validated GroupElems ---

def mul_by_group_elems(x, y):
    """x * y as a convolution of GroupElems: each exponent sum built and
    checked by FgGroup.element, each coefficient product in the base, the
    result through Element's constructor."""
    out = {}
    for f1, c1 in x.terms.items():
        for f2, c2 in y.terms.items():
            f = _add_coords(x.parent.egroup, f1, f2)
            out[f] = out.get(f, 0) + c1 * c2
    return Element(x.parent, out)


def hom_matrix_by_group_elems(domain, codomain, matrix):
    """The matrix GroupHom(domain, codomain, matrix) stores, or the
    NotAHomomorphismError it raises: each torsion generator's image is
    built by FgGroup.element, and d times it too."""
    rows = [list(r) for r in matrix]
    if len(rows) != codomain.dim:
        raise NotAHomomorphismError(
            f"matrix has {len(rows)} rows, codomain dim {codomain.dim}")
    for row in rows:
        if len(row) != domain.dim:
            raise NotAHomomorphismError(
                f"matrix row width {len(row)}, domain dim {domain.dim}")
        for v in row:
            if type(v) is not int:
                raise NotAHomomorphismError(
                    f"matrix entries must be ints, got {v!r}")
    for j, d in enumerate(codomain.torsion):
        i = codomain.rank + j
        rows[i] = [x % d for x in rows[i]]
    mat = tuple(map(tuple, rows))
    for j, d in enumerate(domain.torsion):
        col = domain.rank + j
        img = codomain.element(tuple(row[col] for row in mat))
        if not codomain.element(tuple(d * c for c in img.coords)).is_zero:
            order = img.elem_order()
            raise NotAHomomorphismError(
                f"generator of order {d} maps to an element of "
                + (f"order {order}" if order else "infinite order"))
    return mat


def surjective_by_quotient(h):
    """Whether h is onto: the codomain modulo the images of the domain's
    generators is the trivial group."""
    q, _ = quotient_by(h.codomain,
                       [h.apply(x) for x in h.domain.generators()])
    return q.is_trivial


def ring_map_by_terms(m, x):
    """m.apply(x) term by term: each exponent through GroupHom.apply, the
    images summed from 0 and checked by Element's constructor."""
    if x.parent != m.domain:
        raise IncompatibleRingsError("element outside the map's domain")
    out = {}
    for f, c in x.terms.items():
        img = m.exponent_map.apply(f)
        out[img] = out.get(img, 0) + c
    return Element(m.codomain, out)


def quotient_by_normalizing(g, gens):
    """quotient_by(g, gens) through normalize_presentation's to_normal,
    which comes with the inverse of the Smith transform."""
    rels = g.relation_columns() + [list(x.coords) for x in gens]
    q, to_n, _ = normalize_presentation(g.dim, rels)
    return q, GroupHom(g, q, to_n)
