"""Exact matrix routines over the integers and rationals.

Integer matrices are lists of row lists holding plain Python ints, so
every result is exact at any size.  Zero-row and zero-column shapes come
up constantly when the trivial group is involved; functions that cannot
infer a dimension take it explicitly.

Each question has one routine:

* Smith normal form answers invariant factors only: U * A * V = D with
  U unimodular and the diagonal of D nonnegative with d1 | d2 | ... .
  Only U and D are built, from the rows of [A | I_m].
* The column Hermite form A * V = H, V unimodular, answers the lattice
  questions: bases, integer kernels, integer solving and unimodular
  inverses.  V is built from the columns of [A; I_n].  With its reduced
  entries the form is unique for the lattice the columns of A span.
* Fraction-free Gauss-Jordan elimination answers rational systems and
  nullspaces, on sparse rows: lists of (column, nonzero value) pairs.

Each integer form carries its transform in the matrix it reduces, as
the elimination carries its right-hand sides: each step is written once.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def mat_mul(a, b, cols_b=None):
    """a @ b.  cols_b is required when b has no rows."""
    m = len(a)
    k = len(a[0]) if m else 0
    if k != len(b) and m:
        raise ValueError(f"shape mismatch: {m}x{k} times {len(b)}x?")
    n = len(b[0]) if b else cols_b
    if n is None:
        raise ValueError("cannot infer column count of empty matrix")
    out = zeros(m, n)
    for i in range(m):
        row = a[i]
        oi = out[i]
        for t in range(k):
            x = row[t]
            if x:
                bt = b[t]
                for j in range(n):
                    oi[j] += x * bt[j]
    return out

def mat_vec(a, v):
    return [sum(map(mul, row, v)) for row in a]


def _pivot_position(d, m, n, start):
    """Smallest nonzero |entry| in d[start:, start:], ties row-major."""
    best = None
    for i in range(start, m):
        for j in range(start, n):
            v = abs(d[i][j])
            if v and (best is None or v < best[0]):
                best = (v, i, j)
    return None if best is None else (best[1], best[2])


def _move_pivot(du, t, pos):
    """Swap the pivot at pos into (t, t); the row swap carries u along."""
    pi, pj = pos
    if pi != t:
        du[t], du[pi] = du[pi], du[t]
    if pj != t:
        for row in du:
            row[t], row[pj] = row[pj], row[t]


def smith_normal_form(a, m=None, n=None):
    """Return (u, d) with u*a*v = d in Smith normal form for some
    unimodular n x n matrix v, which is not built.

    u is m x m and unimodular.  The diagonal of d is nonnegative and
    forms a divisibility chain; zero entries come last.  Pivot choice:
    smallest nonzero absolute value in the working submatrix, ties
    broken row-major.  Reduces the rows of [a | I_m].
    """
    m = len(a) if m is None else m
    n = (len(a[0]) if a else 0) if n is None else n
    du = [list(row) + e for row, e in zip(a, identity(m))]
    t = 0
    while t < min(m, n):
        pos = _pivot_position(du, m, n, t)
        if pos is None:
            break
        _move_pivot(du, t, pos)
        pivot = du[t]
        # Clear row and column t; restart whenever a remainder shrinks
        # below the pivot, which guarantees termination.
        while True:
            restart = False
            for i in range(t + 1, m):
                row = du[i]
                if row[t]:
                    q = row[t] // pivot[t]
                    du[i] = row = [x - q * y for x, y in zip(row, pivot)]
                    if row[t]:
                        restart = True
            for j in range(t + 1, n):
                if pivot[j]:
                    q = pivot[j] // pivot[t]
                    for row in du:
                        row[j] -= q * row[t]
                    if pivot[j]:
                        restart = True
            if restart:
                _move_pivot(du, t, _pivot_position(du, m, n, t))
                pivot = du[t]
                continue
            # Row and column are clear.  Force divisibility of the rest.
            offender = next((row for row in du[t + 1:m]
                             if any(x % pivot[t] for x in row[t + 1:n])),
                            None)
            if offender is None:
                break
            du[t] = pivot = [x + y for x, y in zip(pivot, offender)]
        if pivot[t] < 0:
            du[t] = [-x for x in pivot]
        t += 1
    return [row[n:] for row in du], [row[:n] for row in du]


def hermite_columns(a, m=None, n=None):
    """Column echelon form: a*v = h with v unimodular.

    Returns (h, v, pivots) where pivots is a list of (row, col) with
    strictly increasing rows; the k-th pivot is in column k.  Pivot
    entries are positive, entries left of a pivot in its row are reduced
    into [0, pivot), and every non-pivot column is zero.  Reduces the
    columns of [a; I_n].
    """
    m = len(a) if m is None else m
    n = (len(a[0]) if a else 0) if n is None else n
    hv = [list(row) for row in a] + identity(n)
    pivots = []
    p = 0
    for r in range(m):
        if p >= n:
            break
        h = hv[r]
        nz = [j for j in range(p, n) if h[j]]
        if not nz:
            continue
        # gcd-combine all nonzero columns at row r into column p.
        j0 = nz[0]
        if j0 != p:
            for row in hv:
                row[p], row[j0] = row[j0], row[p]
        for j in range(p + 1, n):
            while h[j]:
                if abs(h[j]) < abs(h[p]):
                    for row in hv:
                        row[p], row[j] = row[j], row[p]
                q = h[j] // h[p]
                for row in hv:
                    row[j] -= q * row[p]
        if h[p] < 0:
            for row in hv:
                row[p] = -row[p]
        for j in range(p):
            q = h[j] // h[p]
            if q:
                for row in hv:
                    row[j] -= q * row[p]
        pivots.append((r, p))
        p += 1
    return hv[:m], hv[m:], pivots


def _echelon_solve(h, pivots, b):
    """The y with h*y = b, one entry per pivot, or None when there is none.

    h and pivots are as hermite_columns returns them, so pivot k sits in
    column k and y is found by forward substitution down the pivot rows.
    """
    residual = list(b)
    y = []
    for (r, c) in pivots:
        q, rem = divmod(residual[r], h[r][c])
        if rem:
            return None
        y.append(q)
        if q:
            for i in range(r, len(h)):
                residual[i] -= q * h[i][c]
    return None if any(residual) else y


def solve_int(a, b, m=None, n=None):
    """One integer solution x of a*x = b, or None.

    Goes through the column echelon form, so the solution picked is
    deterministic for a given a.
    """
    m = len(a) if m is None else m
    n = (len(a[0]) if a else 0) if n is None else n
    h, v, pivots = hermite_columns(a, m, n)
    y = _echelon_solve(h, pivots, b)
    # mat_vec stops at the shorter vector: x = v[:, :len(y)] * y.
    return None if y is None else mat_vec(v, y)


def _int_row(pairs):
    """{column: int}: the pairs times the lcm of their denominators."""
    scale = lcm(*[v.denominator for _, v in pairs])
    return {j: v.numerator * (scale // v.denominator) for j, v in pairs}


def _primitive(row):
    g = gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def _gauss_jordan(rows, ncols):
    """Fraction-free reduced echelon form of int rows {column: nonzero}
    over the first ncols columns, in place; returns the pivot columns.
    Pivot = the first remaining row holding the column, as if swapped
    into place; every other row holding it becomes a*row - b*pivot_row
    over its content.  `where` lists the rows holding each column."""
    rows[:] = map(_primitive, rows)
    where = {}
    for i, row in enumerate(rows):
        for k in row:
            where.setdefault(k, set()).add(i)
    order = list(range(len(rows)))
    pos = order[:]
    piv_cols = []
    for c in range(ncols):
        r = len(piv_cols)
        cand = [i for i in where.get(c, ()) if pos[i] >= r]
        if not cand:
            continue
        p = min(cand, key=pos.__getitem__)
        q, s = order[r], pos[p]
        order[r], order[s], pos[p], pos[q] = p, q, r, s
        prow = rows[p]
        for i in [i for i in where[c] if i != p]:
            g = gcd(prow[c], rows[i][c])
            fa, fb = prow[c] // g, rows[i][c] // g
            row = {k: fa * v for k, v in rows[i].items()}
            for k, y in prow.items():
                x = row.pop(k, 0) - fb * y
                if x:
                    row[k] = x
                    where[k].add(i)
                else:
                    where[k].discard(i)
            rows[i] = _primitive(row)
        piv_cols.append(c)
    rows[:] = [rows[i] for i in order]
    return piv_cols


def inverse_unimodular(u):
    """Exact inverse of a matrix with determinant +-1: the column Hermite
    form of such a u is I, so its transform v has u*v = I."""
    h, v, _ = hermite_columns(u)
    if h != identity(len(u)):
        raise ValueError("matrix is not unimodular")
    return v


def solve_rational(a, b, ncols):
    """The rational solution x of a*x = b with free variables 0, or None.
    Rows of a are lists of (column, nonzero value) pairs."""
    rows = [_int_row([*row, (ncols, bv)] if bv else row)
            for row, bv in zip(a, b)]
    piv_cols = _gauss_jordan(rows, ncols)
    if any(ncols in row for row in rows[len(piv_cols):]):
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(rows, piv_cols):
        if ncols in row:
            x[c] = Fraction(row[ncols], row[c])
    return x


def nullspace_rational(a, ncols):
    """Basis of the rational nullspace of a, rows as in solve_rational."""
    rows = [_int_row(row) for row in a]
    piv_cols = _gauss_jordan(rows, ncols)
    basis = []
    for fc in sorted(set(range(ncols)) - set(piv_cols)):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, c in zip(rows, piv_cols):
            if fc in row:
                vec[c] = Fraction(-row[fc], row[c])
        basis.append(vec)
    return basis
