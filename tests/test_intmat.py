"""Integer matrix kernel: normal forms checked against independent oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    det_bareiss,
    hermite_by_parallel_updates,
    is_divisibility_chain,
    mat_mul_plain,
    rref_dense,
    smith_by_parallel_updates,
    snf_column_transform,
)
from gradal.intmat import (
    _rref,
    hermite_columns,
    identity,
    inverse_unimodular,
    mat_vec,
    nullspace_rational,
    smith_normal_form,
    solve_int,
    solve_rational,
)


def random_matrix(rng, max_dim=5, lo=-20, hi=20):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def assert_snf_contract(a):
    m, n = len(a), len(a[0]) if a else 0
    u, d = smith_normal_form(a)
    ua = mat_mul_plain(u, a)
    v = snf_column_transform(ua, d)
    assert mat_mul_plain(ua, v) == [list(r) for r in d]
    diag = [d[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    assert all(x >= 0 for x in diag)
    assert is_divisibility_chain(diag)
    assert abs(det_bareiss(u)) == 1
    assert abs(det_bareiss(v)) == 1
    if m == n:
        prod = 1
        for x in diag:
            prod *= x
        assert abs(det_bareiss(a)) == prod


def test_snf_random_matrices():
    rng = random.Random(90210)
    for _ in range(200):
        assert_snf_contract(random_matrix(rng))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_snf_property(m, n, data):
    a = [[data.draw(st.integers(-30, 30)) for _ in range(n)]
         for _ in range(m)]
    assert_snf_contract(a)


def test_snf_fixed_cases():
    _, d = smith_normal_form([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]
    _, d = smith_normal_form([[4, 0], [0, 6]])
    assert [d[0][0], d[1][1]] == [2, 12]
    _, d = smith_normal_form([[0, 0], [0, 0]])
    assert [d[0][0], d[1][1]] == [0, 0]


def test_normal_forms_match_parallel_update_oracles():
    """The normal forms reduce the matrix with its transform attached;
    their u, d and h, v, pivots are exactly those of the routines that
    update each transform beside the matrix, on every shape from 0 rows
    and 0 columns up."""
    rng = random.Random(23)
    empty = 0
    for _ in range(2400):
        m, n = rng.randint(0, 6), rng.randint(0, 7)
        bound = rng.choice((1, 3, 40))
        density = rng.choice((0.2, 0.5, 1.0))
        a = [[rng.randint(-bound, bound) if rng.random() < density else 0
              for _ in range(n)] for _ in range(m)]
        empty += m == 0 or n == 0
        assert smith_normal_form(a, m, n) == smith_by_parallel_updates(a, m, n)
        assert (hermite_columns(a, m, n)
                == hermite_by_parallel_updates(a, m, n))
    assert empty > 300


def test_hermite_columns_contract():
    rng = random.Random(4096)
    for _ in range(200):
        a = random_matrix(rng)
        m, n = len(a), len(a[0])
        h, v, pivots = hermite_columns(a)
        assert mat_mul_plain(a, v) == [list(r) for r in h]
        assert abs(det_bareiss(v)) == 1
        rows = [r for r, _ in pivots]
        cols = [c for _, c in pivots]
        assert rows == sorted(rows) and len(set(rows)) == len(rows)
        assert cols == sorted(cols) and len(set(cols)) == len(cols)
        pivot_cols = set(cols)
        for r, c in pivots:
            assert h[r][c] > 0
            for c2 in range(c):
                if c2 in pivot_cols:
                    assert 0 <= h[r][c2] < h[r][c]
        for j in range(n):
            if j not in pivot_cols:
                assert all(h[i][j] == 0 for i in range(m))


def brute_force_solvable(a, b, box=6):
    n = len(a[0])
    if n > 3:
        return None
    from itertools import product
    for x in product(range(-box, box + 1), repeat=n):
        if mat_vec(a, list(x)) == list(b):
            return list(x)
    return None


def test_solve_int_soundness_and_completeness():
    rng = random.Random(777)
    for _ in range(300):
        a = random_matrix(rng, max_dim=3, lo=-6, hi=6)
        n = len(a[0])
        x = [rng.randint(-4, 4) for _ in range(n)]
        b = mat_vec(a, x)
        sol = solve_int(a, b)
        assert sol is not None
        assert mat_vec(a, sol) == b
    for _ in range(300):
        a = random_matrix(rng, max_dim=3, lo=-4, hi=4)
        m = len(a)
        b = [rng.randint(-5, 5) for _ in range(m)]
        sol = solve_int(a, b)
        if sol is not None:
            assert mat_vec(a, sol) == b
        else:
            brute = brute_force_solvable(a, b, box=4)
            if brute is not None:
                # An integer solution in the box exists but was missed.
                pytest.fail(f"solve_int missed {brute} for {a} {b}")


def test_solve_rational_consistency():
    rng = random.Random(31337)
    for _ in range(200):
        a = random_matrix(rng, max_dim=4, lo=-8, hi=8)
        m, n = len(a), len(a[0])
        b = [rng.randint(-8, 8) for _ in range(m)]
        rat = solve_rational(a, b)
        isol = solve_int(a, b)
        if rat is None:
            assert isol is None
        if isol is not None:
            assert rat is not None
        if rat is not None:
            acc = [sum(a[i][j] * rat[j] for j in range(n)) for i in range(m)]
            assert acc == b


def test_inverse_unimodular_round_trip():
    rng = random.Random(55)
    for _ in range(100):
        a = random_matrix(rng)
        u, _ = smith_normal_form(a)
        _, v, _ = hermite_columns(a)
        for w in (u, v):
            winv = inverse_unimodular(w)
            assert mat_mul_plain(w, winv) == identity(len(w))
            assert mat_mul_plain(winv, w) == identity(len(w))


def test_inverse_unimodular_of_random_products():
    """Products of elementary column operations and sign flips have
    determinant +-1; the inverse is the unique two-sided one."""
    rng = random.Random(57)
    for _ in range(200):
        n = rng.randint(1, 5)
        u = identity(n)
        for _ in range(rng.randint(0, 12)):
            i, j = rng.randrange(n), rng.randrange(n)
            k = -2 if i == j else rng.randint(-3, 3)
            for row in u:
                row[j] += k * row[i]
        assert det_bareiss(u) in (1, -1)
        uinv = inverse_unimodular(u)
        assert mat_mul_plain(u, uinv) == identity(n)
        assert mat_mul_plain(uinv, u) == identity(n)


@pytest.mark.parametrize("u", [[[3, 1], [1, 1]], [[1, 1], [1, -1]],
                               [[2, 0, 0], [5, 1, 0], [7, 3, 1]]])
def test_inverse_unimodular_rejects_determinant_two(u):
    """Invertible over Q but not over Z: the Hermite form is not I."""
    assert abs(det_bareiss(u)) == 2
    with pytest.raises(ValueError, match="matrix is not unimodular"):
        inverse_unimodular(u)


@pytest.mark.parametrize("u", [[[1, 1], [1, 1]], [[0, 1], [0, 0]], [[2]],
                               [[0]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]]])
def test_inverse_unimodular_rejects_singular_and_non_unimodular(u):
    with pytest.raises(ValueError, match="matrix is not unimodular"):
        inverse_unimodular(u)


def rank_by_snf(a):
    _, d = smith_normal_form(a)
    return sum(1 for i in range(min(len(a), len(a[0]))) if d[i][i])


def test_nullspace_rational_annihilates_with_full_size():
    rng = random.Random(1729)
    for _ in range(200):
        a = random_matrix(rng, max_dim=5, lo=-3, hi=3)
        n = len(a[0])
        basis = nullspace_rational(a)
        assert len(basis) == n - rank_by_snf(a)
        for vec in basis:
            assert len(vec) == n
            assert all(v == 0 for v in mat_vec(a, vec))


def test_rational_routines_match_sympy_rref():
    """Pivot columns and the free-variables-zero solution agree with
    sympy's reduced row echelon form."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8128)
    for _ in range(150):
        a = random_matrix(rng, max_dim=5, lo=-3, hi=3)
        m, n = len(a), len(a[0])
        b = [rng.randint(-4, 4) for _ in range(m)]
        _, pivots = sympy.Matrix(a).rref()
        basis = nullspace_rational(a)
        # The last nonzero entry of each basis vector is its free column.
        free = [max(j for j in range(n) if vec[j]) for vec in basis]
        assert sorted(set(range(n)) - set(free)) == list(pivots)
        reduced, aug_pivots = sympy.Matrix([row + [bv] for row, bv
                                            in zip(a, b)]).rref()
        x = solve_rational(a, b)
        if n in aug_pivots:
            assert x is None
            continue
        want = [Fraction(0)] * n
        for i, c in enumerate(aug_pivots):
            v = reduced[i, n]
            want[c] = Fraction(int(v.p), int(v.q))
        assert x == want


def random_sparse_system(rng):
    """A witness-like system: 20-60 rows and columns at 2-10 % density
    (log-uniform, so most draws are sparse and fill-in stays cheap),
    Fraction entries, some rows and columns forced to zero, and a
    right-hand side that is a*x0 (feasible) or random (mostly not)."""
    m, n = rng.randint(20, 60), rng.randint(20, 60)
    density = 0.02 * 5 ** rng.random()
    a = [[Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 2))
          if rng.random() < density else 0 for _ in range(n)]
         for _ in range(m)]
    for i in rng.sample(range(m), rng.randint(0, 3)):
        a[i] = [0] * n
    for j in rng.sample(range(n), rng.randint(0, 3)):
        for row in a:
            row[j] = 0
    if rng.random() < 0.5:
        x0 = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
        b = [sum(v * w for v, w in zip(row, x0)) for row in a]
    else:
        b = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
             if rng.random() < 0.3 else 0 for _ in range(m)]
    return a, b, n


def dense_reference(a, b, n):
    """Pivots, reduced rows, solution and nullspace by rref_dense.

    The pivots over the first n columns do not depend on the carried
    right-hand side, so one reduction of [a | b] serves both answers."""
    rows = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(a, b)]
    piv = rref_dense(rows, n)
    x = None
    if not any(row[n] for row in rows[len(piv):]):
        x = [Fraction(0)] * n
        for row, c in zip(rows, piv):
            x[c] = row[n]
    basis = []
    for fc in range(n):
        if fc not in piv:
            vec = [Fraction(0)] * n
            vec[fc] = Fraction(1)
            for row, c in zip(rows, piv):
                vec[c] = -row[fc]
            basis.append(vec)
    return piv, rows, x, basis


def assert_kernel_matches_dense(a, b, n):
    piv, reduced, x, basis = dense_reference(a, b, n)
    sparse = [{j: Fraction(v) for j, v in enumerate([*row, bv]) if v}
              for row, bv in zip(a, b)]
    assert _rref(sparse, n) == piv
    assert [[row.get(j, 0) for j in range(n + 1)] for row in sparse] == reduced
    sol = solve_rational(a, b, n)
    assert sol == x
    got = nullspace_rational(a, n)
    assert got == basis
    # The last nonzero entry of each basis vector is its free column.
    free = {max(j for j in range(n) if vec[j]) for vec in got}
    assert [j for j in range(n) if j not in free] == piv
    for vec in ([] if sol is None else [sol]) + got:
        assert all(type(v) is Fraction for v in vec)
    return sol is not None


def test_sparse_kernel_matches_dense_oracle():
    """The sparse elimination reproduces the dense Gauss-Jordan step for
    step: same pivots, same reduced rows, same solution and nullspace."""
    rng = random.Random(20240)
    feasible = sum(assert_kernel_matches_dense(*random_sparse_system(rng))
                   for _ in range(200))
    assert 50 < feasible < 150
    zero_rows = [[0, 0], [0, 0], [0, 0]]
    for a, b, n in (([], [], 0), ([], [], 4),
                    ([[], []], [0, 0], 0), ([[], []], [0, Fraction(1, 2)], 0),
                    (zero_rows, [0, 0, 1], 2), (zero_rows, [0, 0, 0], 2),
                    ([[1, 0], [0, 2]], [0, 1], 2)):
        assert_kernel_matches_dense(a, b, n)
    assert solve_rational([[], []], [0, Fraction(1, 2)], 0) is None
    assert nullspace_rational([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def dense_inverse(u):
    n = len(u)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(u)]
    if len(rref_dense(rows, n)) < n or any(x.denominator != 1
                                           for row in rows for x in row[n:]):
        return None
    return [[int(x) for x in row[n:]] for row in rows]


def test_inverse_unimodular_matches_dense_oracle():
    """Random unimodular products of elementary operations, and random
    sparse integer matrices that are mostly singular or of |det| > 1."""
    rng = random.Random(4242)
    for trial in range(200):
        n = rng.randint(1, 12)
        if trial % 2:
            u = identity(n)
            for _ in range(3 * n):
                i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
                if i != j:
                    q = rng.randint(-3, 3)
                    u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        else:
            u = [[rng.randint(-2, 2) if rng.random() < 0.3 else 0
                  for _ in range(n)] for _ in range(n)]
        want = dense_inverse(u)
        if want is None:
            with pytest.raises(ValueError, match="matrix is not unimodular"):
                inverse_unimodular(u)
        else:
            assert inverse_unimodular(u) == want
    assert inverse_unimodular([]) == dense_inverse([]) == []
