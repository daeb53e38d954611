"""Reference arithmetic for the witness-z workload, independent of gradal.

A query x is a Laurent polynomial in three variables with rational
coefficients, held as a dict from exponent tuples to Fractions.  The
rings are Z[Z^3] inside Q[Z^3], graded by total degree, so a monic
witness of degree n is x^n + a_1 x^(n-1) + ... + a_n = 0 with each a_i
an integer polynomial of total degree i.  The search gradal runs puts
the exponents of each a_i in the box [-BOX, BOX]^3; `monic_system`
writes the same search as an integer linear system, and `check_result`
checks what a search returned.  Nothing here imports gradal.
"""

from fractions import Fraction
from itertools import product
from math import lcm

MAX_DEG = 3
BOX = 2


def parse_terms(terms):
    """[[exponent list, "a/b"], ...] -> {exponent tuple: Fraction}."""
    return {tuple(e): Fraction(c) for e, c in terms}


def mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def powers(x, n):
    """[x^0, ..., x^n]."""
    out = [{(0, 0, 0): Fraction(1)}]
    for _ in range(n):
        out.append(mul(out[-1], x))
    return out


def candidates(degree, box=BOX):
    """Exponents of total degree `degree` inside the box, sorted."""
    return [e for e in product(range(-box, box + 1), repeat=3)
            if sum(e) == degree]


def monic_system(x, n, box=BOX):
    """Integer system A y = b whose solutions are degree-n witnesses of x.

    The unknowns are the coefficients of e(f) in a_i for every candidate
    f of degree i; each row is one monomial of the equation, scaled by
    the lcm of its denominators.  x must be homogeneous of degree 1.
    """
    pw = powers(x, n)
    columns = []
    for i in range(1, n + 1):
        for f in candidates(i, box):
            columns.append(mul({f: Fraction(1)}, pw[n - i]))
    monomials = sorted(set(pw[n]).union(*columns))
    a, b = [], []
    for u in monomials:
        row = [col.get(u, Fraction(0)) for col in columns]
        rhs = -pw[n].get(u, Fraction(0))
        scale = lcm(*(v.denominator for v in row + [rhs]))
        a.append([int(v * scale) for v in row])
        b.append(int(rhs * scale))
    return a, b


def check_result(x, expected_degree, result, box=BOX):
    """Return None when `result` is right for x, else why it is wrong.

    expected_degree is the lowest n <= MAX_DEG whose system has an
    integer solution, or None when none has.  result is None for "no
    witness" or (n, [a_1, ..., a_n]) with each a_i a dict as for x.
    """
    if result is None:
        if expected_degree is None:
            return None
        return f"no witness returned, reference has one of degree {expected_degree}"
    n, coeffs = result
    if n != expected_degree:
        return f"witness of degree {n}, reference lowest degree {expected_degree}"
    if len(coeffs) != n:
        return f"degree {n} witness with {len(coeffs)} coefficients"
    for i, a in enumerate(coeffs, start=1):
        for e, c in a.items():
            if Fraction(c).denominator != 1:
                return f"a_{i} has non-integer coefficient {c}"
            if sum(e) != i or max(abs(v) for v in e) > box:
                return f"a_{i} has exponent {e} outside degree {i} or the box"
    pw = powers(x, n)
    total = dict(pw[n])
    for i, a in enumerate(coeffs, start=1):
        for e, c in mul({k: Fraction(v) for k, v in a.items()}, pw[n - i]).items():
            total[e] = total.get(e, 0) + c
    if any(total.values()):
        return "x^n + a_1 x^(n-1) + ... + a_n is not zero"
    return None
