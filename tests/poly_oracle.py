"""Explicit-term polynomials: an oracle for the zonal harmonics.

A polynomial in n Euclidean variables is a dict mapping exponent vectors
to nonzero Fraction coefficients.  ``zonal_terms`` expands the zonal form
sum_j c_j (x.u)^{k-2j} (x.x)^j monomial by monomial, so its Laplacian and
its values can be computed with no Gram matrix and no value histogram:
the independent route the package's ``zonal_shell_sum`` and
``zonal_coeffs`` are checked against on Z^n, where lattice coordinates are
Euclidean.
"""

from fractions import Fraction


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def poly_pow(p, e, n):
    out = {(0,) * n: Fraction(1)}
    for _ in range(e):
        out = poly_mul(out, p)
    return out


def zonal_terms(n, k, direction, coeffs):
    """The terms of sum_j coeffs[j] (x.u)^{k-2j} (x.x)^j, u = direction."""
    u = [Fraction(x) for x in direction]
    if len(u) != n:
        raise ValueError("direction must have length n")
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    dot = {unit[j]: u[j] for j in range(n) if u[j]}
    rr = {tuple(2 * x for x in unit[j]): Fraction(1) for j in range(n)}
    total = {}
    for j, c in enumerate(coeffs):
        part = poly_mul(poly_pow(dot, k - 2 * j, n), poly_pow(rr, j, n))
        for e, v in part.items():
            total[e] = total.get(e, Fraction(0)) + c * v
    return {e: v for e, v in total.items() if v != 0}


def laplacian(terms):
    """Termwise second derivatives, collected; {} for a harmonic."""
    acc = {}
    for expo, c in terms.items():
        for i, e in enumerate(expo):
            if e >= 2:
                key = expo[:i] + (e - 2,) + expo[i + 1:]
                acc[key] = acc.get(key, Fraction(0)) + c * e * (e - 1)
    return {k: v for k, v in acc.items() if v != 0}


def evaluate(terms, point):
    """The polynomial's value at a rational Euclidean point."""
    pt = [Fraction(x) for x in point]
    acc = Fraction(0)
    for expo, c in terms.items():
        prod = c
        for x, e in zip(pt, expo):
            if e:
                prod *= x ** e
        acc += prod
    return acc
