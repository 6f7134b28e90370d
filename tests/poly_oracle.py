"""Explicit-term polynomials: an oracle for the zonal harmonics.

``ladder`` gives the coefficients c_j of the zonal form
sum_j c_j (x.u)^{k-2j} (x.x)^j from the Laplacian alone, with no
Gegenbauer recurrence.  A polynomial in n Euclidean variables is a dict
mapping exponent vectors to nonzero Fraction coefficients.  ``zonal_terms``
expands the zonal form monomial by monomial, so its Laplacian and its
values can be computed with no Gram matrix and no value histogram: the
independent route the package's zonal kernel (``zonal_shell_sum``) is
checked against on Z^n, where lattice coordinates are Euclidean.
"""

from fractions import Fraction


def ladder(n, k, u2):
    """Coefficients c_j making sum c_j (x.u)^{k-2j} (x.x)^j harmonic in
    rank n, |u|^2 = u2: annihilating the Laplacian term by term forces
    c_{j+1} = -c_j (k-2j)(k-2j-1) u2 / (2(j+1)(n + 2k - 2j - 4))."""
    cs = [Fraction(1)]
    for j in range(k // 2):
        cs.append(cs[-1] * Fraction(-(k - 2 * j) * (k - 2 * j - 1) * u2,
                                    2 * (j + 1) * (n + 2 * k - 2 * j - 4)))
    return cs


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


def recurrence_terms(n, k, direction):
    """The terms of Z_k(x.u; |x|^2 |u|^2), the homogeneous monic Gegenbauer
    kernel built by its three-term recurrence, one ``poly_mul`` per step:
    Z_(j+1) = (x.u) Z_j - beta_j |u|^2 (x.x) Z_(j-1), with beta_1 = 1/n
    and beta_j = j(j+n-3)/((2j+n-2)(2j+n-4)), u = direction."""
    u = [Fraction(x) for x in direction]
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    dot = {unit[j]: u[j] for j in range(n) if u[j]}
    u2 = sum(x * x for x in u)
    prev, cur = {}, {(0,) * n: Fraction(1)}        # Z_(j-1), Z_j at j = 0
    for j in range(k):
        beta = (0 if j == 0 else Fraction(1, n) if j == 1 else
                Fraction(j * (j + n - 3), (2 * j + n - 2) * (2 * j + n - 4)))
        lag = {tuple(2 * x for x in unit[i]): -beta * u2 for i in range(n)}
        step = poly_mul(dot, cur)
        for e, v in poly_mul(lag, prev).items():
            step[e] = step.get(e, Fraction(0)) + v
        prev, cur = cur, {e: v for e, v in step.items() if v != 0}
    return cur


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
