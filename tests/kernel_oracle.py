"""Gram-Schmidt kernel polynomials: an oracle for the zonal kernel sums.

The package evaluates the per-degree kernels by the Gegenbauer three-term
recurrence at each cosine of a shell's pair histogram.  This module builds
the same monic polynomials the long way, by Gram-Schmidt over 1, s, s^2, ...
under the sphere-moment bilinear form <s^a, s^b> = m_(a+b)(n), as explicit
``Fraction`` coefficients, so the recurrence is checked against the
definition of orthogonality rather than against itself.  On S^0 (n = 1)
the form is degenerate (s^2 - 1 has norm zero), so it needs n >= 2.
"""

from fractions import Fraction

from designlab.lattices import sphere_moment


def moment_inner(n, p, q):
    """<p, q> for coefficient lists p, q (constant term first)."""
    acc = Fraction(0)
    for a, pa in enumerate(p):
        if pa:
            for b, qb in enumerate(q):
                if qb:
                    acc += pa * qb * sphere_moment(n, a + b)
    return acc


def orthogonal_kernel_polys(n, jmax):
    """The monic orthogonal polynomials of degrees 0..jmax, as coefficient
    tuples (constant term first)."""
    polys = []
    for j in range(jmax + 1):
        cur = [Fraction(0)] * j + [Fraction(1)]
        for g in polys:
            f = moment_inner(n, cur, g) / moment_inner(n, g, g)
            for i, c in enumerate(g):
                cur[i] -= f * c
        polys.append(cur)
    return tuple(tuple(p) for p in polys)


def kernel_sums(hist, n, norm, degrees):
    """sum over the pair histogram of cnt * p_j(w / 2 norm), the doubled
    inner product w over twice the norm being the cosine of the pair."""
    polys = orthogonal_kernel_polys(n, max(degrees))
    out = {}
    for j in degrees:
        acc = Fraction(0)
        for w, cnt in hist:
            s = Fraction(w) / (2 * Fraction(norm))
            acc += cnt * sum(c * s ** i for i, c in enumerate(polys[j]))
        out[j] = acc
    return out
