"""Inverse pipeline: from poles/residues/values back to Laurent data.

Prescribed simple poles with residues determine the principal part at z=1
(through a uni-triangular solve against the classical Todd basis); a value
sequence at a fixed t0 determines all Bernoulli polynomials by repeated
antidifferentiation; and the polynomials determine the regular Taylor data
through a second triangular decomposition followed by Stirling inversion.
The result is formal Laurent data: nothing certifies that it comes from an
actual tame generating series.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .bernoulli import (
    bernoulli_poly,
    generalized_todd_series,
    stirling1_signed,
)
from .scalar import falling_factorial
from .series import Poly, recenter
from .tame import LaurentAtOne

__all__ = [
    "ContinuationData",
    "principal_from_poles",
    "polys_from_values",
    "laurent_from_polys",
    "dirichlet_from_data",
]


@dataclass(frozen=True)
class ContinuationData:
    """Poles, residues, and special values of a Dirichlet series at t0."""

    t0: object
    poles: tuple
    residues: tuple
    values: tuple

    def __post_init__(self):
        if len(self.poles) != len(self.residues):
            raise ValueError("poles and residues must be parallel")
        if any(n < 1 for n in self.poles):
            raise ValueError("poles must be positive integers")
        if any(r == 0 for r in self.residues):
            raise ValueError("residues must be nonzero")


def _todd_power_basis(nu: int, target_degree: int) -> list:
    """Polynomials T^n d^(nu-n) (t^target_degree) for n = 1..nu.

    Element n has degree target_degree - nu + n; the collection is
    triangular in degree, which is what both solves below rely on.
    """
    out = []
    for n in range(1, nu + 1):
        d = target_degree - (nu - n)
        scale = falling_factorial(target_degree, nu - n)  # d^(nu-n) t^N = scale * t^d
        base = bernoulli_poly(generalized_todd_series(n, d), d)
        out.append(base * Fraction(scale))
    return out


def principal_from_poles(t0, poles, residues) -> LaurentAtOne:
    """Principal part with prescribed simple poles and residues at t0.

    Solves sum_n q_n T^n d^(nu-n) (t^(nu-1)) = (-1)^nu P[t] for q_1..q_nu,
    with P[t] = sum p_n (t-t0)^(n-1) and p_n = (nu-1)! (-1)^(nu+n) r_n.
    """
    poles = tuple(poles)
    residues = tuple(residues)
    if not poles:
        return LaurentAtOne(0, (), (Fraction(0),))
    data = ContinuationData(t0, poles, residues, ())
    nu = max(poles)
    rmap = dict(zip(poles, residues))
    fact = factorial(nu - 1)
    pvals = [rmap.get(n, 0) * Fraction((-1) ** (nu + n) * fact) for n in range(1, nu + 1)]
    # P[t] in powers of (t - t0)
    p_shifted = Poly(pvals)  # coefficients in x = t - t0, degree nu-1
    target = Poly(recenter(p_shifted, -t0).coeffs) * Fraction((-1) ** nu)
    ks = _solve_in_todd_basis(target, nu, nu - 1)
    return LaurentAtOne(nu, tuple(ks), (Fraction(0),) * (nu + 2))


def _solve_in_todd_basis(target: Poly, nu: int, degree: int) -> list:
    """Coefficients q_1..q_nu of target in the basis T^n d^(nu-n)(t^degree).

    Pure back-substitution: basis element n is the unique one of degree
    degree-nu+n.  Returns exact coefficients; raises if the residual after
    consuming the basis is nonzero.
    """
    basis = _todd_power_basis(nu, degree)
    qs = [Fraction(0)] * nu
    residual = target
    for n in range(nu, 0, -1):
        b = basis[n - 1]
        d = degree - nu + n
        lead = residual.coefficient(d)
        if lead == 0:
            continue
        c = lead / b.coefficient(d)
        qs[n - 1] = c
        residual = residual - b * c
    if not residual.is_zero():
        raise AssertionError("triangular solve left a residual: %r" % (residual,))
    return qs


def polys_from_values(t0, values) -> list:
    """Bernoulli polynomials from the value sequence B[n](t0), by induction.

    B[0] is the constant values[0]; B[n] is the antiderivative of n B[n-1]
    with the constant fixed by B[n](t0) = values[n].  Any sequence gives
    formal polynomials.
    """
    out = []
    for n, v in enumerate(values):
        if n == 0:
            out.append(Poly([v]))
            continue
        raw = (out[-1] * n).antiderivative(0)
        out.append(raw + Poly([v - raw(t0)]))
    return out


def laurent_from_polys(nu: int, polys) -> LaurentAtOne:
    """Laurent data from Bernoulli polynomials B[0..K], K >= nu (and K >= 1).

    The principal part comes from B[nu-1] (same triangular solve as
    :func:`principal_from_poles`); the regular derivatives come from
    decomposing B[K] in the mixed Todd/derivative basis and inverting the
    second-kind Stirling transform.
    """
    polys = list(polys)
    K = len(polys) - 1
    if K < max(nu - 1, 0):
        raise ValueError("need polynomials up to index >= nu-1")
    for n, q in enumerate(polys):
        # deg B[n] = n exactly when nu > 0; a pole-free series may have
        # leading coefficient alpha(1) = 0 and then lower degrees
        if q.degree > n or (nu and q.degree != n):
            raise ValueError("inconsistent Bernoulli data: deg B[%d] = %d" % (n, q.degree))
    sign = Fraction((-1) ** nu)
    if nu:
        ks = _solve_in_todd_basis(polys[nu - 1] * sign, nu, nu - 1)
        if ks[-1] == 0:
            raise ValueError("inconsistent Bernoulli data: k_nu vanished")
    else:
        ks = []
    # psi_m from B[K]: coefficient of d^(nu+m)(t^K) is (-1)^nu psi_m/m!
    residual = polys[K] * sign
    if nu:
        basis = _todd_power_basis(nu, K)
        for n in range(nu, 0, -1):
            b = basis[n - 1]
            d = K - nu + n
            c = residual.coefficient(d) / b.coefficient(d)
            if c != ks[n - 1]:
                raise ValueError(
                    "inconsistent Bernoulli data: principal parts of B[%d] and B[%d] disagree"
                    % (nu - 1, K)
                )
            residual = residual - b * c
    psis = []
    for m in range(0, K - nu + 1):
        d = K - nu - m
        scale = falling_factorial(K, nu + m)  # d^(nu+m) t^K = scale t^(K-nu-m)
        coeff = residual.coefficient(d)
        psi_m = coeff * Fraction(factorial(m), scale)
        psis.append(psi_m)
        residual = residual - Poly([Fraction(0)] * d + [coeff])
    if any(c != 0 for c in residual.coeffs):
        raise ValueError("inconsistent Bernoulli data: residual after decomposition")
    phis = []
    for n in range(len(psis)):
        acc = psis[0] * 0
        if n == 0:
            acc = psis[0]
        else:
            for k in range(1, n + 1):
                s = stirling1_signed(n, k)
                if s:
                    acc = acc + s * psis[k]
        phis.append(acc)
    return LaurentAtOne(nu, tuple(ks), tuple(phis))


def dirichlet_from_data(data: ContinuationData):
    """Laurent data reproducing the prescribed poles, residues, and values.

    Returns (laurent, formal_only): ``formal_only`` is always True, because
    uniqueness holds but existence of a tame series with this expansion is
    not certified.  Residues fix B[0..nu-1] at t0, values fix B[nu..] via
    v_n = (-1)^nu n!/(nu+n)! B[nu+n](t0).
    """
    nu = max(data.poles) if data.poles else 0
    rmap = dict(zip(data.poles, data.residues))
    bvals = []
    fact = factorial(nu - 1) if nu else 1
    for j in range(nu):  # B[j](t0) for j = 0..nu-1 via the residue identity
        n = nu - j
        p_n = rmap.get(n, 0) * Fraction((-1) ** (nu + n) * fact)
        # B[nu-n](t0) = (n-1)!/( (nu-1) falling (n-1) ) * p_n
        scale = Fraction(factorial(n - 1), falling_factorial(nu - 1, n - 1))
        bvals.append(p_n * scale)
    sign = Fraction((-1) ** nu)
    for n, v in enumerate(data.values):
        bvals.append(v * sign * Fraction(factorial(nu + n), factorial(n)))
    polys = polys_from_values(data.t0, bvals)
    return laurent_from_polys(nu, polys), True
