"""Stirling numbers, Todd series, Bernoulli polynomials, operator actions.

Conventions.  For a generating series with pole order ``nu`` at z=1,
principal coefficients k_1..k_nu and regular derivatives phi_m (the m-th
derivative of the regular part at z=1), the Todd series is the expansion

    tau(u) = (-u)^nu * alpha(e^u) = sum_m tau_m u^m / m!

stored through the m!-scaled coefficients tau_m, so that the n-th Bernoulli
polynomial is the binomial convolution  B[n; t] = sum_m C(n,m) tau_m t^(n-m)
and the differential operator action on a polynomial p is
sum_m (tau_m / m!) p^(m)(t).  Both are exact over rational inputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .scalar import binomial
from .series import Poly, TruncSeries, recenter

__all__ = [
    "stirling2",
    "stirling1_signed",
    "bernoulli_number",
    "ToddSeries",
    "todd_series",
    "bernoulli_poly",
    "todd_apply",
    "diff_apply_poly",
    "delta_apply",
    "generalized_todd_series",
]


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k); 0 outside 0 <= k <= n."""
    v = _STIRLING2.get((n, k))
    return v if v is not None else _triangle(_STIRLING2, n, k, lambda m, j: j)


def stirling1_signed(n: int, k: int) -> int:
    """Signed Stirling numbers of the first kind s(n, k).

    Defined by x(x-1)...(x-n+1) = sum_k s(n,k) x^k; they invert the
    second-kind transform: sum_k s(n,k) S(k,m) = delta(n,m).
    """
    v = _STIRLING1.get((n, k))
    return v if v is not None else _triangle(_STIRLING1, n, k, lambda m, j: 1 - m)


# the entries (m, j), 1 <= j <= m, filled so far: every one is nonzero
_STIRLING2 = {(0, 0): 1}
_STIRLING1 = {(0, 0): 1}


def _triangle(table: dict, n: int, k: int, weight) -> int:
    """T(n, k) of T(m, j) = T(m-1, j-1) + weight(m, j) T(m-1, j), T(0, 0) = 1.

    A missing entry fills rows upward in m, each to column min(m, k), from
    the highest row already filled that far, so nothing recurses.  Each row
    fills in ascending j, so (m, j) in ``table`` implies (m, 1..j) are, and
    an entry is written only from entries already there, always with the
    same value."""
    if k <= 0 or k > n:
        return int(n == k == 0)
    low = n - 1
    while (low, min(low, k)) not in table:
        low -= 1
    for m in range(low + 1, n + 1):
        top = j = min(m, k)
        while j > 0 and (m, j) not in table:
            j -= 1
        for j in range(j + 1, top + 1):
            table[m, j] = table.get((m - 1, j - 1), 0) + weight(m, j) * table.get((m - 1, j), 0)
    return table[n, k]


@lru_cache(maxsize=None)
def _expm1_over_u(order: int) -> TruncSeries:
    """(e^u - 1)/u to the given order, exact."""
    return TruncSeries([Fraction(1, factorial(n + 1)) for n in range(order + 1)], order)


@lru_cache(maxsize=None)
def _todd_base(order: int) -> TruncSeries:
    """u/(e^u - 1) to the given order, exact (ordinary coefficients)."""
    return TruncSeries([Fraction(1)], order) / _expm1_over_u(order)


def bernoulli_number(k: int) -> Fraction:
    """Classical Bernoulli number B_k (convention B_1 = -1/2), exact."""
    order = 16
    while order < k:
        order *= 2
    return _todd_base(order).coeffs[k] * factorial(k)


@dataclass(frozen=True)
class ToddSeries:
    """m!-scaled Taylor coefficients of (-u)^nu * alpha(e^u) at u = 0."""

    nu: int
    taus: tuple
    kind: str = "exact"

    @property
    def order(self) -> int:
        return len(self.taus) - 1


def todd_series(laurent, order: int) -> "ToddSeries":
    """Todd series of a generating series given by its Laurent data at z=1.

    ``laurent`` needs attributes ``nu`` (pole order), ``ks`` (k_1..k_nu) and
    ``phis`` (phi_0..phi_M, m!-scaled regular Taylor data); see
    :class:`tamezeta.tame.LaurentAtOne`.  The principal part contributes
    k_n (-1)^nu u^nu/(e^u-1)^n, the regular part contributes
    (-1)^nu u^nu sum_m psi_m u^m/m! with psi_m = sum_k S(m,k) phi_k.
    """
    nu = laurent.nu
    if order > nu + len(laurent.phis) - 1:
        raise ValueError(
            "laurent data supports Todd order %d, requested %d"
            % (nu + len(laurent.phis) - 1, order)
        )
    sign = (-1) ** nu
    ordinary = [0] * (order + 1)
    if nu:
        base = _todd_base(order)
        power = TruncSeries([Fraction(1)], order)
        for n in range(1, nu + 1):
            power = power * base  # (u/(e^u-1))^n
            k_n = laurent.ks[n - 1]
            if k_n == 0:
                continue
            shifted = power.shift_mul(nu - n)
            for m in range(order + 1):
                c = shifted.coeffs[m]
                if c != 0:
                    ordinary[m] = ordinary[m] + sign * k_n * c
    # regular part: psi_m from the Stirling transform of the phi data
    for m in range(0, order + 1 - nu):
        if m >= len(laurent.phis):
            break
        psi_m = laurent.phis[0] * 0
        if m == 0:
            psi_m = laurent.phis[0]
        else:
            for k in range(1, m + 1):
                if k < len(laurent.phis):
                    s = stirling2(m, k)
                    if s:
                        psi_m = psi_m + s * laurent.phis[k]
        if psi_m != 0:
            ordinary[nu + m] = ordinary[nu + m] + sign * psi_m * Fraction(1, factorial(m))
    taus = tuple(ordinary[m] * factorial(m) for m in range(order + 1))
    return ToddSeries(nu=nu, taus=taus, kind=getattr(laurent, "kind", "exact"))


def generalized_todd_series(n: int, order: int) -> ToddSeries:
    """(u/(e^u-1))^n as a ToddSeries (nu = 0 bookkeeping), exact."""
    power = _todd_base(order).power(n)
    return ToddSeries(nu=0, taus=tuple(power.coeffs[m] * factorial(m) for m in range(order + 1)))


def bernoulli_poly(todd: ToddSeries, n: int) -> Poly:
    """B[n; t] = sum_m C(n,m) tau_m t^(n-m); degree n, exact for exact input."""
    if n > todd.order:
        raise ValueError("Todd series order %d too small for n=%d" % (todd.order, n))
    coeffs = [0] * (n + 1)
    for m in range(n + 1):
        coeffs[n - m] = binomial(n, m) * todd.taus[m]
    p = Poly(coeffs)
    if todd.kind == "exact" and todd.taus[0] != 0 and p.degree != n:
        raise AssertionError("Bernoulli polynomial degree dropped; Laurent data inconsistent")
    return p


def todd_apply(todd: ToddSeries, p: Poly) -> Poly:
    """Differential action: sum_m (tau_m/m!) p^(m)(t) -- a finite sum."""
    if p.degree > todd.order:
        raise ValueError("polynomial degree exceeds Todd series order")
    acc = Poly()
    deriv = p
    for m in range(p.degree + 1):
        tau = todd.taus[m]
        if tau != 0:
            acc = acc + deriv * (tau * Fraction(1, factorial(m)))
        deriv = deriv.derivative()
    return acc


def delta_apply(p: Poly, h: int) -> Poly:
    """Forward difference with step h: p(t+h) - p(t), exact.

    recenter(p, h) lists the coefficients of p(u+h) in powers of u.
    """
    return Poly(recenter(p, h).coeffs) - p


def diff_apply_poly(mp, p: Poly) -> Poly:
    """Finite-difference action of a multi-power operator on a polynomial.

    ``mp`` is a :class:`tamezeta.tame.MultiPowerExpansion`; only operator
    orders up to deg p act (higher differences kill polynomials), so the sum
    is finite and exact for exact data.  Cyclotomic scalars are reduced back
    to rationals at the end.
    """
    deg = p.degree
    total = Poly()
    for term in mp.terms:
        cur = p
        for e, factor in term.factors:
            # univariate operator sum_m b_m Delta_e^m applied to cur
            acc = Poly()
            diff = cur
            for m in range(min(factor.order, deg) + 1):
                b = factor.coeffs[m]
                if b != 0:
                    acc = acc + diff * b
                if diff.is_zero():
                    break
                diff = delta_apply(diff, e)
            cur = acc
            if cur.is_zero():
                break
        if term.coeff != 0 and not cur.is_zero():
            total = total + cur * term.coeff
    return _rationalize_poly(total)


def _rationalize_poly(p: Poly) -> Poly:
    from .cyclotomic import CycloNum

    if any(isinstance(c, CycloNum) for c in p.coeffs):
        out = []
        for c in p.coeffs:
            if isinstance(c, CycloNum):
                out.append(c.to_fraction())
            else:
                out.append(Fraction(c))
        return Poly(out)
    return p
