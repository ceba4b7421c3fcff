"""Shared numeric tower: exact rationals and fixed-precision big complexes.

All algebraic identities (Laurent data, Bernoulli polynomials, operator
calculus) run on exact ``fractions.Fraction`` scalars; analytic evaluation
runs on mpmath reals/complexes under an explicit :class:`ApproxContext`.
Values of both kinds are immutable and safe to share between threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import mpmath
from mpmath import mp

from .cyclotomic import CycloNum

Rational = Fraction

__all__ = [
    "Rational",
    "ApproxContext",
    "BigComplex",
    "binomial",
    "falling_factorial",
    "agree_within",
    "as_mpf",
    "as_mpc",
]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero for k < 0 or k > n."""
    if k < 0 or k > n or n < 0:
        return 0
    return comb(n, k)


def falling_factorial(x, n: int):
    """x (x-1) ... (x-n+1); empty product is 1."""
    out = x - x + 1 if not isinstance(x, int) else 1
    for j in range(n):
        out = out * (x - j)
    return out


@dataclass(frozen=True)
class ApproxContext:
    """Precision/tolerance context shared by a whole computation run.

    ``precision_bits`` is the precision of reported values, ``target_eps``
    the absolute/relative tolerance evaluators must certify, ``max_terms``
    a hard cap on any adaptive summation.  A single context is threaded
    through a run; there is no per-value precision negotiation.
    """

    precision_bits: int = 128
    target_eps: float = 1e-25
    max_terms: int = 2_000_000

    def __post_init__(self):
        if self.precision_bits < 16:
            raise ValueError("precision_bits must be at least 16")
        if not self.target_eps > 0:
            raise ValueError("target_eps must be positive")
        if self.target_eps <= 2.0 ** (-self.precision_bits + 8):
            raise ValueError(
                "target_eps %g is not achievable at %d bits" % (self.target_eps, self.precision_bits)
            )
        if self.max_terms < 1:
            raise ValueError("max_terms must be positive")

    def working_bits(self, extra: int = 0) -> int:
        """Internal working precision: requested bits plus guard bits."""
        return self.precision_bits + 32 + max(0, int(extra))


def as_mpf(x, prec: int | None = None) -> mpmath.mpf:
    """Convert an exact or floating scalar to ``mpf`` at ``prec`` bits."""
    with mp.workprec(prec if prec is not None else mp.prec):
        if isinstance(x, Fraction):
            return mpmath.mpf(x.numerator) / x.denominator
        if isinstance(x, BigComplex):
            if x.imag != 0:
                raise ValueError("nonzero imaginary part")
            return mpmath.mpf(x.real)
        return mpmath.mpf(x)


def as_mpc(x, prec: int | None = None) -> mpmath.mpc:
    """Convert an exact, floating, or complex scalar to ``mpc`` at ``prec`` bits;
    a :class:`CycloNum` is embedded with zeta_n = exp(2*pi*i/n)."""
    with mp.workprec(prec if prec is not None else mp.prec):
        if isinstance(x, CycloNum):
            return x.embed(mp.prec)
        if isinstance(x, Fraction):
            return mpmath.mpc(mpmath.mpf(x.numerator) / x.denominator)
        if isinstance(x, BigComplex):
            return mpmath.mpc(x.real, x.imag)
        if isinstance(x, complex):
            return mpmath.mpc(x.real, x.imag)
        return mpmath.mpc(x)


class BigComplex:
    """Complex number with explicit precision (in bits).

    Arithmetic never silently mixes precisions: a binary operation runs at
    the minimum of the two operand precisions and the result records it.
    Instances are immutable.
    """

    __slots__ = ("real", "imag", "prec")

    def __init__(self, real, imag=0, prec: int | None = None):
        p = int(prec) if prec is not None else mp.prec
        object.__setattr__(self, "prec", p)
        with mp.workprec(p):
            if isinstance(real, BigComplex):
                z = mpmath.mpc(real.real, real.imag) + mpmath.mpc(as_mpf(imag, p))
                object.__setattr__(self, "real", z.real)
                object.__setattr__(self, "imag", z.imag)
            elif isinstance(real, (complex, mpmath.mpc)):
                z = mpmath.mpc(real)
                object.__setattr__(self, "real", +z.real)
                object.__setattr__(self, "imag", +z.imag)
            else:
                object.__setattr__(self, "real", as_mpf(real, p))
                object.__setattr__(self, "imag", as_mpf(imag, p))

    def __setattr__(self, *a):
        raise AttributeError("BigComplex is immutable")

    def to_mpc(self) -> mpmath.mpc:
        # construct under our own precision: mpc() rounds its components
        # to the ambient working precision
        with mp.workprec(self.prec):
            return mpmath.mpc(self.real, self.imag)

    def _coerce(self, other) -> "BigComplex":
        if isinstance(other, BigComplex):
            return other
        return BigComplex(other, prec=self.prec)

    def _binop(self, other, fn) -> "BigComplex":
        other = self._coerce(other)
        p = min(self.prec, other.prec)
        with mp.workprec(p):
            z = fn(self.to_mpc(), other.to_mpc())
        return BigComplex(z, prec=p)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._coerce(other)._binop(self, lambda a, b: a - b)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._coerce(other)._binop(self, lambda a, b: a / b)

    def __neg__(self):
        return BigComplex(-self.real, -self.imag, prec=self.prec)

    def conjugate(self) -> "BigComplex":
        return BigComplex(self.real, -self.imag, prec=self.prec)

    def __abs__(self) -> mpmath.mpf:
        with mp.workprec(self.prec):
            return abs(self.to_mpc())

    def __eq__(self, other):
        if isinstance(other, BigComplex):
            return self.real == other.real and self.imag == other.imag
        try:
            z = as_mpc(other, self.prec)
        except (TypeError, ValueError):
            return NotImplemented
        return self.to_mpc() == z

    def __hash__(self):
        return hash((self.real, self.imag))

    def __repr__(self):
        return "BigComplex(%r, %r, prec=%d)" % (self.real, self.imag, self.prec)


def agree_within(a, b, tol) -> bool:
    """Mixed relative/absolute comparison: |a-b| <= tol * max(1, |a|, |b|).

    The subtraction is carried out at a precision fine enough to resolve
    ``tol``; mpmath arithmetic at the ambient precision would otherwise
    swallow the difference of nearly-equal high-precision operands.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    prec = max(mp.prec, 64)
    for x in (a, b):
        if isinstance(x, BigComplex):
            prec = max(prec, x.prec)
    with mp.workprec(64):
        tol_bits = int(-mpmath.log(as_mpf(tol, 64), 2)) + 1
    prec = max(prec, tol_bits) + 32
    with mp.workprec(prec):
        za, zb = as_mpc(a, prec), as_mpc(b, prec)
        scale = max(mpmath.mpf(1), abs(za), abs(zb))
        return abs(za - zb) <= as_mpf(tol, prec) * scale
