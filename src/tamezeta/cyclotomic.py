"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are polynomials in zeta_n = exp(2*pi*i/n) reduced modulo the n-th
cyclotomic polynomial, with Fraction coefficients.  Used to carry exact
partial-fraction data of rational generating series whose denominators
factor over roots of unity, so that operator identities can be checked in
exact arithmetic and only embedded into floats at evaluation time.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp

from .series import Poly, poly_divmod, poly_invmod

__all__ = ["CycloNum", "cyclotomic_poly", "zeta_power"]


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Coefficients (ascending) of the n-th cyclotomic polynomial, exact."""
    if n < 1:
        raise ValueError("n must be positive")
    num = Poly([Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = poly_divmod(num, Poly(cyclotomic_poly(d)))
            if not rem.is_zero():
                raise AssertionError("cyclotomic division not exact")
    return tuple(Fraction(c) for c in num.coeffs)


@lru_cache(maxsize=None)
def _top_row(n: int) -> tuple:
    """x^d mod Phi_n (d = deg Phi_n), as a coefficient tuple of length d."""
    phi = cyclotomic_poly(n)
    return tuple(-c for c in phi[:-1])


def _reduce(n: int, coeffs) -> tuple:
    d = len(cyclotomic_poly(n)) - 1
    work = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
    if len(work) < d:
        work += [Fraction(0)] * (d - len(work))
    row = _top_row(n)
    # substitute x^i = x^(i-d) * (x^d mod Phi_n), descending; targets stay < i
    for i in range(len(work) - 1, d - 1, -1):
        c = work[i]
        if c:
            work[i] = Fraction(0)
            base = i - d
            for j, rj in enumerate(row):
                if rj:
                    work[base + j] += c * rj
    return tuple(work[:d])


class CycloNum:
    """An element of Q(zeta_n) in the power basis 1, zeta, ..., zeta^(phi(n)-1)."""

    __slots__ = ("n", "vec")

    def __init__(self, n: int, coeffs):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "vec", _reduce(n, list(coeffs)))

    def __setattr__(self, *a):
        raise AttributeError("CycloNum is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rational(n: int, value) -> "CycloNum":
        return CycloNum(n, [Fraction(value)])

    # -- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.vec)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.vec[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element: %r" % (self,))
        return self.vec[0]

    # -- ring operations ----------------------------------------------
    def _coerce(self, other):
        if isinstance(other, CycloNum):
            if other.n != self.n:
                if other.is_rational():
                    return CycloNum.from_rational(self.n, other.to_fraction())
                if self.is_rational():
                    raise TypeError("mixed cyclotomic orders %d and %d" % (self.n, other.n))
                raise TypeError("mixed cyclotomic orders %d and %d" % (self.n, other.n))
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNum.from_rational(self.n, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloNum(self.n, [a + b for a, b in zip(self.vec, other.vec)])

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.n, [-a for a in self.vec])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloNum(self.n, [a - b for a, b in zip(self.vec, other.vec)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational scalar scales the coordinates; nothing to reduce
            return CycloNum(self.n, [a * other for a in self.vec])
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloNum(self.n, (Poly(self.vec) * Poly(other.vec)).coeffs)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Field inverse via the extended Euclidean algorithm mod Phi_n."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        inv = poly_invmod(Poly(self.vec), Poly(cyclotomic_poly(self.n)))
        return CycloNum(self.n, inv.coeffs)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = CycloNum.from_rational(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.vec[0] == Fraction(other)
        if isinstance(other, CycloNum):
            if other.n == self.n:
                return self.vec == other.vec
            return self.is_rational() and other.is_rational() and self.vec[0] == other.vec[0]
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.vec[0])
        return hash((self.n, self.vec))

    # -- Galois action and embedding -----------------------------------
    def galois(self, t: int) -> "CycloNum":
        """Apply zeta -> zeta^t (t invertible mod n)."""
        from math import gcd

        if gcd(t, self.n) != 1:
            raise ValueError("t must be invertible mod n")
        out = [Fraction(0)] * self.n
        for j, c in enumerate(self.vec):
            out[(j * t) % self.n] += c
        return CycloNum(self.n, out)

    def conjugate(self) -> "CycloNum":
        return self.galois(self.n - 1) if self.n > 1 else self

    def embed(self, prec: int) -> mpmath.mpc:
        """Numerical value with zeta_n = exp(2*pi*i/n), at prec bits."""
        with mp.workprec(prec):
            zeta = _root_of_unity(self.n, prec)
            acc = mpmath.mpc(0)
            for c in reversed(self.vec):
                acc = acc * zeta + mpmath.mpf(c.numerator) / c.denominator
            return acc

    def __repr__(self):
        return "CycloNum(n=%d, %s)" % (self.n, list(self.vec))


@lru_cache(maxsize=64)
def _root_of_unity(n: int, prec: int) -> mpmath.mpc:
    """exp(2*pi*i/n) at prec bits."""
    with mp.workprec(prec):
        return mpmath.exp(2j * mpmath.pi / n)


def zeta_power(n: int, j: int) -> CycloNum:
    """The root of unity zeta_n^j as an exact field element."""
    j %= n
    return CycloNum(n, [Fraction(0)] * j + [Fraction(1)])
