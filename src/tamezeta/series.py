"""Dense univariate polynomials, truncated power series, rational functions.

Everything here is ring-generic: coefficients may be exact (``Fraction``,
``CycloNum``) or floating (mpmath ``mpf``/``mpc``), as long as they support
``+ - * /`` with each other and with Python ints.  Exact inputs give exact
outputs.  Truncation orders are always explicit; arithmetic never reports
coefficients beyond the common truncation order.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

__all__ = [
    "Poly",
    "TruncSeries",
    "RationalFn",
    "compose",
    "recenter",
    "series_pow_log_factor",
    "log_factor_base",
    "poly_divmod",
    "poly_gcd",
    "poly_invmod",
]


def _trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


class Poly:
    """Immutable dense polynomial; ``coeffs[i]`` multiplies ``t**i``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", tuple(_trim(coeffs)))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            nonzero = [(j, b) for j, b in enumerate(other.coeffs) if b != 0]
            for i, a in enumerate(self.coeffs):
                if a != 0:
                    for j, b in nonzero:
                        out[i + j] = out[i + j] + a * b
            return Poly(out)
        return Poly([c * other for c in self.coeffs])

    def __rmul__(self, other):
        return Poly([other * c for c in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def antiderivative(self, constant=0) -> "Poly":
        """Antiderivative with prescribed constant term; exact over Fraction."""
        out = [constant]
        for i, c in enumerate(self.coeffs):
            out.append(c * Fraction(1, i + 1) if isinstance(c, (int, Fraction)) else c / (i + 1))
        return Poly(out)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def map(self, fn) -> "Poly":
        return Poly([fn(c) for c in self.coeffs])

    def __repr__(self):
        return "Poly(%s)" % (list(self.coeffs),)


def recenter(p: Poly, t0) -> Poly:
    """Taylor shift: coefficients of p in powers of (t - t0); exact for exact input."""
    n = p.degree
    if n < 0:
        return Poly()
    pow_t0 = [1]
    for _ in range(n):
        pow_t0.append(pow_t0[-1] * t0)
    out = []
    for k in range(n + 1):
        acc = 0
        for j in range(k, n + 1):
            c = p.coeffs[j]
            if c != 0:
                acc = acc + comb(j, k) * c * pow_t0[j - k]
        out.append(acc)
    return Poly(out)


class TruncSeries:
    """Power series truncated at an explicit order, around center 0 or 1.

    ``coeffs[i]`` multiplies ``x**i`` where x is the formal variable (the
    series variable itself for center 0, or ``z - 1`` for center 1).  The
    center is bookkeeping only; arithmetic requires matching centers.
    """

    __slots__ = ("coeffs", "order", "center")

    def __init__(self, coeffs, order: int, center: int = 0):
        if order < 0:
            raise ValueError("order must be nonnegative")
        if center not in (0, 1):
            raise ValueError("center must be 0 or 1")
        c = list(coeffs)[: order + 1]
        c += [0] * (order + 1 - len(c))
        object.__setattr__(self, "coeffs", tuple(c))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "center", center)

    def __setattr__(self, *a):
        raise AttributeError("TruncSeries is immutable")

    def _common(self, other):
        if self.center != other.center:
            raise ValueError("mismatched series centers")
        return min(self.order, other.order)

    def __eq__(self, other):
        if isinstance(other, TruncSeries):
            return (self.coeffs, self.order, self.center) == (other.coeffs, other.order, other.center)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, TruncSeries):
            m = self._common(other)
            return TruncSeries(
                [self.coeffs[i] + other.coeffs[i] for i in range(m + 1)], m, self.center
            )
        out = list(self.coeffs)
        out[0] = out[0] + other
        return TruncSeries(out, self.order, self.center)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs], self.order, self.center)

    def __sub__(self, other):
        if isinstance(other, TruncSeries):
            return self + (-other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            m = self._common(other)
            out = [0] * (m + 1)
            for i in range(m + 1):
                a = self.coeffs[i]
                if a != 0:
                    for j in range(m + 1 - i):
                        b = other.coeffs[j]
                        if b != 0:
                            out[i + j] = out[i + j] + a * b
            return TruncSeries(out, m, self.center)
        return TruncSeries([c * other for c in self.coeffs], self.order, self.center)

    def __rmul__(self, other):
        return TruncSeries([other * c for c in self.coeffs], self.order, self.center)

    def __truediv__(self, other):
        if isinstance(other, TruncSeries):
            m = self._common(other)
            b0 = other.coeffs[0]
            if b0 == 0:
                raise ZeroDivisionError("division by series with zero constant term")
            out = []
            for n in range(m + 1):
                acc = self.coeffs[n]
                for k in range(n):
                    if out[k] != 0 and other.coeffs[n - k] != 0:
                        acc = acc - out[k] * other.coeffs[n - k]
                out.append(acc / b0)
            return TruncSeries(out, m, self.center)
        return TruncSeries([c / other for c in self.coeffs], self.order, self.center)

    def power(self, k: int) -> "TruncSeries":
        out = TruncSeries([1], self.order, self.center)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def shift_mul(self, j: int) -> "TruncSeries":
        """Multiply by x**j (truncating at the same order)."""
        return TruncSeries([0] * j + list(self.coeffs), self.order, self.center)

    def differentiate(self) -> "TruncSeries":
        if self.order == 0:
            return TruncSeries([0], 0, self.center)
        return TruncSeries(
            [i * self.coeffs[i] for i in range(1, self.order + 1)], self.order - 1, self.center
        )

    def integrate(self, constant=0) -> "TruncSeries":
        """Termwise antiderivative; the result order is one higher, since an
        order-M truncation determines the integral to order M+1."""
        out = [constant]
        for i in range(self.order + 1):
            c = self.coeffs[i]
            out.append(c * Fraction(1, i + 1) if isinstance(c, (int, Fraction)) else c / (i + 1))
        return TruncSeries(out, self.order + 1, self.center)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def map(self, fn) -> "TruncSeries":
        return TruncSeries([fn(c) for c in self.coeffs], self.order, self.center)

    def truncate(self, order: int) -> "TruncSeries":
        return TruncSeries(self.coeffs[: order + 1], min(order, self.order), self.center)

    def __repr__(self):
        return "TruncSeries(%s, order=%d, center=%d)" % (list(self.coeffs), self.order, self.center)


def compose(outer: TruncSeries, inner: TruncSeries) -> TruncSeries:
    """Taylor coefficients of outer(inner(x)) to the common order.

    Requires ``inner`` to have zero constant term, so the composition is
    well defined at the truncation level.
    """
    if inner.coeffs[0] != 0:
        raise ValueError("inner series must have zero constant term")
    m = min(outer.order, inner.order)
    inner = inner.truncate(m)
    acc = TruncSeries([outer.coeffs[min(m, outer.order)]], m, inner.center)
    for k in range(m - 1, -1, -1):
        acc = acc * inner + outer.coeffs[k]
    return acc


def log_factor_base(order: int) -> TruncSeries:
    """(-ln z)/(1-z) as a series in w = z-1: sum (-1)^n w^n / (n+1).  Exact."""
    return TruncSeries(
        [Fraction((-1) ** n, n + 1) for n in range(order + 1)], order, center=1
    )


def series_pow_log_factor(nu: int, order: int) -> TruncSeries:
    """((-ln z)/(1-z))**nu expanded in powers of w = z - 1, exact rationals.

    The base is log(1+w)/w, and log(1+w)^nu/nu! = sum_n s(n, nu) w^n/n!
    with s the signed Stirling numbers of the first kind, so the w^k
    coefficient is nu! s(k+nu, nu)/(k+nu)!.  The numbers come from the row
    recurrence s(n+1, j) = s(n, j-1) - n s(n, j), kept to columns j <= nu.
    """
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    if nu == 0:
        return TruncSeries([Fraction(1)], order, center=1)
    row = [1] + [0] * nu  # s(n, 0..nu), from n = 0
    scale, n_fact, out = factorial(nu), 1, []
    for n in range(nu + order + 1):
        if n >= nu:
            out.append(Fraction(scale * row[nu], n_fact))
        row = [(row[j - 1] if j else 0) - n * row[j] for j in range(nu + 1)]
        n_fact *= n + 1
    return TruncSeries(out, order, center=1)


class RationalFn:
    """Quotient of polynomials over the rationals, normalized to lowest terms
    with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, normalize: bool = True):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if normalize:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = poly_divmod(num, g)[0]
                den = poly_divmod(den, g)[0]
            lead = den.leading
            if lead != 1:
                num = num.map(lambda c: c / lead)
                den = den.map(lambda c: c / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFn is immutable")

    def __eq__(self, other):
        if isinstance(other, RationalFn):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def __add__(self, other):
        if isinstance(other, RationalFn):
            return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)
        return RationalFn(self.num + self.den * other, self.den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, RationalFn) else -1 * other)

    def __neg__(self):
        return RationalFn(-self.num, self.den, normalize=False)

    def __mul__(self, other):
        if isinstance(other, RationalFn):
            return RationalFn(self.num * other.num, self.den * other.den)
        return RationalFn(self.num * other, self.den)

    def __repr__(self):
        return "RationalFn(%r, %r)" % (self.num, self.den)


def poly_divmod(a: Poly, b: Poly):
    """Polynomial division with remainder over a field."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a.coeffs)
    q = [0] * max(1, len(r) - b.degree)
    blead = b.leading
    while len(r) - 1 >= b.degree and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < b.degree:
            break
        shift = len(r) - 1 - b.degree
        c = r[-1] / blead
        q[shift] = c
        for i, bc in enumerate(b.coeffs):
            r[shift + i] = r[shift + i] - c * bc
        r.pop()
    return Poly(q), Poly(r)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals (Euclid)."""
    x, y = a, b
    while not y.is_zero():
        x, y = y, poly_divmod(x, y)[1]
    if x.is_zero():
        return Poly([1])
    lead = x.leading
    return x.map(lambda c: c / lead)


def poly_invmod(a: Poly, modulus: Poly) -> Poly:
    """Inverse of a modulo ``modulus`` over a field (extended Euclid);
    ZeroDivisionError when they share a factor."""
    r0, r1 = modulus, poly_divmod(a, modulus)[1]
    s0, s1 = Poly(), Poly([1])
    while not r1.is_zero():
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.degree != 0:
        raise ZeroDivisionError("polynomials share a factor")
    return s0.map(lambda c: c / r0.coeffs[0])
