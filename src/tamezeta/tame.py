"""Generating-series descriptors, Laurent data at z=1, multi-power expansions.

A descriptor is a symbolic recipe for a generating series alpha(z) =
sum a_{n+1} z^n that is holomorphic in the unit disk with at most a pole at
z=1.  This module extracts the Laurent data at z=1, locates the other
singularities, and chooses integer exponents that push each singularity out
of the relevant polydisk.  The product-form multi-power expansion of
(-ln z)^nu * alpha(z) used by the difference-operator evaluator is
assembled in one place from alpha's Mittag-Leffler decomposition: a regular
part, the principal part at z=1, and the principal parts at the other
poles, each pushed out by its exponent.  Each family supplies only that
data, and the Laurent data of the non-rational families is read from it.

Rational data is expanded at z=1 and at each other pole by one routine,
over the pole's own scalars.  The roots of the denominator's non-cyclotomic
part come from ``mpmath.polyroots``; an irrational one carries mpc data and
makes the expansion "approx".

Scalar policy: rational data stays exact (Fraction, or CycloNum for roots
of unity); everything else is mpmath at an explicit precision, and callers
are expected to wrap floating computations in ``mp.workprec``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

import mpmath
from mpmath import mp

from .cyclotomic import CycloNum, cyclotomic_poly, zeta_power
from .scalar import as_mpc, as_mpf, binomial
from .series import (
    Poly,
    RationalFn,
    TruncSeries,
    poly_divmod,
    poly_gcd,
    recenter,
    series_pow_log_factor,
)

__all__ = [
    "NotTameError",
    "RationalDescriptor",
    "CharacterDescriptor",
    "LerchDescriptor",
    "BarnesDescriptor",
    "EhrhartDescriptor",
    "BuiltinDescriptor",
    "LaurentAtOne",
    "Singularity",
    "SingularityPlan",
    "MPTerm",
    "MultiPowerExpansion",
    "coeffs",
    "alpha_evaluator",
    "laurent_at_one",
    "plan_exponents",
    "build_multipower",
    "build_shifted_multipower",
    "shifted_rational",
    "as_rational_fn",
    "DEFAULT_MARGIN",
]

DEFAULT_MARGIN = Fraction(1, 20)

BUILTIN_NAMES = ("central-binomial", "zeta-even")


class NotTameError(ValueError):
    """The descriptor does not represent a tame generating series."""


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalDescriptor:
    """alpha(z) = num(z)/den(z) with rational coefficients (ascending).

    The character, Barnes and Ehrhart families are rational functions with a
    cyclotomic denominator, and their constructors below build this."""

    num: tuple
    den: tuple

    def __post_init__(self):
        object.__setattr__(self, "num", tuple(Fraction(c) for c in self.num))
        object.__setattr__(self, "den", tuple(Fraction(c) for c in self.den))
        if not any(c != 0 for c in self.den):
            raise ValueError("zero denominator")


@dataclass(frozen=True)
class LerchDescriptor:
    """alpha(z) = 1/(1 - w z), |w| <= 1."""

    w: object
    # an exact w gives exact data and an equal mpf/mpc w approximate data, so
    # the two must compare unequal for the caches keyed on the descriptor
    exact: bool = field(init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.w, float):
            object.__setattr__(self, "w", Fraction(self.w))
        object.__setattr__(self, "exact", isinstance(self.w, (int, Fraction)))


def _one_minus_powers(ks) -> Poly:
    """prod_k (1 - z^k) over the exponents ks, repeats included."""
    out = Poly([Fraction(1)])
    for k in ks:
        out = out * Poly([Fraction(1)] + [Fraction(0)] * (k - 1) + [Fraction(-1)])
    return out


def CharacterDescriptor(modulus: int, values, power: int = 1) -> RationalDescriptor:
    """alpha(z) = (sum_i chi(i) z^(i-1)) / (1 - z^k)^q for a mod-k character."""
    if modulus < 1 or len(values) != modulus:
        raise ValueError("need chi(1..k) for modulus k")
    if power < 1:
        raise ValueError("power must be >= 1")
    if not all(isinstance(v, (int, float, Fraction)) for v in values):
        # complex-valued characters would need field coefficients in every
        # exact layer; only rational values are supported
        raise ValueError("character values must be rational")
    return RationalDescriptor(tuple(values), _one_minus_powers([modulus] * power).coeffs)


def BarnesDescriptor(a) -> RationalDescriptor:
    """alpha(z) = prod_i 1/(1 - z^(a_i)) for positive integers a_i."""
    a = tuple(int(x) for x in a)
    if not a or any(x < 1 for x in a):
        raise ValueError("a must be a nonempty tuple of positive integers")
    return RationalDescriptor((1,), _one_minus_powers(a).coeffs)


def EhrhartDescriptor(g, p: int, d: int) -> RationalDescriptor:
    """alpha(z) = (Ehr(z) - 1)/z with Ehr(z) = g(z)/(1 - z^p)^(d+1), g(0)=1."""
    g = tuple(Fraction(c) for c in g)
    if not g or g[0] != 1:
        raise ValueError("g must have constant term 1")
    if p < 1 or d < 0:
        raise ValueError("need p >= 1 and d >= 0")
    den = _one_minus_powers([p] * (d + 1))
    # Ehr - 1 over the common denominator has a zero constant term, as g(0) = 1
    return RationalDescriptor((Poly(g) - den).coeffs[1:], den.coeffs)


@dataclass(frozen=True)
class BuiltinDescriptor:
    """Named series with coefficient rule and closed-form alpha(e^u)."""

    name: str

    def __post_init__(self):
        if self.name not in BUILTIN_NAMES:
            raise ValueError("unknown builtin %r" % (self.name,))


# ---------------------------------------------------------------------------
# coefficient streams and rational reduction
# ---------------------------------------------------------------------------


def as_rational_fn(desc) -> RationalFn | None:
    """Exact rational form of the descriptor, when it has one."""
    if isinstance(desc, RationalDescriptor):
        return RationalFn(Poly(desc.num), Poly(desc.den))
    if isinstance(desc, LerchDescriptor) and desc.exact:
        return RationalFn(Poly([Fraction(1)]), Poly([Fraction(1), -Fraction(desc.w)]))
    return None


def coeffs(desc, count: int, prec: int | None = None) -> list:
    """First ``count`` Taylor coefficients a_1..a_count of alpha at 0.

    Exact for rational-style descriptors (linear recurrence from the
    denominator); builtins use their coefficient rule, the even-zeta one
    ``mpmath.zeta`` at ``prec`` bits.
    """
    p = prec if prec is not None else mp.prec
    cached = _coeffs_cached(desc, _pow2_at_least(count), p)
    return list(cached[:count])


def alpha_evaluator(desc, prec: int):
    """alpha(z) at a scalar z with 0 < |z| < 1, from its closed form.

    Horner num/den for every descriptor with a rational form, 1/(1 - w z)
    for Lerch at an inexact w, and for central-binomial the arcsine form
    1/(4-z) + 4 arcsin(sqrt(z)/2)/(sqrt(z) (4-z)^(3/2)), whose series at
    z=1 is :func:`_central_binomial_at_one`.  Returns a function of z
    evaluating at ``prec`` bits.
    """
    rf = as_rational_fn(desc)
    if rf is not None:
        num = [as_mpf(c, prec) for c in reversed(rf.num.coeffs)]
        den = [as_mpf(c, prec) for c in reversed(rf.den.coeffs)]

        def alpha(z):
            with mp.workprec(prec):
                return mpmath.polyval(num, z) / mpmath.polyval(den, z)

        return alpha
    if isinstance(desc, LerchDescriptor):
        w = as_mpc(desc.w, prec)

        def alpha(z):
            with mp.workprec(prec):
                return 1 / (1 - w * z)

        return alpha
    if isinstance(desc, BuiltinDescriptor) and desc.name == "central-binomial":

        def alpha(z):
            with mp.workprec(prec):
                r = mpmath.sqrt(z)
                four_minus = 4 - z
                return (1 + 4 * mpmath.asin(r / 2) / (r * mpmath.sqrt(four_minus))) / four_minus

        return alpha
    raise TypeError("no closed form for alpha of %r" % (desc,))


def _pow2_at_least(count: int) -> int:
    n = 64
    while n < count:
        n *= 2
    return n


@lru_cache(maxsize=256)
def _coeffs_cached(desc, count: int, prec: int) -> tuple:
    return tuple(_coeffs_impl(desc, count, prec))


def _coeffs_impl(desc, count: int, prec: int | None = None) -> list:
    rf = as_rational_fn(desc)
    if rf is not None:
        den = rf.den.coeffs
        if not den or den[0] == 0:
            raise NotTameError("singular at z = 0")
        num = rf.num.coeffs
        out = []
        for n in range(count):
            acc = num[n] if n < len(num) else Fraction(0)
            for j in range(1, min(n, len(den) - 1) + 1):
                if den[j] != 0:
                    acc = acc - den[j] * out[n - j]
            out.append(acc / den[0])
        return out
    if isinstance(desc, LerchDescriptor):
        p = prec if prec is not None else mp.prec
        with mp.workprec(p):
            w = as_mpc(desc.w, p)
            out, cur = [], mpmath.mpc(1)
            for _ in range(count):
                out.append(cur)
                cur = cur * w
            return out
    if isinstance(desc, BuiltinDescriptor):
        if desc.name == "central-binomial":
            return [Fraction(1, binomial(2 * n + 2, n + 1)) for n in range(count)]
        # a_(n+1) = zeta(n+1) at even n+1, else 0
        with mp.workprec(prec if prec is not None else mp.prec):
            return [mpmath.zeta(n + 1) if n % 2 else mpmath.mpf(0) for n in range(count)]
    raise TypeError("unknown descriptor %r" % (desc,))


# ---------------------------------------------------------------------------
# Laurent data at z = 1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentAtOne:
    """Pole order nu, principal coefficients k_1..k_nu, and regular data.

    ``phis[m]`` is the m-th derivative of the regular part at z=1 (that is,
    m! times the Taylor coefficient), matching the exponential generating
    conventions of the Todd series.  ``kind`` is "exact" or "approx".
    """

    nu: int
    ks: tuple
    phis: tuple
    kind: str = "exact"

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError("nu must be nonnegative")
        if len(self.ks) != self.nu:
            raise ValueError("need exactly nu principal coefficients")
        if self.nu > 0 and self.ks[-1] == 0:
            raise ValueError("k_nu must be nonzero")

    def principal_only(self, order: int | None = None) -> "LaurentAtOne":
        n = order if order is not None else len(self.phis) - 1
        return LaurentAtOne(self.nu, self.ks, tuple([Fraction(0)] * (n + 1)), self.kind)


def _laurent_of_rational(rf: RationalFn, q, order: int, mult: int | None = None):
    """Laurent expansion of rf at z = q over the scalars of q (Fraction,
    CycloNum or mpc): (nu, (c_1..c_nu), [r_0..r_order]) with
    rf(z) = sum_r c_r (z-q)^(-r) + sum_m r_m (z-q)^m, order >= -1.

    The numerator and denominator are recentered at q and their series
    divided.  At an exact q the orders of their zeros are read off the exact
    coefficients, and the denominator's must equal ``mult`` when given.  At
    an inexact q the denominator's low coefficients are rounding, not zeros:
    its order is ``mult``, the squarefree multiplicity, and the numerator,
    rf being in lowest terms, does not vanish there.
    """
    num = recenter(_lift(rf.num, q), q).coeffs
    den = recenter(_lift(rf.den, q), q).coeffs
    zero = _one_like(q) * 0
    if isinstance(q, (mpmath.mpf, mpmath.mpc)):
        val_n, val_d = 0, mult
    else:
        val_n = next((i for i, c in enumerate(num) if c != 0), None)
        val_d = next(i for i, c in enumerate(den) if c != 0)
        if mult is not None and val_d != mult:
            raise AssertionError("pole multiplicity mismatch in partial fractions")
        if val_n is None:
            return 0, (), [zero] * (order + 1)
    pole = val_d - val_n  # negative for a zero of rf at q
    nu = max(0, pole)
    m = max(0, order + nu)
    h = TruncSeries(num[val_n:], m) / TruncSeries(den[val_d:], m)  # rf = (z-q)^(-pole) h
    lau = [zero] * max(0, -pole) + list(h.coeffs[max(0, pole) :])
    return nu, tuple(h.coeffs[pole - r] for r in range(1, nu + 1)), lau[: order + 1]


def _central_binomial_at_one(order: int) -> TruncSeries:
    """alpha(1+w) to w^order for the central-binomial series, at the
    working precision.

    With q = z(4-z) = (1+w)(3-w) = 3 + 2w - w^2, the closed form
    alpha(z) = 1/(4-z) + 4 arcsin(sqrt(z)/2)/(sqrt(z) (4-z)^(3/2)) reads
    (1 + 4 A y)/(3-w), with y = q^(-1/2) and
    A = arcsin(sqrt(z)/2) = pi/6 + int y/2.  y solves q y' = -(1/2) q' y, a
    first order equation whose coefficients obey Miller's power recurrence
    (Knuth, TAOCP 4.7) 3n y_n = (1-2n) y_(n-1) + (n-1) y_(n-2); the division
    by 3-w is 3 alpha_n = S_n + alpha_(n-1) for S = 1 + 4 A y.
    """
    y = [1 / mpmath.sqrt(3)]
    for n in range(1, order + 1):
        y.append(((1 - 2 * n) * y[-1] + (n - 1) * (y[-2] if n > 1 else 0)) / (3 * n))
    arcsin = TruncSeries([mpmath.pi / 6] + [c / (2 * n + 2) for n, c in enumerate(y[:-1])], order, center=1)
    out = []
    for c in (1 + 4 * arcsin * TruncSeries(y, order, center=1)).coeffs:
        out.append((c + (out[-1] if out else 0)) / 3)
    return TruncSeries(out, order, center=1)


def laurent_at_one(desc, order: int, prec: int | None = None) -> LaurentAtOne:
    """Laurent data of alpha at z=1: nu, k_1..k_nu, phi_0..phi_order.

    Exact for rational descriptors over the rationals.  Builtins and
    non-rational Lerch factors produce floating data at ``prec`` bits, read
    from their Mittag-Leffler decomposition: phi_m is m! times the w^m
    coefficient, w = z - 1, of the regular part plus the principal parts at
    the other poles.  Raises :class:`NotTameError` when alpha has a
    singularity in the open unit disk or on (0, 1].
    """
    p = prec if prec is not None else mp.prec
    sings = singularities(desc, p)  # tameness screen
    rf = as_rational_fn(desc)
    if rf is not None:
        nu, ks, reg = _laurent_of_rational(rf, Fraction(1), order)
        return LaurentAtOne(nu, ks, tuple(x * factorial(m) for m, x in enumerate(reg)))
    with mp.workprec(p):
        nu, ks, regular, poles = _mittag_leffler(desc, 0, sings, 1, order)
        reg = list(regular[: order + 1]) + [mpmath.mpf(0)] * (order + 1 - len(regular))
        for q, _e, cs in poles:
            for r, c in enumerate(cs, 1):
                # c/(z-q)^r at z = 1 + w
                part = _inverse_power_series(q, r, order, _one_like(q))
                reg = [x + c * y for x, y in zip(reg, part.coeffs)]
        return LaurentAtOne(nu, ks, tuple(x * factorial(m) for m, x in enumerate(reg)), "approx")


# ---------------------------------------------------------------------------
# singularities and exponent planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Singularity:
    """One singularity of alpha away from z=1."""

    value: object  # Fraction | CycloNum | mpc
    multiplicity: int
    exact: bool
    root_of_unity: tuple | None = None  # (j, d) when value = zeta_d^j
    e: int = 1  # exponent assigned by the plan


@dataclass(frozen=True)
class SingularityPlan:
    singularities: tuple
    field_order: int = 1  # lcm of root-of-unity orders involved (1 = plain Q)


def _cyclotomic_factor_split(den: Poly):
    """Split den into cyclotomic part {d: multiplicity} and the rest."""
    orders = {}
    rest = den
    deg = den.degree
    bound = 2 * deg * deg + 4
    d = 1
    while d <= bound and rest.degree > 0:
        phi = Poly(cyclotomic_poly(d))
        if phi.degree <= rest.degree:
            q, r = poly_divmod(rest, phi)
            while r.is_zero():
                orders[d] = orders.get(d, 0) + 1
                rest = q
                if rest.degree < phi.degree:
                    break
                q, r = poly_divmod(rest, phi)
        d += 1
    return orders, rest


def _squarefree_decomposition(f: Poly):
    """Yun's algorithm: list of (square-free factor, multiplicity)."""
    out = []
    fp = f.derivative()
    a = poly_gcd(f, fp)
    b = poly_divmod(f, a)[0]
    c = poly_divmod(fp, a)[0]
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        g = poly_gcd(b, d)
        if g.degree > 0:
            out.append((g, i))
        b = poly_divmod(b, g)[0]
        c = poly_divmod(d, g)[0]
        d = c - b.derivative()
        i += 1
    return out


def _rational_snap(f: Poly, roots: list, prec: int):
    """Detect exact rational roots among numeric ones; return (exact, numeric)."""
    exact = []
    remaining = f
    numeric = []
    for r in roots:
        if abs(r.imag) < mpmath.mpf(2) ** (-prec // 2):
            cand = Fraction(float(r.real)).limit_denominator(10**6)
            test = Poly([-cand, Fraction(1)])
            q, rem = poly_divmod(remaining, test)
            if rem.is_zero():
                exact.append(cand)
                remaining = q
                continue
        numeric.append(r)
    return exact, numeric


def singularities(desc, prec: int | None = None) -> tuple:
    """Singularities of alpha other than z=1, with tameness screening.

    Computed once per (descriptor, precision); every layer that needs them
    (the tameness screen, the exponent plan, the coefficient model, the
    incomplete-gamma radius) reads this one tuple."""
    return _singularities(desc, prec if prec is not None else mp.prec)


@lru_cache(maxsize=64)
def _singularities(desc, p: int) -> tuple:
    rf = as_rational_fn(desc)
    if rf is not None:
        return tuple(_rational_singularities(rf, p))
    if isinstance(desc, LerchDescriptor):
        with mp.workprec(p):
            w = as_mpc(desc.w, p)
            if w == 0:
                return ()
            if abs(w) > 1 + mpmath.mpf(2) ** (-p // 2):
                raise NotTameError("Lerch factor needs |w| <= 1")
            if w == 1:
                return ()
            q = 1 / w
            return (Singularity(value=q, multiplicity=1, exact=False),)
    if isinstance(desc, BuiltinDescriptor):
        if desc.name == "central-binomial":
            return (Singularity(value=Fraction(4), multiplicity=1, exact=True),)
        # even-zeta: poles at every nonzero integer; only z=2 sits inside the
        # unit polydisk margin, the rest stay at distance >= 2 from z=1.
        return (Singularity(value=Fraction(2), multiplicity=1, exact=True),)
    raise TypeError("unknown descriptor %r" % (desc,))


def _rational_singularities(rf: RationalFn, prec: int) -> list:
    den = rf.den
    if den.coefficient(0) == 0:
        raise NotTameError("pole at z = 0")
    orders, rest = _cyclotomic_factor_split(den)
    out = []
    for d, mult in sorted(orders.items()):
        if d == 1:
            continue  # pole at z=1 handled by the Laurent data
        for j in range(1, d):
            if gcd(j, d) == 1:
                out.append(
                    Singularity(
                        value=zeta_power(d, j), multiplicity=mult, exact=True, root_of_unity=(j, d)
                    )
                )
    if rest.degree > 0:
        for factor, mult in _squarefree_decomposition(rest):
            if factor.degree == 0:
                continue
            with mp.workprec(2 * prec + 32):
                try:
                    roots = mpmath.polyroots([as_mpf(c) for c in reversed(factor.coeffs)], maxsteps=200)
                except mp.NoConvergence as exc:
                    raise NotTameError("cannot locate the singularities of alpha: %s" % exc) from exc
            exact, numeric = _rational_snap(factor, roots, prec)
            for q in exact:
                _screen_singularity(as_mpc(q, prec), prec, exact=True)
                out.append(Singularity(value=q, multiplicity=mult, exact=True))
            for r in numeric:
                _screen_singularity(r, prec, exact=False)
                out.append(Singularity(value=_round_mpc(r, prec), multiplicity=mult, exact=False))
    return out


def _round_mpc(z, prec):
    with mp.workprec(prec):
        return +mpmath.mpc(z)


def _screen_singularity(q, prec: int, exact: bool):
    with mp.workprec(prec):
        q = mpmath.mpc(q)
        tol = mpmath.mpf(2) ** (-prec // 2)
        if abs(q - 1) <= tol:
            raise NotTameError("denominator root collides with z = 1")
        if abs(q) < 1 - tol:
            raise NotTameError("singularity at %s inside the unit disk" % mpmath.nstr(q))
        if abs(q) < 1 + tol and not exact:
            raise NotTameError(
                "cannot certify unit-circle singularity %s away from roots of unity"
                % mpmath.nstr(q)
            )
        if abs(q.imag) <= tol and 0 < q.real <= 1 + tol:
            raise NotTameError("singularity at %s on (0, 1]" % mpmath.nstr(q))


def _abs_one_minus_qe(sing: Singularity, e: int, prec: int):
    with mp.workprec(prec):
        if sing.root_of_unity is not None:
            j, d = sing.root_of_unity
            theta = mpmath.pi * mpmath.mpf(e * j % d) / d
            return 2 * abs(mpmath.sin(theta))
        q = as_mpc(sing.value, prec)
        return abs(1 - q**e)


def plan_exponents(desc, prec: int | None = None) -> SingularityPlan:
    """Choose the minimal exponent e_i per singularity with |1 - q^e| >= 1+delta,
    delta = DEFAULT_MARGIN.

    The per-variable expansions around 1 then have convergence radius at
    least 1+delta, so evaluation anywhere on (0,1] (and the associated
    operator series bookkeeping) sees geometric per-variable tails.
    """
    p = prec if prec is not None else mp.prec
    sings = singularities(desc, p)
    threshold = 1 + DEFAULT_MARGIN
    planned = []
    field_order = 1
    for s in sings:
        e = None
        for cand in range(1, 1_000_001):
            val = _abs_one_minus_qe(s, cand, max(p, 64))
            if val >= as_mpf(threshold, max(p, 64)):
                e = cand
                break
        if e is None:
            raise NotTameError("no admissible exponent for singularity %r" % (s,))
        planned.append(Singularity(s.value, s.multiplicity, s.exact, s.root_of_unity, e))
        if s.root_of_unity is not None:
            field_order = field_order * s.root_of_unity[1] // gcd(field_order, s.root_of_unity[1])
    return SingularityPlan(tuple(planned), field_order)


# ---------------------------------------------------------------------------
# multi-power expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MPTerm:
    """One product term: coeff * prod_j (series in (z^(e_j) - 1))."""

    coeff: object
    factors: tuple  # tuple of (e, TruncSeries with center=1)


@dataclass(frozen=True, eq=False)
class MultiPowerExpansion:
    """Product-form expansion; compared and hashed by identity, since the
    numeric caches key on it and its series terms are unhashable."""

    nu: int
    terms: tuple
    order: int
    kind: str = "exact"


def _inverse_power_series(a, r: int, order: int, one_scalar) -> TruncSeries:
    """(w + (1-a))^(-r) as a series in w: requires |1-a| > 1 territory.

    Coefficients: (-1)^j C(r-1+j, j) (1-a)^(-r-j), exact over a field.
    """
    base = one_scalar / (1 - a) if not isinstance(a, CycloNum) else (1 - a).inverse()
    out = []
    cur = base**r
    for j in range(order + 1):
        out.append(((-1) ** j * binomial(r - 1 + j, j)) * cur)
        cur = cur * base
    return TruncSeries(out, order, center=1)


def _pole_value_in_field(sing: Singularity, field_order: int, prec: int):
    """Pole location as an exact field element or mpc."""
    if sing.root_of_unity is not None:
        j, d = sing.root_of_unity
        value = zeta_power(field_order, j * (field_order // d))
        if value.is_rational():
            return value.to_fraction()
        return value
    if sing.exact:
        return Fraction(sing.value)
    return as_mpc(sing.value, prec)


def _one_like(x):
    if isinstance(x, CycloNum):
        return CycloNum.from_rational(x.n, 1)
    if isinstance(x, Fraction):
        return Fraction(1)
    return x * 0 + 1


def _k_factor_poly(q, e: int):
    """k_q(z) = (z^e - q^e)/(z - q) = sum_{i<e} q^(e-1-i) z^i."""
    one = _one_like(q)
    powers = [one]
    for _ in range(e - 1):
        powers.append(powers[-1] * q)
    return Poly([powers[e - 1 - i] for i in range(e)])


def build_multipower(desc, *, order: int = 64, prec: int | None = None) -> MultiPowerExpansion:
    """Product-form multi-power expansion of (-ln z)^nu * alpha(z) around 1.

    Rational descriptors produce exact coefficients (cyclotomic ones over
    Q(zeta)); builtins, non-rational Lerch factors and rational data with an
    irrational pole produce floating data.
    """
    return build_shifted_multipower(desc, 0, order=order, prec=prec)


def shifted_rational(rf: RationalFn, head: list, m: int) -> RationalFn:
    """(alpha - head)/z^m as an exact rational function; head = a_1..a_m."""
    if m == 0:
        return rf
    head_poly = Poly(head)
    num = rf.num - head_poly * rf.den
    cs = list(num.coeffs)
    if any(c != 0 for c in cs[:m]):
        raise AssertionError("head does not match the coefficient stream")
    return RationalFn(Poly(cs[m:]), rf.den)


def build_shifted_multipower(
    desc,
    shift: int,
    *,
    order: int = 64,
    prec: int | None = None,
) -> MultiPowerExpansion:
    """Multi-power expansion of (-ln z)^nu * alpha_shift(z), where
    alpha_shift = (alpha - first shift coefficients)/z^shift.

    The index shift preserves the denominator (hence the singularity plan
    and nu) while moving the evaluation argument of the associated
    difference series from t to t+shift, which is what makes the operator
    route fast at small t.  Every family is assembled by
    :func:`_assemble` from the Mittag-Leffler data of alpha_shift at z=1.
    """
    p = prec if prec is not None else mp.prec
    plan = plan_exponents(desc, prec=p)
    with mp.workprec(p):
        nu, ks, regular, poles = _mittag_leffler(desc, shift, plan.singularities, plan.field_order, order)
        return _assemble(nu, ks, regular, poles, order)


def _mittag_leffler(desc, shift: int, sings: tuple, field_order: int, order: int):
    """Mittag-Leffler data at z=1 of alpha_shift = (alpha - a_1..a_shift)/z^shift.

    Returns (nu, ks, regular, poles): the pole order nu and the principal
    coefficients k_1..k_nu at z=1; the regular part as coefficients in
    w = z-1, which is the polynomial part for rational data and a series to
    order + nu otherwise; and (q, e, [c_1..c_mult]) for each singularity
    of ``sings`` with a principal part sum_r c_r/(z-q)^r, e its planned
    exponent.  Rational data stays exact over its field (mpc for a root
    that is not); the other families are mpmath at the ambient precision,
    central-binomial's regular part from the closed-form series of
    :func:`_central_binomial_at_one`.
    """
    qs = [_pole_value_in_field(sing, field_order, mp.prec) for sing in sings]
    rf = as_rational_fn(desc)
    if rf is not None:
        if shift:
            rf = shifted_rational(rf, coeffs(desc, shift), shift)
        poles = [(q, s.e, _laurent_of_rational(rf, q, -1, s.multiplicity)[1]) for q, s in zip(qs, sings)]
        nu, ks, _ = _laurent_of_rational(rf, Fraction(1), -1)
        g = poly_divmod(rf.num, rf.den)[0]
        return nu, ks, list(recenter(g, Fraction(1)).coeffs), poles
    if isinstance(desc, LerchDescriptor):
        # w^shift/(1 - w z): residue -q w^shift at q = 1/w, the pole at 1 when w = 1
        w = as_mpc(desc.w)
        if w == 1:
            return 1, (mpmath.mpf(-1),), [], []
        scale = w**shift
        return 0, (), [scale] if w == 0 else [], [(q, s.e, [-q * scale]) for q, s in zip(qs, sings)]
    if isinstance(desc, BuiltinDescriptor):
        head = coeffs(desc, shift) if shift else []
        if desc.name == "central-binomial":
            # holomorphic at 1, and its singularity at 4 is a branch point:
            # the regular part is all of alpha_shift
            reg = _central_binomial_at_one(order)
            if shift:
                reg = _shift_series_at_one(reg, head, order)
            return 0, (), list(reg.coeffs), []
        return _zeta_even_data(desc, shift, head, sings, order)
    raise TypeError("unknown descriptor %r" % (desc,))


def _zeta_even_data(desc, shift: int, head: list, sings: tuple, order: int):
    """Mittag-Leffler data of the shifted even-zeta series.

    alpha(z) = k1/(z-1) + c2/(z-2) + g(z) with k1 = c2 = -1/2 and
    g(1+w) = sum_n (zeta(2n)-1) w^(2n-1), holomorphic for |w| < 2; the
    singularity analysis lists z=2, the only other pole the unit polydisk
    margin reaches.  The shift keeps k1 and turns c2 into c2/2^shift.
    """
    half = -mpmath.mpf(1) / 2  # k1 = c2
    n = order + 1
    # a_(j+1) = zeta(j+1) at odd j, the coefficient stream at the ambient bits
    stream = coeffs(desc, n + 1, prec=mp.prec)
    g = [mpmath.mpf(0)] * (n + 1)
    for j in range(1, n + 1, 2):
        g[j] = stream[j] - 1
    reg = TruncSeries(g, n, center=1)
    if shift:
        # regular part of (alpha - head)/z^shift at 1+w: k1 (1+w)^(-shift)/w
        # leaves k1 ((1+w)^(-shift) - 1)/w, c2 (1+w)^(-shift)/(w-1) leaves
        # itself less c2 2^(-shift)/(w-1)
        minv = _inverse_power_series(mpmath.mpf(0), shift, n + 1, mpmath.mpf(1))
        pole2 = _inverse_power_series(mpmath.mpf(2), 1, n, mpmath.mpf(1)) * half
        reg = (
            _shift_series_at_one(reg + pole2, head, n)
            + TruncSeries(minv.coeffs[1:], n, center=1) * half
            - pole2 * mpmath.mpf(2) ** -shift
        )
    poles = [(as_mpf(s.value), s.e, [half / 2**shift]) for s in sings]
    return 1, (half,), list(reg.coeffs), poles


def _assemble(nu: int, ks: tuple, regular: list, poles: list, order: int) -> MultiPowerExpansion:
    """Product-form expansion of (-ln z)^nu alpha(z) from its Mittag-Leffler
    data at z=1 (see :func:`_mittag_leffler`).

    With w = z-1 and L = (-ln z)/(1-z), (-ln z)^nu = (-1)^nu w^nu L^nu, so
    the regular part R gives (-1)^nu w^nu L^nu R, the principal part
    sum_r k_r w^(-r) gives (-1)^nu L^nu sum_r k_r w^(nu-r), and each
    c/(z-q)^r is pushed out by its exponent e through
    k_q(z) = (z^e - q^e)/(z-q): (-1)^nu c w^nu L^nu k_q^r (z^e - q^e)^(-r),
    whose last factor is a series in z^e - 1 of radius |1 - q^e|.  Every
    scalar keeps its kind (Fraction, CycloNum or mpmath); the expansion is
    exact when all of them are.
    """
    logfac = series_pow_log_factor(nu, order + nu)
    sign = Fraction((-1) ** nu)
    terms = []
    if regular:
        base = TruncSeries(regular, order + nu, center=1) * _lift(logfac, regular[0])
        terms.append(MPTerm(sign, ((1, base.shift_mul(nu).truncate(order)),)))
    if nu:
        base = TruncSeries(ks[::-1], order + nu, center=1) * _lift(logfac, ks[-1])
        terms.append(MPTerm(sign, ((1, base.truncate(order)),)))
    for q, e, cs in poles:
        one = _one_like(q)
        kpoly = _k_factor_poly(q, e)
        kpow = Poly([one])
        for r, c in enumerate(cs, 1):
            kpow = kpow * kpoly
            if c == 0:
                continue
            z1 = TruncSeries(recenter(kpow, one).coeffs, order + nu, center=1)
            if nu:
                z1 = (z1 * _lift(logfac, q)).shift_mul(nu)
            z1 = z1.truncate(order)
            inv = _inverse_power_series(q**e, r, order, one)
            factors = ((1, z1 * inv),) if e == 1 else ((1, z1), (e, inv))
            terms.append(MPTerm(c * sign, factors))
    scalars = [*ks, *regular, *(q for q, _e, _cs in poles)]
    exact = all(isinstance(x, (int, Fraction, CycloNum)) for x in scalars)
    return MultiPowerExpansion(nu, tuple(terms), order, "exact" if exact else "approx")


def _lift(p, sample):
    """``p``, a Poly or TruncSeries with rational coefficients, over the
    scalars of ``sample``: CycloNum for a CycloNum, the mpmath reals at the
    working precision for an mpf or mpc."""
    if isinstance(sample, CycloNum):
        return p.map(lambda c: c if isinstance(c, CycloNum) else CycloNum.from_rational(sample.n, c))
    if isinstance(sample, (mpmath.mpf, mpmath.mpc)):
        return p.map(as_mpf)
    return p


def _shift_series_at_one(alpha1: TruncSeries, head: list, order: int) -> TruncSeries:
    """(alpha(1+w) - head(1+w)) / (1+w)^shift as a series in w over its own
    scalars: per head coefficient a, (g - a)/(1+w) with c_n -= c_(n-1)."""
    c = list(alpha1.coeffs[: order + 1])
    for a in head:
        c[0] -= as_mpf(a)
        for n in range(1, len(c)):
            c[n] -= c[n - 1]
    return TruncSeries(c, len(c) - 1, center=1)
