"""Numerical evaluation of D(s,t) and its meromorphic continuation.

Four routes are provided and cross-checked by the test suite:

* :func:`direct_sum` -- the defining series, summed in ascending order with
  an exact quasi-polynomial/geometric split of the coefficient stream and
  Euler-Maclaurin completion of the quasi-polynomial tail classes (plain
  truncation cannot reach tight tolerances near the convergence abscissa);
* :func:`oracle_eval` -- exact reduction of cyclotomic-denominator series
  to a finite combination of Hurwitz zeta values (the classical oracle);
* :func:`hasse_eval` / :func:`continue_dirichlet` -- the globally
  convergent difference-operator series, evaluated through a shift
  accumulator.  ``continue_dirichlet`` first shifts the coefficient index
  by m (an exact head sum plus the same series at argument t+m), which
  turns the slow n^(-t) decay of the operator terms into n^(-t-m);
* :func:`incgamma_eval` -- the lower-incomplete-gamma split for pole-free
  series (head series in gamma-star values plus a Laplace tail integral).

Evaluation is absolute-error targeted at ``ctx.target_eps`` and runs at an
internally elevated precision: reorganizing difference operators into
shifts produces binomial-sized weights whose cancellation is paid for with
extra working bits, never with accuracy.  Summations are deterministic
(ascending shift order, truncations chosen from the arguments alone), so
results do not depend on scheduling.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

import mpmath
from mpmath import mp

from .bernoulli import bernoulli_number, diff_apply_poly
from .cyclotomic import CycloNum, cyclotomic_poly
from .scalar import ApproxContext, BigComplex, as_mpc, as_mpf, binomial
from .series import Poly, RationalFn, poly_divmod, recenter
from .tame import (
    DEFAULT_MARGIN,
    BuiltinDescriptor,
    LerchDescriptor,
    MultiPowerExpansion,
    NotTameError,
    as_rational_fn,
    build_shifted_multipower,
    coeffs,
    laurent_at_one,
    plan_exponents,
)

__all__ = [
    "EvalResult",
    "NumericalEvalError",
    "RegionError",
    "NearPoleError",
    "SlowConvergenceError",
    "gamma_complex",
    "recip_gamma",
    "lower_gamma_star",
    "hurwitz_oracle",
    "direct_sum",
    "oracle_eval",
    "hasse_eval",
    "continue_dirichlet",
    "incgamma_eval",
    "shift_weights_exact",
]


class NumericalEvalError(ArithmeticError):
    pass


class RegionError(NumericalEvalError):
    """Argument outside the region the method is defined on."""


class NearPoleError(NumericalEvalError):
    def __init__(self, message, pole=None, residue=None):
        super().__init__(message)
        self.pole = pole
        self.residue = residue


class SlowConvergenceError(NumericalEvalError):
    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class EvalResult:
    value: BigComplex
    method: str
    truncation: int
    tail_bound: object
    flags: tuple = ()
    exact_value: object = None  # set when the evaluation terminated exactly

    def mpc(self) -> mpmath.mpc:
        return self.value.to_mpc()


def _eps_bits(ctx: ApproxContext) -> int:
    with mp.workprec(64):
        return int(-mpmath.log(mpmath.mpf(ctx.target_eps), 2)) + 1


def _result(value, method, truncation, tail, ctx, flags=(), exact=None) -> EvalResult:
    return EvalResult(
        BigComplex(value, prec=ctx.precision_bits),
        method,
        truncation,
        tail,
        tuple(flags),
        exact,
    )


# ---------------------------------------------------------------------------
# gamma machinery
# ---------------------------------------------------------------------------


def gamma_complex(s, prec: int | None = None) -> mpmath.mpc:
    """Gamma(s) by argument promotion plus the Stirling asymptotic series.

    The argument is promoted until its real part clears a precision-derived
    threshold, where the divergent series bottoms out far below the target
    accuracy."""
    p = prec if prec is not None else mp.prec
    work = p + 32
    with mp.workprec(work):
        z = as_mpc(s, work)
        if z.imag == 0 and z.real == mpmath.floor(z.real) and z.real <= 0:
            raise NearPoleError("Gamma pole at %s" % mpmath.nstr(z), pole=int(z.real))
        r0 = max(16, int(0.13 * (work + 48)) + 2)
        n = 0
        if z.real < r0:
            n = int(mpmath.ceil(r0 - z.real))
        zz = z + n
        acc = (zz - mpmath.mpf(1) / 2) * mpmath.log(zz) - zz + mpmath.log(2 * mpmath.pi) / 2
        zpow = zz
        z2 = zz * zz
        k = 1
        prev = mpmath.inf
        while k <= work:
            term = as_mpf(bernoulli_number(2 * k), work) / (2 * k * (2 * k - 1)) / zpow
            mag = abs(term)
            if mag < mpmath.mpf(2) ** (-work) * max(1, abs(acc)) or mag > prev:
                break
            acc += term
            prev = mag
            zpow *= z2
            k += 1
        g = mpmath.exp(acc)
        for j in range(n):
            g = g / (z + j)
        return g


def recip_gamma(s, prec: int | None = None) -> mpmath.mpc:
    """1/Gamma(s); zero at the poles of Gamma."""
    p = prec if prec is not None else mp.prec
    with mp.workprec(p + 32):
        z = as_mpc(s, p + 32)
        if z.imag == 0 and z.real == mpmath.floor(z.real) and z.real <= 0:
            return mpmath.mpc(0)
        n = 0
        if z.real < 1:
            n = int(mpmath.ceil(1 - z.real)) + 1
        out = 1 / gamma_complex(z + n, p + 32)
        for j in range(n):
            out = out * (z + j)
        return out


def lower_gamma_star(s, z, prec: int | None = None) -> mpmath.mpc:
    """gamma*(s,z) = e^(-z) sum_k z^k / Gamma(s+k+1); entire in s."""
    p = prec if prec is not None else mp.prec
    with mp.workprec(p + 32):
        sc = as_mpc(s, p + 32)
        zc = as_mpc(z, p + 32)
        acc = mpmath.mpc(0)
        term = recip_gamma(sc + 1, p + 32)
        k = 0
        floor = mpmath.mpf(2) ** (-(p + 16))
        kcap = 64 + 8 * int(abs(zc)) + p
        while k <= kcap:
            acc += term
            k += 1
            if sc + k == 0:
                term = (zc**k) * recip_gamma(sc + k + 1, p + 32)
            else:
                term = term * zc / (sc + k)
            if abs(term) < floor * max(1, abs(acc)) and k > 4 + int(abs(zc)):
                break
        return mpmath.exp(-zc) * acc


# ---------------------------------------------------------------------------
# Hurwitz zeta oracle (Euler-Maclaurin)
# ---------------------------------------------------------------------------


def hurwitz_oracle(s, t, ctx: ApproxContext) -> EvalResult:
    """zeta(s, t) for t > 0 by Euler-Maclaurin with exact Bernoulli numbers.

    Valid on the whole s-plane except near the pole: |s-1| < sqrt(eps)
    raises a near-pole error carrying the residue 1."""
    eps_b = _eps_bits(ctx)
    work = ctx.working_bits(eps_b)
    with mp.workprec(work):
        sc = as_mpc(s, work)
        tc = as_mpf(t, work)
        if tc <= 0:
            raise RegionError("t must be positive")
        eps = mpmath.mpf(ctx.target_eps)
        if abs(sc - 1) < mpmath.sqrt(eps):
            raise NearPoleError("s too close to the pole at 1", pole=1, residue=1)
        value, used, bound = _hurwitz_em(sc, tc, eps / 2, work, ctx.max_terms)
        return _result(value, "hurwitz-em", used, bound, ctx)


def _em_coeff(k, work):
    """B_2k / (2k)!"""
    return as_mpf(bernoulli_number(2 * k), work) / as_mpf(factorial(2 * k), work)


def _hurwitz_em(sc, tc, eps, work, max_terms):
    """Euler-Maclaurin core; returns (value, head length, remainder bound).

    Stops at the first order whose remainder bound is at most eps.  K caps
    the order and sets the head length; a cap too low is doubled."""
    K = max(10, int(0.18 * work) + 2)
    bound = None
    for _ in range(6):
        if 2 * K + 1 + sc.real <= 1:
            K = int(mpmath.ceil((1 - sc.real) / 2)) + K
            continue
        a_target = max(K * mpmath.mpf("0.75"), 8 + abs(sc.imag) / 2, tc)
        N = max(0, int(mpmath.ceil(a_target - tc)) + 1)
        if N > max_terms:
            raise SlowConvergenceError("Euler-Maclaurin head exceeds max_terms")
        head = mpmath.mpc(0)
        for n in range(N):
            head += (tc + n) ** (-sc)
        a = tc + N
        a_s = a ** (-sc)
        tail = a_s * (a / (sc - 1) + mpmath.mpf(1) / 2)
        rising = sc  # (s)_(2k-1), rising factorial
        apow = a_s / a  # a^(-s-2k+1)
        coeff = _em_coeff(1, work)
        for k in range(1, K + 1):
            tail += coeff * rising * apow
            rising = rising * (sc + 2 * k - 1) * (sc + 2 * k)
            apow = apow / (a * a)
            coeff = _em_coeff(k + 1, work)
            if sc.real + 2 * k + 1 > 1:
                # DLMF 2.10.1: the remainder after k orders is the integral of
                # (B_2k+2 - B~_2k+2(x))/(2k+2)! f^(2k+2), and
                # |B_2k+2 - B~_2k+2(x)| <= 2 |B_2k+2|
                slack = abs(sc + 2 * k + 1) / (sc.real + 2 * k + 1)
                bound = 2 * abs(coeff * rising * apow) * slack
                if bound <= eps:
                    return head + tail, N, bound
        K = 2 * K
    raise SlowConvergenceError("Euler-Maclaurin failed to reach tolerance", {"bound": bound})


# ---------------------------------------------------------------------------
# coefficient models for direct summation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CoeffModel:
    """a_{n+1} = per-class polynomials (period m) + exponentially small rest."""

    period: int
    class_polys: tuple
    rest_ratio: object  # certified bound < 1 for the rest part ratio, or None
    kind: str  # quasi | geometric | mixed | oscillatory


def _lagrange_fit(xs, ys):
    """Exact interpolating polynomial through (xs, ys), Newton form."""
    n = len(xs)
    coef = [Fraction(y) for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / Fraction(xs[i] - xs[i - j])
    poly = Poly([coef[-1]])
    for i in range(n - 2, -1, -1):
        poly = poly * Poly([-Fraction(xs[i]), Fraction(1)]) + Poly([coef[i]])
    return poly


def _fit_quasi_polynomial(desc, period, degree_bound):
    """Per-class polynomial fit of the exact coefficient stream, verified."""
    total = period * (degree_bound + 4)
    samples = coeffs(desc, total)
    polys = []
    for r in range(period):
        xs = [r + j * period for j in range(degree_bound + 1)]
        poly = _lagrange_fit(xs, [samples[x] for x in xs])
        for j in range(degree_bound + 1, degree_bound + 3):
            x = r + j * period
            if poly(Fraction(x)) != samples[x]:
                raise AssertionError("quasi-polynomial fit failed verification")
        polys.append(poly)
    return tuple(polys)


def _partial_split(rf: RationalFn, orders: dict, rest: Poly):
    """Exact split num/den = A/cyclo + B/rest over the rationals."""
    cyclo = Poly([Fraction(1)])
    for d, mult in orders.items():
        phi = Poly([Fraction(c) for c in cyclotomic_poly(d)])
        for _ in range(mult):
            cyclo = cyclo * phi
    # A = num * rest^{-1} mod cyclo so that (num - A*rest) is divisible by cyclo
    inv_rest = _poly_invmod(rest, cyclo)
    A = poly_divmod(rf.num * inv_rest, cyclo)[1]
    B, rem = poly_divmod(rf.num - A * rest, cyclo)
    if not rem.is_zero():
        raise AssertionError("partial split failed")
    cyclo_rf = RationalFn(A, cyclo)
    rest_rf = RationalFn(B, rest) if not B.is_zero() else None
    return cyclo_rf, rest_rf


def _poly_invmod(a: Poly, modulus: Poly) -> Poly:
    """Inverse of a modulo `modulus` over the rationals (they must be coprime)."""
    r0, r1 = modulus, poly_divmod(a, modulus)[1]
    s0, s1 = Poly(), Poly([Fraction(1)])
    while not r1.is_zero():
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.degree != 0:
        raise AssertionError("polynomials share a factor")
    return s0.map(lambda c: c / r0.coeffs[0])


_MODEL_CACHE: dict = {}


def _coefficient_model(desc, prec: int) -> _CoeffModel:
    key = (desc, prec)
    hit = _MODEL_CACHE.get(key)
    if hit is not None:
        return hit
    model = _coefficient_model_impl(desc, prec)
    if len(_MODEL_CACHE) > 64:
        _MODEL_CACHE.clear()
    _MODEL_CACHE[key] = model
    return model


def _coefficient_model_impl(desc, prec: int) -> _CoeffModel:
    rf = as_rational_fn(desc)
    if rf is not None:
        from .tame import _cyclotomic_factor_split

        orders, rest = _cyclotomic_factor_split(rf.den)
        period = 1
        degree_bound = 1
        for d, mult in orders.items():
            period = period * d // gcd(period, d)
            degree_bound += mult
        rest_ratio = None
        if rest.degree > 0:
            rest_ratio = _rest_ratio_bound(rest, prec)
        if not orders:
            return _CoeffModel(1, (Poly(),), rest_ratio, "geometric")
        if rest.degree == 0:
            polys = _fit_quasi_polynomial(desc, period, degree_bound)
            return _CoeffModel(period, polys, None, "quasi")
        cyclo_rf, _rest_rf = _partial_split(rf, orders, rest)
        from .tame import RationalDescriptor

        cd = RationalDescriptor(tuple(cyclo_rf.num.coeffs), tuple(cyclo_rf.den.coeffs))
        polys = _fit_quasi_polynomial(cd, period, degree_bound)
        return _CoeffModel(period, polys, rest_ratio, "mixed")
    if isinstance(desc, LerchDescriptor):
        with mp.workprec(prec):
            wc = as_mpc(desc.w, prec)
            if abs(wc) < 1 - mpmath.mpf(2) ** (-prec // 2):
                ratio = +(abs(wc) * (1 + mpmath.mpf(2) ** (-prec // 2)))
                return _CoeffModel(1, (Poly(),), ratio, "geometric")
        return _CoeffModel(1, (Poly(),), None, "oscillatory")
    if isinstance(desc, BuiltinDescriptor):
        if desc.name == "central-binomial":
            # a_{n+2}/a_{n+1} = (n+2)/(2(2n+3)) <= 3/10 for n >= 0
            return _CoeffModel(1, (Poly(),), Fraction(3, 10), "geometric")
        # even-zeta stream: 1 on the odd index class, plus (zeta(n+1)-1)
        # which is bounded by 2^(-n) * 2 for n >= 1
        return _CoeffModel(2, (Poly(), Poly([Fraction(1)])), Fraction(1, 2), "mixed")
    raise TypeError("unknown descriptor %r" % (desc,))


def _rest_ratio_bound(rest: Poly, prec: int):
    from .tame import _aberth_roots, _squarefree_decomposition

    with mp.workprec(2 * prec):
        min_mod = mpmath.inf
        for factor, _m in _squarefree_decomposition(rest):
            if factor.degree > 0:
                for r in _aberth_roots(factor, prec):
                    min_mod = min(min_mod, abs(r))
        if min_mod <= 1:
            raise NotTameError("non-cyclotomic denominator root inside the closed unit disk")
        return +(1 / min_mod * (1 + mpmath.mpf(2) ** (-prec // 4)))


# ---------------------------------------------------------------------------
# direct summation with Euler-Maclaurin tail completion
# ---------------------------------------------------------------------------


def direct_sum(desc, s, t, ctx: ApproxContext) -> EvalResult:
    """sum a_{n+1} (t+n)^(-s) in the absolute-convergence region Re(s) > nu + 1/4.

    The head is summed exactly in ascending order; quasi-polynomial tail
    classes are completed by Euler-Maclaurin with a rigorous remainder
    bound, exponentially small coefficient parts against their certified
    ratio, and unit-circle oscillatory parts by iterated summation by
    parts.  Plain truncation with the |a_n| <= C n^(nu-1+eps) envelope
    cannot reach tight tolerances near the abscissa; the recorded
    tail_bound covers the completed tails instead.
    """
    eps_b = _eps_bits(ctx)
    work = ctx.working_bits(eps_b)
    with mp.workprec(work):
        sc = as_mpc(s, work)
        tc = as_mpf(t, work)
        if tc <= 0:
            raise RegionError("t must be positive")
        nu = laurent_at_one(desc, 1, prec=work).nu
        if not sc.real > nu + mpmath.mpf(1) / 4:
            raise RegionError(
                "Re(s)=%s outside the absolute convergence region (nu=%d)"
                % (mpmath.nstr(sc.real), nu)
            )
        eps = mpmath.mpf(ctx.target_eps)
        model = _coefficient_model(desc, work)
        m = model.period
        K = max(10, int(0.18 * work) + 2)
        last_exc = None
        for _attempt in range(3):
            N = m * (int(2 * K + abs(sc.imag) / 2 + 32) // m + 1)
            if N > ctx.max_terms:
                raise SlowConvergenceError("head exceeds max_terms")
            try:
                value, bound, used = _direct_attempt(desc, model, sc, tc, N, K, eps, work, ctx)
            except SlowConvergenceError as exc:
                last_exc = exc
                K *= 2
                continue
            if bound <= eps:
                return _result(value, "direct", used, bound, ctx)
            K *= 2
        raise SlowConvergenceError("direct summation did not reach tolerance", getattr(last_exc, "diagnostics", None))


def _direct_attempt(desc, model, sc, tc, N, K, eps, work, ctx):
    m = model.period
    stream = coeffs(desc, N + 1, prec=work)
    head = mpmath.mpc(0)
    for n in range(N):
        a = stream[n]
        if a != 0:
            head += as_mpc(a, work) * (tc + n) ** (-sc)
    tail = mpmath.mpc(0)
    bound = mpmath.mpf(0)
    used = N
    for r, poly in enumerate(model.class_polys):
        if poly.is_zero():
            continue
        n0 = N + ((r - N) % m)
        # m classes at eps/(2m) each leave eps/2 for the rest tails below
        val, b = _em_class_tail(poly, sc, tc, m, n0, K, eps / (2 * m), work)
        tail += val
        bound += b
    if model.rest_ratio is not None:
        rest_val, rest_bound, extra = _geometric_rest_tail(
            desc, model, sc, tc, N, eps / 4, work, ctx.max_terms
        )
        tail += rest_val
        bound += rest_bound
        used += extra
    if model.kind == "oscillatory":
        rest_val, rest_bound, extra = _oscillatory_tail(desc, sc, tc, N, eps / 4, work)
        tail += rest_val
        bound += rest_bound
        used += extra
    return head + tail, bound, used


def _em_class_tail(poly: Poly, sc, tc, m, n0, K, eps, work):
    """sum_{j>=0} poly(n0+jm) (tc+n0+jm)^(-sc), Euler-Maclaurin with bound.

    poly is re-expanded in powers of (tc+x), so h(y) = sum_i d_i y^(i-s)
    has closed-form derivatives and integral.  Order k subtracts
    B_2k/(2k)! m^(2k-1) sum_i P_i with P_i = d_i (i-s)_(2k-1) a^(i-s-2k+1)
    (falling factorial); each P_i passes to the next order by one
    multiplication, so a^(-s) is the only complex power.  Stops at the
    first order whose remainder bound is at most eps, or at order K."""
    with mp.workprec(work):
        shifted = recenter(poly.map(lambda c: as_mpc(c, work)), -tc)
        a = tc + n0
        a_pow = a ** (-sc)  # a^(i-s) for i = 0, 1, ...
        value = mpmath.mpc(0)
        terms = []  # (i, P_i)
        for i, d in enumerate(shifted.coeffs):
            if d != 0:
                value += d * a_pow * (a / (sc - i - 1) / m + mpmath.mpf(1) / 2)
                terms.append((i, d * (i - sc) * a_pow / a))
            a_pow *= a
        m2 = mpmath.mpf(m * m)
        a2 = a * a
        mpow = 1 / mpmath.mpf(m)  # m^(2k-1)
        # 2 zeta(2k)/(2 pi)^(2k) <= 4/(2 pi)^(2k) for k >= 1: crude but safe
        zfac = mpmath.mpf(4)
        two_pi2 = 4 * mpmath.pi * mpmath.pi
        bound = None
        for k in range(1, K + 1):
            mpow *= m2
            zfac /= two_pi2
            value -= _em_coeff(k, work) * mpow * sum(p for _, p in terms)
            if all(sc.real + 2 * k - i - 1 > 0 for i, _ in terms):
                # m^(2k-1) times the integral of |h^(2k)| over [a, oo)
                int_bound = sum(abs(p) * abs(i - sc - 2 * k + 1) / (sc.real + 2 * k - i - 1) for i, p in terms)
                bound = zfac * int_bound * mpow
                if bound <= eps:
                    break
            elif k == K:
                raise SlowConvergenceError("EM class tail: degree exceeds order")
            terms = [(i, p * (i - sc - 2 * k + 1) * (i - sc - 2 * k) / a2) for i, p in terms]
        return value, bound


def _falling_abs(x, order):
    acc = mpmath.mpf(1)
    for j in range(order):
        acc *= abs(x - j)
    return acc


def _quasi_value(model, n):
    poly = model.class_polys[n % model.period]
    if poly.is_zero():
        return Fraction(0)
    return poly(Fraction(n))


def _geometric_rest_tail(desc, model, sc, tc, N, eps, work, max_terms):
    """Tail of the exponentially small coefficient part, summed directly
    against the certified ratio bound."""
    with mp.workprec(work):
        ratio = as_mpf(model.rest_ratio, work)
        if not ratio < 1:
            raise SlowConvergenceError("rest ratio not below 1")
        acc = mpmath.mpc(0)
        n = N
        block = 64
        extra = 0
        while True:
            stream = coeffs(desc, n + block, prec=work)
            mx = mpmath.mpf(0)
            for j in range(n, n + block):
                rest = as_mpc(stream[j], work) - as_mpc(_quasi_value(model, j), work)
                if rest != 0:
                    acc += rest * (tc + j) ** (-sc)
                mx = max(mx, abs(rest))
            extra += block
            n += block
            # remaining rest coefficients are bounded by mx * ratio^(j-n+block)
            tail_bound = mx * ratio / (1 - ratio) * (tc + n) ** (-sc.real)
            if mx == 0 or tail_bound < eps:
                return acc, tail_bound, extra
            if extra > max_terms:
                raise SlowConvergenceError("geometric rest did not reach tolerance")


def _delta_pow_f(f, n, k):
    acc = mpmath.mpc(0)
    for j in range(k + 1):
        acc += (-1) ** (k - j) * binomial(k, j) * f(n + j)
    return acc


def _oscillatory_tail(desc, sc, tc, N, eps, work):
    """Tail of w^n (t+n)^(-s) for |w| = 1, w != 1, by iterated summation by
    parts: each round gains one power of decay at the cost of a 2/|1-w|
    factor."""
    with mp.workprec(work):
        w = as_mpc(desc.w, work)
        one_minus = abs(1 - w)
        if one_minus == 0:
            raise RegionError("w = 1 has a pole; not an oscillatory tail")
        K = 8
        while True:
            lead = _falling_abs(-sc, K) * (2 / one_minus) ** K
            bound = lead * (tc + N) ** (-sc.real - K + 1) / (sc.real + K - 1)
            if bound < eps or K > 64:
                break
            K += 8
        if bound >= eps:
            raise SlowConvergenceError("oscillatory tail needs too many parts")

        def f(n):
            return (tc + n) ** (-sc)

        boundary = mpmath.mpc(0)
        factor = mpmath.mpc(1)
        for j in range(K):
            boundary += factor * (w**N) / (1 - w) * _delta_pow_f(f, N, j)
            factor = factor * w / (1 - w)
        acc = mpmath.mpc(0)
        n = N
        wn = w**N
        count = 0
        while True:
            d = _delta_pow_f(f, n, K)
            acc += wn * d
            # |sum_{j>n}| <= |d(n+1)| * (tc+n)/(Re s + K - 1) decayed envelope
            env = abs(d) * (tc + n) / (sc.real + K - 1) / one_minus
            if env < eps / 4 and count > 8:
                break
            n += 1
            wn *= w
            count += 1
            if count > 100000:
                raise SlowConvergenceError("oscillatory tail stalled")
        return boundary + factor * acc, bound + env, count


# ---------------------------------------------------------------------------
# Hurwitz-decomposition oracle for cyclotomic denominators
# ---------------------------------------------------------------------------


def oracle_eval(desc, s, t, ctx: ApproxContext) -> EvalResult:
    """D(s,t) as an exact finite combination of Hurwitz zeta values.

    Needs a rational descriptor with a purely cyclotomic denominator, so
    the coefficients are exactly quasi-polynomial with some period m:

        D(s,t) = sum_{r,i} gamma_{r,i}(t) m^(i-s) zeta(s-i, (t+r)/m).
    """
    from .tame import _cyclotomic_factor_split

    rf = as_rational_fn(desc)
    if rf is None:
        raise RegionError("oracle_eval needs a rational descriptor")
    _orders, rest = _cyclotomic_factor_split(rf.den)
    if rest.degree > 0:
        raise RegionError("oracle_eval needs a purely cyclotomic denominator")
    eps_b = _eps_bits(ctx)
    work = ctx.working_bits(eps_b)
    with mp.workprec(work):
        sc = as_mpc(s, work)
        tc = as_mpf(t, work)
        if tc <= 0:
            raise RegionError("t must be positive")
        eps = mpmath.mpf(ctx.target_eps)
        model = _coefficient_model(desc, work)
        m = model.period
        pieces = []
        for r, poly in enumerate(model.class_polys):
            if poly.is_zero():
                continue
            gamma = recenter(poly.map(lambda c: as_mpc(c, work)), -tc)
            for i, g in enumerate(gamma.coeffs):
                if g != 0:
                    pieces.append((r, i, g))
        if not pieces:
            return _result(mpmath.mpc(0), "hurwitz-oracle", 0, mpmath.mpf(0), ctx)
        piece_eps = eps / (2 * len(pieces))
        acc = mpmath.mpc(0)
        bound = mpmath.mpf(0)
        used = 0
        for r, i, g in pieces:
            wexp = sc - i
            if abs(wexp - 1) < mpmath.sqrt(eps):
                raise NearPoleError("zeta piece at s-%d hits the pole" % i, pole=i + 1, residue=g)
            scale = abs(g) * mpmath.mpf(m) ** (i - sc.real)
            val, n_used, b = _hurwitz_em(wexp, (tc + r) / m, piece_eps / max(scale, mpmath.mpf(1)), work, ctx.max_terms)
            acc += g * mpmath.mpf(m) ** (i - sc) * val
            used = max(used, n_used)
            bound += scale * b
        return _result(acc, "hurwitz-oracle", used, bound, ctx)


# ---------------------------------------------------------------------------
# shift accumulator and the operator series
# ---------------------------------------------------------------------------


def shift_weights_exact(mpx: MultiPowerExpansion, order: int) -> dict:
    """Exact shift weights: the truncated operator series
    sum_{i, per-variable order <= order} c_i Delta_e^i reorganized as
    sum_sigma W_sigma E^sigma with exact rational weights."""
    total: dict = {}
    for term in mpx.terms:
        weights = {0: Fraction(1)}
        for e, series in term.factors:
            fac_w: dict = {}
            M = min(order, series.order)
            for m_ in range(M + 1):
                b = series.coeffs[m_]
                if b == 0:
                    continue
                for a_ in range(m_ + 1):
                    w = b * ((-1) ** (m_ - a_) * binomial(m_, a_))
                    key = e * a_
                    fac_w[key] = fac_w.get(key, Fraction(0)) + w
            new: dict = {}
            for k1, w1 in weights.items():
                for k2, w2 in fac_w.items():
                    new[k1 + k2] = new.get(k1 + k2, Fraction(0)) + w1 * w2
            weights = new
        for k, w in weights.items():
            total[k] = total.get(k, Fraction(0)) + term.coeff * w
    out = {}
    for k, v in total.items():
        if isinstance(v, CycloNum):
            v = v.to_fraction() if v.is_rational() else v
        if v != 0:
            out[k] = v
    return out


def _shift_weights_numeric(mpx: MultiPowerExpansion, order: int, work: int) -> dict:
    """Shift weights as mpc values at ``work`` bits (cancellation-safe when
    ``work`` exceeds the target precision by ~order bits)."""
    with mp.workprec(work):
        total: dict = {}
        for term in mpx.terms:
            weights = {0: mpmath.mpc(1)}
            for e, series in term.factors:
                fac_w: dict = {}
                M = min(order, series.order)
                for m_ in range(M + 1):
                    b = _embed(series.coeffs[m_], work)
                    if b == 0:
                        continue
                    for a_ in range(m_ + 1):
                        w = b * ((-1) ** (m_ - a_) * binomial(m_, a_))
                        key = e * a_
                        if key in fac_w:
                            fac_w[key] += w
                        else:
                            fac_w[key] = w
                new: dict = {}
                for k1, w1 in weights.items():
                    for k2, w2 in fac_w.items():
                        k = k1 + k2
                        if k in new:
                            new[k] += w1 * w2
                        else:
                            new[k] = w1 * w2
                weights = new
            c = _embed(term.coeff, work)
            for k, w in weights.items():
                if k in total:
                    total[k] += c * w
                else:
                    total[k] = c * w
        return total


def _embed(c, work):
    if isinstance(c, CycloNum):
        return c.embed(work)
    return as_mpc(c, work)


_WEIGHT_CACHE: dict = {}


def _cached_weights(mpx, order, work):
    key = (id(mpx), order, work)
    hit = _WEIGHT_CACHE.get(key)
    if hit is not None and hit[0] is mpx:
        return hit[1]
    w = _shift_weights_numeric(mpx, order, work)
    if len(_WEIGHT_CACHE) > 64:
        _WEIGHT_CACHE.clear()
    _WEIGHT_CACHE[key] = (mpx, w)
    return w


def _as_exact_int(s):
    if isinstance(s, bool):
        return None
    if isinstance(s, int):
        return s
    if isinstance(s, Fraction) and s.denominator == 1:
        return int(s)
    if isinstance(s, float) and s.is_integer():
        return int(s)
    if isinstance(s, mpmath.mpf) and s == mpmath.floor(s):
        return int(s)
    if isinstance(s, mpmath.mpc) and s.imag == 0 and s.real == mpmath.floor(s.real):
        return int(s.real)
    if isinstance(s, complex) and s.imag == 0 and float(s.real).is_integer():
        return int(s.real)
    return None


def hasse_eval(mpx: MultiPowerExpansion, s, t, ctx: ApproxContext) -> EvalResult:
    """The difference-operator series H(s,t) = sum_i c_i Delta_e^i t^(-s).

    For s a nonpositive integer the operator series terminates identically
    on the polynomial t^(-s) and is evaluated exactly (rational data in,
    rational value out).  Otherwise the operator polynomials are converted
    per variable into a shift accumulator with binomial weights, summed
    over shifts in ascending order at elevated precision, and the
    truncation order is doubled until two successive estimates agree
    within eps; stagnation raises :class:`SlowConvergenceError`.

    H(s, t) is the entire continuation of s(s+1)...(s+nu-1) D(s+nu, t).
    """
    exact_s = _as_exact_int(s)
    if exact_s is not None and exact_s <= 0:
        n = -exact_s
        poly = Poly([Fraction(0)] * n + [Fraction(1)])
        if mpx.kind == "exact" and isinstance(t, (int, Fraction)):
            val = diff_apply_poly(mpx, poly)(Fraction(t))
            return _result(val, "hasse-exact", n, Fraction(0), ctx, exact=val)
        work = ctx.working_bits(n + 64)
        with mp.workprec(work):
            val = diff_apply_poly(mpx, poly.map(lambda c: as_mpc(c, work)))(as_mpc(t, work))
        return _result(val, "hasse-exact", n, mpmath.mpf(2) ** (-ctx.precision_bits), ctx)
    eps_b = _eps_bits(ctx)
    eps = mpmath.mpf(ctx.target_eps)
    ladder = [M for M in (32, 64, 128, 256, 512) if M < mpx.order] + [mpx.order]
    prev = None
    prev_diff = None
    history = []
    for M in ladder:
        work = ctx.working_bits(eps_b + M + 64)
        weights = _cached_weights(mpx, M, work)
        with mp.workprec(work):
            sc = as_mpc(s, work)
            tc = as_mpc(t, work)
            val = mpmath.mpc(0)
            for sigma in sorted(weights):
                val += weights[sigma] * (tc + sigma) ** (-sc)
            history.append((M, val))
            if prev is not None:
                diff = abs(val - prev)
                scale = max(mpmath.mpf(1), abs(val))
                # accept immediately on decisive agreement; near the
                # tolerance also require the inter-order differences to be
                # decaying (the observed ratio standing in for a tail bound)
                decisive = diff <= eps / 16 * scale
                decaying = prev_diff is not None and diff <= prev_diff and diff <= eps / 4 * scale
                if decisive or decaying:
                    return _result(val, "hasse", M, diff, ctx)
                prev_diff = diff
            prev = val
    with mp.workprec(ctx.working_bits(eps_b + 64)):
        last = float(abs(history[-1][1] - history[-2][1])) if len(history) > 1 else None
    raise SlowConvergenceError(
        "operator series did not stabilize by order %d" % ladder[-1],
        {"orders": [h[0] for h in history], "last_diff": last},
    )


_MP_CACHE: dict = {}


def _shifted_mp(desc, shift, order, prec):
    key = (desc, shift, order, prec)
    hit = _MP_CACHE.get(key)
    if hit is not None:
        return hit
    plan = plan_exponents(desc, DEFAULT_MARGIN, prec=prec)
    with mp.workprec(prec):
        mpx = build_shifted_multipower(desc, shift, plan=plan, order=order, prec=prec)
    if len(_MP_CACHE) > 32:
        _MP_CACHE.clear()
    _MP_CACHE[key] = mpx
    return mpx


def continue_dirichlet(desc, sigma, t, ctx: ApproxContext) -> EvalResult:
    """Meromorphic continuation of D(sigma, t) via the operator series:

        D(sigma, t) = head_m + H(sigma-nu, t+m) / prod_j (sigma-nu+j)

    with an index shift m that turns the n^(-t) operator-term decay into
    n^(-t-m).  Fails with the residue attached when sigma is within
    sqrt(eps) of a genuine pole of D(., t); near a removable candidate the
    evaluation proceeds at elevated precision and flags the result.
    """
    from .continuation import analyze

    eps_b = _eps_bits(ctx)
    work = ctx.working_bits(eps_b)
    with mp.workprec(work):
        sc = as_mpc(sigma, work)
        tc = as_mpf(t, work)
        if tc <= 0:
            raise RegionError("t must be positive")
        eps = mpmath.mpf(ctx.target_eps)
        nu = laurent_at_one(desc, 2, prec=work).nu
        flags = []
        extra_bits = 0
        rising = mpmath.mpc(1)
        for j in range(nu):
            rising *= sc - nu + j
        if nu:
            rep = analyze(desc, t if isinstance(t, (int, Fraction)) else tc, 0, prec=work)
            for n in range(1, nu + 1):
                dist = abs(sc - n)
                if dist < mpmath.sqrt(eps):
                    if n in rep.pole_set:
                        raise NearPoleError(
                            "sigma within eps^(1/2) of the pole at %d" % n,
                            pole=n,
                            residue=rep.residues[n],
                        )
                    flags.append("near-removable:%d" % n)
                if dist < 1:
                    extra_bits = max(extra_bits, int(-mpmath.log(dist, 2)) + 8)
        digits = int(mpmath.ceil(-mpmath.log10(eps)))
        shift = max(8, int(1.3 * digits) + 8 - int(mpmath.floor(tc)))
        # far off the real axis the operator terms decay later; allow a
        # deeper truncation ladder there
        order = 256 if abs(sc.imag) <= 16 else 512
        mpx = _shifted_mp(desc, shift, order, ctx.working_bits(eps_b + 64))
        head = mpmath.mpc(0)
        if shift:
            stream = coeffs(desc, shift, prec=work)
            for n in range(shift):
                a = stream[n]
                if a != 0:
                    head += as_mpc(a, work) * (tc + n) ** (-sc)
        sub_eps = float(eps / 8 * min(mpmath.mpf(1), abs(rising))) if nu else float(eps / 8)
        sub = ApproxContext(
            precision_bits=ctx.precision_bits + extra_bits + 32,
            target_eps=max(sub_eps, 2.0 ** (-(ctx.precision_bits + extra_bits + 16))),
            max_terms=ctx.max_terms,
        )
        hres = hasse_eval(
            mpx,
            sigma - nu if isinstance(sigma, (int, Fraction)) else sc - nu,
            t + shift if isinstance(t, (int, Fraction)) else tc + shift,
            sub,
        )
        hval = hres.mpc()
        tail_val = hval / rising if nu else hval
        value = head + tail_val
        bound = as_mpf(hres.tail_bound, work)
        if nu:
            bound = bound / abs(rising)
        return _result(value, "hasse-continuation", hres.truncation, bound, ctx, flags)


# ---------------------------------------------------------------------------
# incomplete-gamma method (pole-free series)
# ---------------------------------------------------------------------------


def incgamma_eval(desc, s, t, ctx: ApproxContext, epsilon=None) -> EvalResult:
    """Lower-incomplete-gamma split of D(s,t) for nu = 0 series:

        eps^s sum_n psi_n eps^n s^(rising n) gamma*(s+n, t eps)
        + (1/Gamma(s)) int_eps^infty e^(-ut) alpha(e^(-u)) u^(s-1) du

    where psi_n are the Taylor coefficients of alpha(e^(-u)) at u=0 and
    eps < their convergence radius.  The integrand is evaluated by summing
    the coefficient series at z = e^(-u) < 1; the integral uses tanh-sinh
    panels with a certified cutoff.
    """
    from .bernoulli import todd_series

    eps_b = _eps_bits(ctx)
    work = ctx.working_bits(eps_b + 32)
    with mp.workprec(work):
        sc = as_mpc(s, work)
        tc = as_mpf(t, work)
        if tc <= 0:
            raise RegionError("t must be positive")
        eps = mpmath.mpf(ctx.target_eps)
        laur = laurent_at_one(desc, 4, prec=work)
        if laur.nu != 0:
            raise RegionError("incomplete-gamma method needs a pole-free series (nu = 0)")
        rho = _exp_radius(desc, work)
        if epsilon is None:
            epsilon = min(mpmath.mpf(1), rho / 2)
        else:
            epsilon = as_mpf(epsilon, work)
            if not (0 < epsilon < rho):
                raise RegionError("epsilon must lie in (0, %s)" % mpmath.nstr(rho, 8))
        ratio = epsilon / rho
        nh = int(mpmath.ceil((eps_b + 16) * mpmath.log(2) / -mpmath.log(ratio))) + 8
        laur_full = laurent_at_one(desc, nh + 2, prec=work)
        td = todd_series(laur_full, nh)
        head = mpmath.mpc(0)
        rising = mpmath.mpc(1)
        max_scaled = mpmath.mpf(0)
        for n in range(nh + 1):
            psi_n = _embed(td.taus[n], work) * ((-1) ** n) / as_mpf(factorial(n), work)
            g = lower_gamma_star(sc + n, tc * epsilon, work)
            term = psi_n * epsilon**n * rising * g
            head += term
            if n > nh // 2:
                max_scaled = max(max_scaled, abs(term) / ratio**n)
            rising = rising * (sc + n)
        eps_pow = mpmath.power(epsilon, sc)
        head = eps_pow * head
        head_tail = abs(eps_pow) * max_scaled * ratio ** (nh + 1) / (1 - ratio)
        inv_gamma = recip_gamma(sc, work)
        x = sc.real
        upper = _tail_cutoff(desc, x, tc, eps, work)
        integrand = _make_integrand(desc, sc, tc, work, eps)
        integral, quad_err = _tanh_sinh(integrand, epsilon, upper, work, eps / 4)
        beyond = _beyond_bound(desc, x, tc, upper, work)
        value = head + inv_gamma * integral
        bound = head_tail + abs(inv_gamma) * (quad_err + beyond)
        return _result(value, "incomplete-gamma", nh, bound, ctx)


def _exp_radius(desc, work):
    """Distance from u=0 to the nearest singularity of alpha(e^(-u))."""
    from .tame import singularities

    with mp.workprec(work):
        best = mpmath.inf
        for s_ in singularities(desc, work):
            q = as_mpc(_embed(s_.value, work), work)
            base = -mpmath.log(q)
            for k in (-1, 0, 1):
                best = min(best, abs(base + 2j * mpmath.pi * k))
        return best


def _tail_cutoff(desc, x, tc, eps, work):
    with mp.workprec(work):
        u = mpmath.mpf(8)
        for _ in range(200):
            mag = _alpha_sup_bound(desc, u, work) * mpmath.exp(-u * tc) * u ** max(x - 1, 0) * (
                u + 2 / tc
            )
            if mag < eps / 8:
                return u
            u = u * mpmath.mpf("1.25")
        raise SlowConvergenceError("could not place the integral cutoff")


def _alpha_sup_bound(desc, u, work):
    """Safe bound for |alpha(e^(-v))| over v >= u."""
    with mp.workprec(work):
        z = mpmath.exp(-u)
        stream = coeffs(desc, 80, prec=work)
        acc = mpmath.mpf(0)
        zn = mpmath.mpf(1)
        for a in stream:
            acc += abs(as_mpc(a, work)) * zn
            zn *= z
        return acc / (1 - z) + 1


def _make_integrand(desc, sc, tc, work, eps):
    def f(u):
        with mp.workprec(work):
            z = mpmath.exp(-u)
            return mpmath.exp(-u * tc) * _alpha_partial(desc, z, work, eps) * u ** (sc - 1)

    return f


def _alpha_partial(desc, z, work, eps):
    """alpha(z) for 0 < z < 1 by partial sums of the coefficient stream."""
    with mp.workprec(work):
        acc = mpmath.mpc(0)
        block = 64
        n = 0
        zn = mpmath.mpc(1)
        floor = eps / 16
        while True:
            stream = coeffs(desc, n + block, prec=work)
            mx = mpmath.mpf(0)
            for j in range(n, n + block):
                term = as_mpc(stream[j], work) * zn
                acc += term
                mx = max(mx, abs(term))
                zn *= z
            n += block
            if mx / (1 - abs(z)) < floor:
                return acc
            if n > 200000:
                raise SlowConvergenceError("alpha partial sums stalled near z = 1")


def _tanh_sinh(f, a, b, work, eps):
    """Tanh-sinh quadrature on [a, b], doubling node density per level."""
    with mp.workprec(work):
        a = as_mpf(a, work)
        b = as_mpf(b, work)
        half = (b - a) / 2
        mid = (b + a) / 2
        pi_half = mpmath.pi / 2
        prev = None
        level = 3
        while level <= 12:
            h = mpmath.mpf(3) / 2 ** (level - 1)
            acc = mpmath.mpc(0)
            k = 0
            while True:
                tau = k * h
                sh = mpmath.sinh(tau)
                x = mpmath.tanh(pi_half * sh)
                w = pi_half * mpmath.cosh(tau) / mpmath.cosh(pi_half * sh) ** 2
                if k > 4 and abs(half * w) < mpmath.mpf(2) ** (-work - 8):
                    break
                points = [mid] if k == 0 else [mid + half * x, mid - half * x]
                for p_ in points:
                    if a < p_ < b:
                        acc += w * f(p_)
                k += 1
                if k > 40 * 2**level:
                    break
            total = acc * half * h
            if prev is not None:
                err = abs(total - prev)
                if err <= eps:
                    return total, err
            prev = total
            level += 1
        raise SlowConvergenceError("tanh-sinh quadrature did not converge")


def _beyond_bound(desc, x, tc, upper, work):
    with mp.workprec(work):
        supb = _alpha_sup_bound(desc, upper, work)
        u = as_mpf(upper, work)
        return supb * mpmath.exp(-u * tc) * u ** max(x - 1, 0) * 2 / tc
