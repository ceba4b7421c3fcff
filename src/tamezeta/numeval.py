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
  series (head series in gamma-star values plus a Laplace tail integral,
  taken by one tanh-sinh rule whose step an analyticity-strip bound fixes
  in advance).

Evaluation is absolute-error targeted at ``ctx.target_eps`` and runs at an
internally elevated precision: reorganizing difference operators into
shifts produces binomial-sized weights whose cancellation is paid for with
extra working bits, never with accuracy.  Summations are deterministic
(ascending shift order, truncations chosen from the arguments alone), so
results do not depend on scheduling.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import cmath
import math
from math import factorial, gcd

import mpmath
from mpmath import mp

from .bernoulli import bernoulli_number
from .cyclotomic import CycloNum, cyclotomic_poly
from .scalar import ApproxContext, BigComplex, as_mpc, as_mpf, binomial, falling_factorial
from .series import Poly, RationalFn, poly_divmod, poly_invmod, recenter
from .tame import (
    BuiltinDescriptor,
    LerchDescriptor,
    MultiPowerExpansion,
    NotTameError,
    RationalDescriptor,
    _cyclotomic_factor_split,
    alpha_evaluator,
    as_rational_fn,
    build_shifted_multipower,
    coeffs,
    laurent_at_one,
    singularities,
)

__all__ = [
    "EvalResult",
    "NumericalEvalError",
    "RegionError",
    "NearPoleError",
    "SlowConvergenceError",
    "recip_gamma",
    "lower_gamma_star",
    "hurwitz_oracle",
    "direct_sum",
    "oracle_eval",
    "hasse_eval",
    "continue_dirichlet",
    "incgamma_eval",
    "shift_weights",
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
    # tail_bound bounds the error of value as rounded to its bits (0 for a
    # result carrying exact_value); "certified": it bounds the error;
    # "estimated": it only estimates it (direct_sum's unit-circle Lerch tail
    # stops on an envelope read off its last term)
    bound_kind: str = "certified"

    def mpc(self) -> mpmath.mpc:
        return self.value.to_mpc()


def _eps_bits(ctx: ApproxContext) -> int:
    with mp.workprec(64):
        return int(-mpmath.log(mpmath.mpf(ctx.target_eps), 2)) + 1


def _result(value, method, truncation, tail, ctx, flags=(), exact=None, kind="certified") -> EvalResult:
    """The result for ``value``, whose error before rounding ``tail`` bounds.

    The value keeps an absolute 2^(1-P) per component, P = ctx.precision_bits,
    at P + max(0, mag(value) - 1) bits (P bits for |value| < 2), and the
    bound adds 2^(2-P) for that rounding; a result carrying its exact value
    keeps its bound."""
    bits = ctx.precision_bits + max(0, mpmath.mag(value) - 1)
    if exact is None:
        tail = tail + mpmath.mpf(2) ** (2 - ctx.precision_bits)
    return EvalResult(BigComplex(value, prec=bits), method, truncation, tail, tuple(flags), exact, kind)


def _head_sum(cs, sc, tc, work) -> mpmath.mpc:
    """sum_n cs[n] (t+n)^(-s), summed in ascending n at ``work`` bits; a
    zero coefficient takes no power."""
    acc = mpmath.mpc(0)
    for n, a in enumerate(cs):
        if a != 0:
            acc += as_mpc(a, work) * (tc + n) ** (-sc)
    return acc


# ---------------------------------------------------------------------------
# gamma machinery
# ---------------------------------------------------------------------------


def recip_gamma(s, prec: int | None = None) -> mpmath.mpc:
    """1/Gamma(s) from :func:`mpmath.rgamma` at prec + 32 bits; zero at the
    poles of Gamma."""
    p = prec if prec is not None else mp.prec
    with mp.workprec(p + 32):
        return mpmath.rgamma(as_mpc(s, p + 32))


def lower_gamma_star(s, z, prec: int | None = None) -> mpmath.mpc:
    """gamma*(s,z) = e^(-z) sum_k z^k / Gamma(s+k+1); entire in s."""
    p = prec if prec is not None else mp.prec
    return _gamma_star_down(as_mpc(s, p + 32), z, 0, p)[0][0]


def _gamma_star_down(sc, z, nh, prec):
    """gamma*(s+n, z) for n = 0..nh, and 1/Gamma(s).

    The series at n = nh, at prec + 32 bits from its first term
    1/Gamma(s+nh+1), then downward at prec bits by gamma*(a, z) =
    z gamma*(a+1, z) + e^(-z)/Gamma(a+1) (DLMF 8.8.1); the forward
    recurrence subtracts and is unstable."""
    with mp.workprec(prec + 32):
        z = as_mpc(z, prec + 32)
        a = sc + nh
        rg = recip_gamma(a + 1, prec + 32)  # 1/Gamma(s+n+1) at n = nh
        acc, term, k = mpmath.mpc(0), rg, 0
        floor = mpmath.mpf(2) ** (-(prec + 16))
        iz = int(abs(z))
        while k <= 64 + 8 * iz + prec:
            acc += term
            k += 1
            # at a + k = 0 the ratio is 0/0; the term is z^k/Gamma(1)
            term = z**k if a + k == 0 else term * z / (a + k)
            # relative floor: the value is tiny for large s, and a zero term
            # with acc = 0 (s a negative integer) must not stop the sum
            if k > 4 + iz and abs(term) < floor * abs(acc):
                break
        ez = mpmath.exp(-z)
        out = [ez * acc]
    with mp.workprec(prec):
        for n in range(nh - 1, -1, -1):
            rg = rg * (sc + n + 1)
            out.append(z * out[-1] + ez * rg)
        out.reverse()
        return out, rg * sc


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


@lru_cache(maxsize=256)
def _em_coeff(k, work):
    """B_2k / (2k)!"""
    with mp.workprec(work):
        return as_mpf(bernoulli_number(2 * k), work) / as_mpf(factorial(2 * k), work)


# One Euler-Maclaurin order of a class tail, its bound check included, costs
# about this many complex powers (pure-Python mpmath near 244 bits)
_EM_ORDER_COST = 3


def _least_head(log_c, e, log_eps, tf, max_terms):
    """Least N >= 0 with exp(log_c) (tf+N)^(-e) <= exp(log_eps), for e > 0;
    None when it passes max_terms."""
    log_a = (log_c - log_eps) / e
    if log_a > math.log(tf + max_terms):
        return None
    return max(0, math.ceil(math.exp(log_a) - tf))


def _em_plan(classes, sc, tc, m, eps, K, max_terms):
    """Head length N and, per class, the order at which its tail starts
    checking its bound.

    ``classes`` lists, per class, the |d_i| of its polynomial in powers of
    (tc+x).  At order k the remainder bound of :func:`_em_class_tail`,
    4/(2 pi)^(2k) m^(2k-1) sum_i |d_i| |(i-s)_(2k)| a^(i-Re s-2k+1)/(Re s+2k-i-1)
    with a >= tc+N, is at most eps once each of its T terms is at most
    eps/T, which gives the least N for the order in closed form.  An order
    with a term that does not decay in a, or whose N passes max_terms, is
    skipped.  The order k <= K with the least N + _EM_ORDER_COST k per class
    sets N; each class starts at the least order that meets its eps at that
    N.  Estimated in floats, through logarithms so that nothing overflows,
    and only to choose where to start: the tail still certifies its bound.
    None when no order is feasible."""
    sr, si, tf = float(sc.real), float(sc.imag), float(tc)
    log_eps = float(mpmath.log(eps))
    need = []  # need[c][k-1]: least N for class c at order k, or None
    for d in classes:
        terms = [(i, math.log(x)) for i, x in enumerate(d) if x != 0]
        logfall = [0.0] * len(terms)  # log |(i-s)_(2k)|, -inf when it is zero
        row = []
        for k in range(1, K + 1):
            for j, (i, _) in enumerate(terms):
                for f in (2 * k - 2, 2 * k - 1):
                    r = abs(complex(i - sr - f, -si))
                    logfall[j] += math.log(r) if r else -math.inf
            log_k = math.log(4 * len(terms)) - 2 * k * math.log(2 * math.pi) + (2 * k - 1) * math.log(m)
            n_k = 0
            for (i, log_d), lf in zip(terms, logfall):
                e = sr + 2 * k - i - 1
                n_i = None
                if e > 0:
                    n_i = 0 if lf == -math.inf else _least_head(log_k + log_d + lf - math.log(e), e, log_eps, tf, max_terms)
                if n_i is None:
                    n_k = None
                    break
                n_k = max(n_k, n_i)
            row.append(n_k)
        need.append(row)
    best = None
    for k in range(1, K + 1):
        col = [row[k - 1] for row in need]
        if None in col:
            continue
        n = max(col, default=0)
        cost = n + _EM_ORDER_COST * k * len(classes)
        if best is None or cost < best[0]:
            best = (cost, n)
    if best is None:
        return None
    n = best[1]
    return n, [next(k for k, n_k in enumerate(row, 1) if n_k is not None and n_k <= n) for row in need]


def _hurwitz_em(sc, tc, eps, work, max_terms):
    """Euler-Maclaurin core; returns (value, head length, remainder bound).

    The head sums n < N directly; the tail is the class tail of the
    constant 1 with period 1.  :func:`_em_plan` chooses N and the order
    from which the tail checks its bound: the cheapest head plus orders
    whose estimated remainder is at most eps.  The tail then stops at the
    first order whose certified bound is at most eps.  K caps the order; a
    cap with no feasible order, or at which the bound is not met, is doubled
    and the plan made again."""
    K = max(10, int(0.18 * work) + 2)
    one = Poly([1])
    bound = None
    for _ in range(6):
        plan = _em_plan([[1.0]], sc, tc, 1, eps, K, max_terms)
        if plan is not None:
            N, (k0,) = plan
            head = mpmath.mpc(0)
            for n in range(N):
                head += (tc + n) ** (-sc)
            tail, bound = _em_class_tail(one, sc, tc, 1, N, k0, K, eps, work)
            if bound <= eps:
                return head + tail, N, bound
        K = 2 * K
    raise SlowConvergenceError("Euler-Maclaurin failed to reach tolerance", {"bound": bound})


# ---------------------------------------------------------------------------
# coefficient models for direct summation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CoeffModel:
    """a_{n+1} = g_n (the polynomial part, so n <= deg g) + per-class
    polynomials (period m) + exponentially small rest."""

    period: int
    class_polys: tuple
    rest_ratio: object  # certified bound < 1 for the rest part ratio, or None
    kind: str  # quasi | geometric | mixed | oscillatory
    # rest_ratio bounds |r_j'| <= |r_j| rest_ratio^(j'-j) for every nonzero
    # rest coefficient r_j and j' > j, not only the decay rate
    ratio_per_term: bool = False
    # the polynomial part of a rational alpha: a head of len(coeffs) terms
    # covers it, and the classes and the rest describe the proper part
    poly_part: Poly = Poly()


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


def _descriptor_of(rf: RationalFn) -> RationalDescriptor:
    return RationalDescriptor(tuple(rf.num.coeffs), tuple(rf.den.coeffs))


def _partial_split(rf: RationalFn, orders: dict, rest: Poly):
    """Exact split num/den = A/cyclo + B/rest over the rationals."""
    cyclo = Poly([Fraction(1)])
    for d, mult in orders.items():
        phi = Poly([Fraction(c) for c in cyclotomic_poly(d)])
        for _ in range(mult):
            cyclo = cyclo * phi
    # A = num * rest^{-1} mod cyclo so that (num - A*rest) is divisible by cyclo
    inv_rest = poly_invmod(rest, cyclo)
    A = poly_divmod(rf.num * inv_rest, cyclo)[1]
    B, rem = poly_divmod(rf.num - A * rest, cyclo)
    if not rem.is_zero():
        raise AssertionError("partial split failed")
    cyclo_rf = RationalFn(A, cyclo)
    rest_rf = RationalFn(B, rest) if not B.is_zero() else None
    return cyclo_rf, rest_rf


@lru_cache(maxsize=64)
def _coefficient_model(desc, prec: int) -> _CoeffModel:
    rf = as_rational_fn(desc)
    if rf is not None:
        g, num = poly_divmod(rf.num, rf.den)
        proper = RationalFn(num, rf.den)
        orders, rest = _cyclotomic_factor_split(rf.den)
        period = 1
        degree_bound = 1
        for d, mult in orders.items():
            period = period * d // gcd(period, d)
            degree_bound += mult
        rest_ratio = None
        if rest.degree > 0:
            # the rest's roots are the singularities that are not roots of unity
            with mp.workprec(2 * prec):
                min_mod = min(
                    abs(as_mpc(q.value, 2 * prec)) for q in singularities(desc, prec) if q.root_of_unity is None
                )
                if min_mod <= 1:
                    raise NotTameError("non-cyclotomic denominator root inside the closed unit disk")
                rest_ratio = +(1 / min_mod * (1 + mpmath.mpf(2) ** (-prec // 4)))
        if rest.degree == 0:
            # a constant denominator is an empty cyclotomic product
            polys = _fit_quasi_polynomial(_descriptor_of(proper), period, degree_bound)
            return _CoeffModel(period, polys, None, "quasi", poly_part=g)
        if not orders:
            # c/(1 - wz) is c w^n: its ratio holds from term to term
            per_term = rest.degree == 1 and num.degree == 0
            return _CoeffModel(1, (Poly(),), rest_ratio, "geometric", per_term, g)
        cyclo_rf, rest_rf = _partial_split(proper, orders, rest)
        polys = _fit_quasi_polynomial(_descriptor_of(cyclo_rf), period, degree_bound)
        per_term = rest.degree == 1 and rest_rf is not None and rest_rf.num.degree == 0
        return _CoeffModel(period, polys, rest_ratio, "mixed", per_term, g)
    if isinstance(desc, LerchDescriptor):
        with mp.workprec(prec):
            wc = as_mpc(desc.w, prec)
            if abs(wc) < 1 - mpmath.mpf(2) ** (-prec // 2):
                ratio = +(abs(wc) * (1 + mpmath.mpf(2) ** (-prec // 2)))
                return _CoeffModel(1, (Poly(),), ratio, "geometric", True)
            if wc == 1:
                # a_n = 1, as for the exact w = 1
                return _CoeffModel(1, (Poly([Fraction(1)]),), None, "quasi")
        return _CoeffModel(1, (Poly(),), None, "oscillatory")
    if isinstance(desc, BuiltinDescriptor):
        if desc.name == "central-binomial":
            # a_{n+2}/a_{n+1} = (n+2)/(2(2n+3)) <= 1/3, with equality at n = 0
            return _CoeffModel(1, (Poly(),), Fraction(1, 3), "geometric", True)
        # even-zeta stream: 1 on the odd index class, plus (zeta(n+1)-1)
        # which is bounded by 2^(-n) * 2 for n >= 1; zero on the even class,
        # and (zeta(n+3)-1)/(zeta(n+1)-1) <= 1/4, so 1/2 holds per index
        return _CoeffModel(2, (Poly(), Poly([Fraction(1)])), Fraction(1, 2), "mixed", True)
    raise TypeError("unknown descriptor %r" % (desc,))


# ---------------------------------------------------------------------------
# direct summation with Euler-Maclaurin tail completion
# ---------------------------------------------------------------------------


def direct_sum(desc, s, t, ctx: ApproxContext) -> EvalResult:
    """sum a_{n+1} (t+n)^(-s) in the absolute-convergence region Re(s) > nu + 1/4.

    The head n < N is summed exactly in ascending order; quasi-polynomial
    tail classes are completed by Euler-Maclaurin with a rigorous remainder
    bound, exponentially small coefficient parts against their certified
    ratio, and unit-circle oscillatory parts by iterated summation by
    parts.  N comes from the Euler-Maclaurin tails' own bounds:
    :func:`_em_plan` takes the cheapest head plus orders whose estimated
    remainder meets each class's eps/(2m); a series without such classes
    has N = 0 and its geometric rest starts at the first term.  An
    oscillatory series takes N = 2K + |Im s|/2 + 33, which grows with the
    order cap K on each retry.  Plain truncation with
    the |a_n| <= C n^(nu-1+eps) envelope cannot reach tight tolerances
    near the abscissa; the recorded tail_bound covers the completed tails
    instead.  The oscillatory tail stops on an envelope read off its last
    term, so that route's bound_kind is "estimated"; every other is
    "certified".
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
        classes = [
            (r, recenter(poly.map(lambda c: as_mpc(c, work)), -tc))
            for r, poly in enumerate(model.class_polys)
            if not poly.is_zero()
        ]
        dabs = [[float(abs(d)) for d in shifted.coeffs] for _, shifted in classes]
        K = max(10, int(0.18 * work) + 2)
        last_exc = None
        for _attempt in range(3):
            if model.kind == "oscillatory":
                plan = (int(2 * K + abs(sc.imag) / 2 + 32) + 1, [])
            else:
                plan = _em_plan(dabs, sc, tc, m, eps / (2 * m), K, ctx.max_terms)
            if plan is None:
                K *= 2
                continue
            try:
                value, bound, used = _direct_attempt(desc, model, classes, sc, tc, plan, K, eps, work, ctx)
            except SlowConvergenceError as exc:
                last_exc = exc
                K *= 2
                continue
            if bound <= eps:
                # the oscillatory tail stops on an envelope read off its last term
                kind = "estimated" if model.kind == "oscillatory" else "certified"
                return _result(value, "direct", used, bound, ctx, kind=kind)
            K *= 2
        raise SlowConvergenceError("direct summation did not reach tolerance", getattr(last_exc, "diagnostics", None))


def _direct_attempt(desc, model, classes, sc, tc, plan, K, eps, work, ctx):
    m = model.period
    N, orders = plan
    N = max(N, len(model.poly_part.coeffs))
    head = _head_sum(coeffs(desc, N, prec=work), sc, tc, work)
    tail = mpmath.mpc(0)
    bound = mpmath.mpf(0)
    used = N
    for (r, shifted), k0 in zip(classes, orders):
        n0 = N + ((r - N) % m)
        # m classes at eps/(2m) each leave eps/2 for the rest tails below
        val, b = _em_class_tail(shifted, sc, tc, m, n0, k0, K, eps / (2 * m), work)
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


def _em_class_tail(shifted: Poly, sc, tc, m, n0, k0, K, eps, work):
    """sum_{j>=0} p(n0+jm) (tc+n0+jm)^(-sc), Euler-Maclaurin with bound.

    ``shifted`` is p in powers of (tc+x), so h(y) = sum_i d_i y^(i-s) has
    closed-form derivatives and integral.  Order k subtracts
    B_2k/(2k)! m^(2k-1) sum_i P_i with P_i = d_i (i-s)_(2k-1) a^(i-s-2k+1)
    (falling factorial); each P_i passes to the next order by one
    multiplication, so a^(-s) is the only complex power.  From order k0 on
    (see :func:`_em_plan`), stops at the first order whose remainder bound
    is at most eps, or at order K."""
    with mp.workprec(work):
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
            if k >= k0 and all(sc.real + 2 * k - i - 1 > 0 for i, _ in terms):
                # m^(2k-1) times the integral of |h^(2k)| over [a, oo)
                int_bound = sum(abs(p) * abs(i - sc - 2 * k + 1) / (sc.real + 2 * k - i - 1) for i, p in terms)
                bound = zfac * int_bound * mpow
                if bound <= eps:
                    break
            elif k == K:
                raise SlowConvergenceError("EM class tail: degree exceeds order")
            terms = [(i, p * (i - sc - 2 * k + 1) * (i - sc - 2 * k) / a2) for i, p in terms]
        return value, bound


def _quasi_value(model, n):
    poly = model.class_polys[n % model.period]
    if poly.is_zero():
        return Fraction(0)
    return poly(Fraction(n))


def _geometric_rest_tail(desc, model, sc, tc, N, eps, work, max_terms):
    """Tail of the exponentially small coefficient part from index N,
    summed directly against the certified ratio bound.

    When the ratio holds from term to term (``model.ratio_per_term``) the
    sum stops at the first nonzero rest term r_j whose geometric remainder
    |r_j| ratio/(1-ratio) (tc+j+1)^(-Re s) is under eps; a zero term bounds
    nothing and never stops it.  Otherwise the ratio bounds only the decay
    of the rest as a whole, so each block of 64 terms is bounded by its
    largest term, which covers rests that oscillate."""
    with mp.workprec(work):
        ratio = as_mpf(model.rest_ratio, work)
        if not ratio < 1:
            raise SlowConvergenceError("rest ratio not below 1")
        geo = ratio / (1 - ratio)
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
                    if model.ratio_per_term:
                        tail_bound = abs(rest) * geo * (tc + j + 1) ** (-sc.real)
                        if tail_bound < eps:
                            return acc, tail_bound, extra + j - n + 1
                mx = max(mx, abs(rest))
            extra += block
            n += block
            # remaining rest coefficients are bounded by mx * ratio^(j-n+block)
            tail_bound = mx * geo * (tc + n) ** (-sc.real)
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
            lead = abs(falling_factorial(-sc, K)) * (2 / one_minus) ** K
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
    eps_b = _eps_bits(ctx)
    work = ctx.working_bits(eps_b)
    with mp.workprec(work):
        sc = as_mpc(s, work)
        tc = as_mpf(t, work)
        if tc <= 0:
            raise RegionError("t must be positive")
        eps = mpmath.mpf(ctx.target_eps)
        model = _coefficient_model(desc, work)
        if model.kind != "quasi":
            raise RegionError("oracle_eval needs a rational descriptor with a purely cyclotomic denominator")
        m = model.period
        pieces = []
        for r, poly in enumerate(model.class_polys):
            if poly.is_zero():
                continue
            gamma = recenter(poly.map(lambda c: as_mpc(c, work)), -tc)
            for i, g in enumerate(gamma.coeffs):
                if g != 0:
                    pieces.append((r, i, g))
        # the polynomial part is a finite sum
        acc = _head_sum(model.poly_part.coeffs, sc, tc, work)
        piece_eps = eps / (2 * max(1, len(pieces)))
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


def shift_weights(mpx: MultiPowerExpansion, order: int, prec: int | None = None) -> dict:
    """Shift weights: the truncated operator series
    sum_{i, per-variable order <= order} c_i Delta_e^i reorganized as
    sum_sigma W_sigma E^sigma.

    Exact weights (Fraction or CycloNum) when ``prec`` is None; otherwise
    mpc weights at ``prec`` bits.  Zero weights are dropped."""
    return _shift_weight_rungs(mpx, (order,), prec)[0]


def _shift_weight_rungs(mpx: MultiPowerExpansion, orders, prec) -> list:
    """The shift weights at each truncation order of ``orders`` (ascending),
    from one pass: each factor's weights are accumulated once, up to the
    last order, and read off at the others.  Each table is the one
    :func:`shift_weights` gives at its order, bit for bit."""
    scalar = (lambda c: c) if prec is None else (lambda c: as_mpc(c, prec))
    with mp.workprec(prec if prec is not None else mp.prec):
        totals: list = [{} for _ in orders]
        for term in mpx.terms:
            per_factor = []  # per factor, its weights at each order
            for e, series in term.factors:
                fac_w: dict = {}
                snapshots = []
                done = 0
                for order in orders:
                    for m_ in range(done, min(order, series.order) + 1):
                        b = scalar(series.coeffs[m_])
                        if b == 0:
                            continue
                        for a_ in range(m_ + 1):
                            key = e * a_
                            fac_w[key] = fac_w.get(key, 0) + b * ((-1) ** (m_ - a_) * binomial(m_, a_))
                    done = max(done, min(order, series.order) + 1)
                    snapshots.append(dict(fac_w))
                per_factor.append(snapshots)
            c = scalar(term.coeff)
            for i, total in enumerate(totals):
                weights = {0: 1}
                for snapshots in per_factor:
                    new: dict = {}
                    for k1, w1 in weights.items():
                        for k2, w2 in snapshots[i].items():
                            new[k1 + k2] = new.get(k1 + k2, 0) + w1 * w2
                    weights = new
                for k, w in weights.items():
                    total[k] = total.get(k, 0) + c * w
    out = []
    for total in totals:
        table = {}
        for k, v in total.items():
            if isinstance(v, CycloNum) and v.is_rational():
                v = v.to_fraction()
            if v != 0:
                table[k] = v
        out.append(table)
    return out


def _rungs(mpx: MultiPowerExpansion) -> tuple:
    """The truncation orders the operator series is planned over, all below the expansion's order."""
    return tuple(M for M in (32, 64, 128, 256, 512) if M < mpx.order)


@lru_cache(maxsize=64)
def _weight_tables(mpx: MultiPowerExpansion, prec) -> dict:
    """The weight tables of one expansion at ``prec`` bits (None: exact), by
    truncation order; :func:`_cached_weights` fills it."""
    return {}


def _cached_weights(mpx: MultiPowerExpansion, order: int, prec) -> dict:
    """The shift weights of ``mpx`` at ``order`` and ``prec``, cached per
    expansion, order and precision.  A missing rung of :func:`_rungs` is
    built in one pass with every missing rung below it, so the warm-up of
    one deep point leaves the tables of the shallower points behind."""
    tables = _weight_tables(mpx, prec)
    if order not in tables:
        orders = [order]
        if order in _rungs(mpx):
            orders = [M for M in _rungs(mpx) if M < order and M not in tables] + orders
        tables.update(zip(orders, _shift_weight_rungs(mpx, orders, prec)))
    return tables[order]


@lru_cache(maxsize=64)
def _table_sizes(mpx: MultiPowerExpansion, order: int, prec: int) -> tuple:
    """The shifts of a cached mpc weight table in ascending order, and
    log2 |W_sigma| for each, as floats."""
    weights = _weight_tables(mpx, prec)[order]
    sigmas = tuple(sorted(weights))
    with mp.workprec(64):
        return sigmas, tuple(float(mpmath.log(abs(weights[k]), 2)) for k in sigmas)


def _precision_class(bits: int) -> int:
    """Bits of the cached mpc weight table that serves ``bits`` working bits:
    the next multiple of 64, at least the bits the caller's bounds assume."""
    return -(-bits // 64) * 64


# ---------------------------------------------------------------------------
# a-priori truncation bound of the operator series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _TailPlan:
    """Float majorants of one expansion's operator series.

    ``pieces`` holds, per rung M < K = mpx.order, the terms the truncation
    at M leaves out, as (e, Q_0..Q_K, E): the indices i with |i| = n of the
    pieces with largest exponent e carry coefficients of total size at most
    Q_n for n <= K, and at most E (n/K)^grow past K.  A term with factors
    j = 1..k leaves out, for each j, the indices with i_j > M and
    i_l <= M for l > j; their |b| products are the convolution of the
    factors 1..j, with factor j past M only, times sum_{i<=M} |b_li| for each
    l > j, whose operator factors are at most 1; the largest exponent among
    1..j is e.  ``log2_size`` holds, per rung, log2 of
    sum_terms |c| prod_j sum_{m<=M} |b_jm| 2^m, which bounds the sum over
    sigma of the absolute contributions to the weights W_sigma."""

    rungs: tuple
    pieces: tuple
    log2_size: tuple
    grow: int
    order: int
    terms: int
    span: int  # the largest shift per unit of order: max over terms of sum_j e_j


# the majorants need magnitudes only; at 256 bits the cancellation among the
# coordinates of a cyclotomic coefficient stays far below what the bound sees
_MAJORANT_BITS = 256


def _log2(x: float) -> float:
    return math.log2(x) if x > 0 else -math.inf


def _log2_sum(logs) -> float:
    top = max(logs, default=-math.inf)
    if top == -math.inf:
        return top
    return top + math.log2(sum(2.0 ** (x - top) for x in logs))


def _convolve(p: list, b: list, K: int) -> list:
    q = [0.0] * (K + 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(b[: K + 1 - i]):
                q[i + j] += x * y
    return q


@lru_cache(maxsize=32)
def _tail_plan(mpx: MultiPowerExpansion) -> _TailPlan:
    K = mpx.order
    rungs = _rungs(mpx)
    pieces: list = [{} for _ in rungs]  # per rung, e -> Q
    size_logs: list = [[] for _ in rungs]
    with mp.workprec(_MAJORANT_BITS):
        for term in mpx.terms:
            c = float(abs(as_mpc(term.coeff, _MAJORANT_BITS)))
            factors = []
            for e, series in term.factors:
                b = [float(abs(as_mpc(x, _MAJORANT_BITS))) for x in series.coeffs[: K + 1]]
                factors.append((e, b + [0.0] * (K + 1 - len(b))))
            # |c| times the |b| product of the factors before j
            prefixes = [[c] + [0.0] * K]
            for _, b in factors[:-1]:
                prefixes.append(_convolve(prefixes[-1], b, K))
            for r, M in enumerate(rungs):
                sizes = (_log2_sum([_log2(y) + m for m, y in enumerate(b[: M + 1])]) for _, b in factors)
                size_logs[r].append(_log2(c) + sum(sizes))
                e_max = 1
                for j, (e, b) in enumerate(factors):
                    e_max = max(e_max, e)
                    scale = math.prod(sum(later[: M + 1]) for _, later in factors[j + 1 :])
                    q = _convolve(prefixes[j], [0.0] * (M + 1) + b[M + 1 :], K)
                    acc = pieces[r].setdefault(e_max, [0.0] * (K + 1))
                    for n, x in enumerate(q):
                        acc[n] += x * scale
    out = []
    for by_e in pieces:
        # past K the coefficients are taken to stay below twice the largest
        # of the last half, times (n/K)^grow (see hasse_eval)
        out.append(tuple((e, tuple(Q), 2 * max(Q[K // 2 + 1 :], default=0.0)) for e, Q in sorted(by_e.items())))
    span = max((sum(e for e, _ in term.factors) for term in mpx.terms), default=1)
    return _TailPlan(rungs, tuple(out), tuple(_log2_sum(x) for x in size_logs), mpx.nu + 1, K, len(mpx.terms), span)


def _truncation_log2_bounds(plan: _TailPlan, s: complex, t: complex) -> list:
    """log2 of a bound on the operator terms left out at each rung, at the
    point s (the operator's argument) and t, in floats.

    A left-out piece with largest exponent e and index total n is bounded,
    through the Laplace-Mellin form of Delta^i t^(-s) and v = e^(-e x), by
    its |b| products times |Gamma(s)|^(-1) I(n),
    I(n) = e^(-sigma) int_0^1 (-ln v)^(sigma-1) v^(T/e-1) (1-v)^n dv, where
    sigma = Re s and T = Re t.  Each case below gives I(n) <= P F B(a, n+beta):
    for sigma <= 1, -ln v >= 2(1-v)/(1+v) gives a = T/e, beta = sigma,
    P = e^(-sigma) 2^(sigma-1) and F = sum_j C(k, j) B(a+j, n+sigma) /
    B(a, n+sigma), k = ceil(1-sigma), which decreases in n and is taken at
    the rung's first index; for 1 < sigma < T/e + 1, -ln v <= (1-v)/sqrt(v)
    gives a = T/e - (sigma-1)/2, beta = sigma, P = e^(-sigma), F = 1; further
    right, (-ln v)^(sigma-1) <= ((sigma-1)/(alpha e))^(sigma-1) v^(-alpha)
    with alpha = T/(2e) gives a = T/(2e), beta = 1 and P = e^(-sigma) times
    that constant.  Past the expansion's order K, Q_n <= E (n/K)^grow and
    B(a, b) <= Gamma(a) (b-1)^(-a) sum to P F E Gamma(a) c^(-a)
    K^(1-a)/(a-grow-1), with c = min(1, 1 + (beta-1)/(K+1)).  A rung whose
    bound needs more decay than T gives (a <= grow+1, or an index n with
    n + beta <= 0) gets +inf."""
    sr = s.real
    K = plan.order
    ln2 = math.log(2)
    with mp.workprec(53):
        log2_rg = -float(mpmath.re(mpmath.loggamma(mpmath.mpc(s)))) / ln2
    k = 0 if sr > 1 else math.ceil(1 - sr)
    lo = plan.rungs[0] + 1 if plan.rungs else K + 1
    per_e = {}  # e -> (a, beta, log2 P, log2 B(a, lo+beta), B(a, n+beta)/B(a, lo+beta) for lo <= n <= K)
    out = []
    for M, pieces in zip(plan.rungs, plan.pieces):
        logs = []
        for e, Q, E in pieces:
            if e not in per_e:
                if sr <= 1:
                    a, beta, log2_p = t.real / e, sr, -sr * math.log2(e) + sr - 1
                elif sr - 1 < t.real / e:
                    a, beta, log2_p = t.real / e - (sr - 1) / 2, sr, -sr * math.log2(e)
                else:
                    alpha = t.real / (2 * e)
                    a, beta = alpha, 1.0
                    log2_p = -sr * math.log2(e) + (sr - 1) * math.log2((sr - 1) / (alpha * math.e))
                if a <= 0 or lo + beta <= 0 or (E > 0 and (a <= plan.grow + 1 or K + beta <= 0)):
                    return [math.inf] * len(plan.rungs)
                r, seq = 1.0, []
                for n in range(lo, K + 1):
                    seq.append(r)
                    r *= (n + beta) / (a + n + beta)
                log2_b0 = (math.lgamma(a) + math.lgamma(lo + beta) - math.lgamma(a + lo + beta)) / ln2
                per_e[e] = (a, beta, log2_p, log2_b0, seq)
            a, beta, log2_p, log2_b0, seq = per_e[e]
            part = sum(Q[n] * seq[n - lo] for n in range(M + 1, K + 1))
            if part > 0:
                logs.append(log2_p + _log2_beta_factor(k, a, M + 1 + beta) + log2_b0 + math.log2(part))
            if E > 0:
                c = min(1.0, 1 + (beta - 1) / (K + 1))
                tail = math.lgamma(a) - a * math.log(c) + (1 - a) * math.log(K) - math.log(a - plan.grow - 1)
                logs.append(log2_p + _log2_beta_factor(k, a, K + 1 + beta) + math.log2(E) + tail / ln2)
        out.append(log2_rg + _log2_sum(logs))
    return out


def _log2_beta_factor(k: int, a: float, b: float) -> float:
    """log2 of sum_j C(k, j) B(a+j, b)/B(a, b) = sum_j C(k, j) prod_{l<j} (a+l)/(a+b+l)."""
    total, ratio = 1.0, 1.0
    for j in range(1, k + 1):
        ratio *= (a + j - 1) / (a + b + j - 1)
        total += math.comb(k, j) * ratio
    return math.log2(total)


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

    For s = -n a nonpositive integer the operator series terminates
    identically on the polynomial t^n, so its shift form is exact there:
    H(-n, t) = sum_sigma W_sigma (t+sigma)^n over the shift weights at order
    min(mpx.order, max(n, 16)), summed in ascending sigma (ValueError for
    mpx.order < n).  Exact data and a rational t give an exact Fraction;
    otherwise the weights and the sum are mpc at max(order, n) + 64 guard
    bits, raised once if the terms cancel beyond them; the value is rounded
    to an absolute accuracy (:func:`_result`), as a caller may cancel it
    against a head.

    Otherwise one truncation order M is planned before any power is taken.
    The Laplace-Mellin form Delta^i t^(-s) = Gamma(s)^(-1) int_0^oo x^(s-1)
    e^(-tx) prod_j (e^(-e_j x) - 1)^(i_j) dx, which converges left of the
    axis too once |i| > -Re s, bounds every term a rung leaves out through
    the sizes of the expansion's coefficients (:func:`_tail_plan`,
    :func:`_truncation_log2_bounds`); the first rung of 32, 64, ... below
    mpx.order whose bound is at most eps/2 is summed, one power per weight,
    in ascending sigma.  The sum runs at log2 sum_sigma |W_sigma (t+sigma)^(-s)|
    (a float estimate) plus the bits of eps; the weights are kept at one
    precision per expansion and eps bits, enough for every rung and for
    powers up to 2^128 (a larger 64-bit class only where a point's powers
    outgrow it), so that every table a point reads was built by the deepest
    point before it, and :func:`_cached_weights` builds all rungs up to a
    missing one in one pass.  The reported bound is the truncation bound
    plus the rounding of the weights, of the sum and of the returned value
    (:func:`_result`).  The coefficients up to mpx.order enter the
    bound exactly; past it they are taken to stay below twice the largest of
    its last half times (n/order)^(nu+1), which covers the growth the
    (-ln z)^nu factor allows and the geometric decay of the pole factors.
    When no rung meets eps, :class:`SlowConvergenceError` is raised with
    the log2 bounds, all +inf where their conditions on s and t fail.

    H(s, t) is the entire continuation of s(s+1)...(s+nu-1) D(s+nu, t).
    """
    exact_s = _as_exact_int(s)
    if exact_s is not None and exact_s <= 0:
        n = -exact_s
        if mpx.order < n:
            raise ValueError("the shift form is exact on t^%d only from order %d" % (n, n))
        # exact on t^n once the order reaches n; at least 16 so that one
        # table serves every small n, at most mpx.order so that a deep
        # expansion never builds its full-order table for a small n
        order = min(mpx.order, max(n, 16))
        if mpx.kind == "exact" and isinstance(t, (int, Fraction)):
            t = Fraction(t)
            weights = _cached_weights(mpx, order, None)
            val = Fraction(0)
            for sigma in sorted(weights):
                val += weights[sigma] * (t + sigma) ** n
            if isinstance(val, CycloNum):
                val = val.to_fraction()
            return _result(val, "hasse-exact", n, Fraction(0), ctx, exact=val)
        # guard bits for the order, not for n: one table for every n <= 16,
        # raised once when the terms cancel by more than the bits cover
        guard = max(order, n) + 64
        eps = mpmath.mpf(ctx.target_eps)
        for _attempt in range(2):
            work = ctx.working_bits(guard)
            weights = _cached_weights(mpx, order, _precision_class(work))
            with mp.workprec(work):
                tc = as_mpc(t, work)
                val = mpmath.mpc(0)
                size = mpmath.mpf(0)
                for sigma in sorted(weights):
                    term = weights[sigma] * (tc + sigma) ** n
                    val += term
                    size += abs(term)
                # the weights hold about work - order bits (see shift_weights)
                # of terms as large as size
                res = _result(val, "hasse-exact", n, size * mpmath.mpf(2) ** (order - work), ctx)
            if res.tail_bound <= eps:
                return res
            guard += int(mpmath.mag(res.tail_bound / eps)) + 2
        raise SlowConvergenceError("operator sum at s = -%d cancels beyond its guard bits" % n)
    eps_b = _eps_bits(ctx)
    plan = _tail_plan(mpx)
    with mp.workprec(64):
        s0, t0 = complex(as_mpc(s, 64)), complex(as_mpc(t, 64))
    log2_trunc = _truncation_log2_bounds(plan, s0, t0)
    # the truncation takes half of eps, each rounding at most a sixteenth
    pick = next((i for i, b in enumerate(log2_trunc) if b <= -eps_b - 1), None)
    if pick is None:
        raise SlowConvergenceError(
            "operator series does not reach eps by order %d" % mpx.order,
            {"orders": plan.rungs, "log2_bounds": log2_trunc},
        )
    M = plan.rungs[pick]
    # the weights: their absolute contributions sum to at most 2^log2_v and
    # meet powers of at most 2^log2_pow, each power monotone in the shift
    log2_v = plan.log2_size[pick]
    log2_pow = max(_log2_abs_pow(s0, t0, 0), _log2_abs_pow(s0, t0, M * plan.span))
    count_w = 4 * (M + 1) * (1 + plan.terms)
    weight_bits = _precision_class(eps_b + math.ceil(max(plan.log2_size[-1], 0.0)) + 128)
    need = eps_b + 4 + math.log2(count_w) + log2_v + log2_pow
    if need > weight_bits:
        weight_bits = _precision_class(math.ceil(need))
    weights = _cached_weights(mpx, M, weight_bits)
    sigmas, log2_w = _table_sizes(mpx, M, weight_bits)
    # the sum: N terms of total size 2^log2_s, each power rounded with s and t
    log2_s = _log2_sum([w + _log2_abs_pow(s0, t0, k) for k, w in zip(sigmas, log2_w)])
    count_s = len(sigmas) + 16 * (1 + abs(s0))
    work = 64 if log2_s == -math.inf else max(64, math.ceil(log2_s + math.log2(count_s) + eps_b + 4))
    with mp.workprec(work):
        sc = as_mpc(s, work)
        tc = as_mpc(t, work)
        val = mpmath.mpc(0)
        for sigma in sigmas:
            val += weights[sigma] * (tc + sigma) ** (-sc)
    with mp.workprec(64):
        two = mpmath.mpf(2)
        bound = (
            two ** log2_trunc[pick]
            + count_s * two ** (log2_s - work)
            + count_w * two ** (log2_v + log2_pow - weight_bits)
        )
        return _result(val, "hasse", M, bound, ctx)


def _log2_abs_pow(s: complex, t: complex, sigma) -> float:
    """log2 |(t+sigma)^(-s)| in floats."""
    z = t + sigma
    return (-s.real * math.log(abs(z)) + s.imag * cmath.phase(z)) / math.log(2)


@lru_cache(maxsize=32)
def _shifted_mp(desc, shift, order, prec):
    with mp.workprec(prec):
        return build_shifted_multipower(desc, shift, order=order, prec=prec)


def continue_dirichlet(desc, sigma, t, ctx: ApproxContext) -> EvalResult:
    """Meromorphic continuation of D(sigma, t) via the operator series:

        D(sigma, t) = head_m + H(sigma-nu, t+m) / prod_j (sigma-nu+j)

    with an index shift m that turns the n^(-t) operator-term decay into
    n^(-t-m).  Fails with the residue attached when sigma is within
    sqrt(eps) of a genuine pole of D(., t); near a removable candidate the
    evaluation proceeds at elevated precision and flags the result, and at
    the candidate itself, where the operator route divides by a zero rising
    factorial, it fails with residue 0.  At an
    integer sigma <= nu the operator series terminates, and the shifted
    expansion is built only to the order hasse_eval reads there,
    max(nu - sigma, 16).  Elsewhere :func:`hasse_eval` sums one planned
    rung of the first of the orders 256, 512, 1024 with a rung that meets
    eps/8 min(1, |rising factorial|), none deeper once a bound is +inf: the
    reported bound, over the rising factorial, is certified and at most
    eps/8.  Left of the axis the head and the operator part grow like the
    head's largest term and cancel to D; where that costs more bits than the
    working precision spares, they are summed with as many more.
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
        rep = analyze(desc, t if isinstance(t, (int, Fraction)) else tc, 0, prec=work)
        nu = rep.nu
        flags = []
        extra_bits = 0
        for n in range(1, nu + 1):
            dist = abs(sc - n)
            if dist < mpmath.sqrt(eps):
                if n in rep.pole_set:
                    raise NearPoleError(
                        "sigma within eps^(1/2) of the pole at %d" % n,
                        pole=n,
                        residue=rep.residues[n],
                    )
                if dist == 0:
                    raise NearPoleError(
                        "sigma = %d is a removable candidate, where the operator route divides by zero" % n,
                        pole=n,
                        residue=0,
                    )
                flags.append("near-removable:%d" % n)
            if dist < 1:
                extra_bits = max(extra_bits, int(-mpmath.log(dist, 2)) + 8)
        digits = int(mpmath.ceil(-mpmath.log10(eps)))
        shift = max(8, int(1.3 * digits) + 8 - int(mpmath.floor(tc)))
        hs = sigma - nu if isinstance(sigma, (int, Fraction)) else sc - nu
        hs_int = _as_exact_int(hs)
        if hs_int is not None and hs_int <= 0:
            # hasse_eval reads at most order max(-hs_int, 16) there
            orders = (max(-hs_int, 16),)
        else:
            # a deeper expansion only where no rung of the one before meets eps
            orders = (256, 512, 1024)
        # left of the axis the head and the operator part each grow like the
        # head's largest term and cancel to D: carry the bits they cancel
        lift = 0
        if sc.real < 0:
            largest = max(abs(as_mpc(a, work)) for a in coeffs(desc, shift, prec=work))
            largest *= (tc + shift) ** (-sc.real)
            lift = max(0, int(mpmath.mag(largest)) + ctx.precision_bits + 8 - work)
    work += lift
    with mp.workprec(work):
        sc, tc = as_mpc(sigma, work), as_mpf(t, work)
        rising = mpmath.mpc(1)
        for j in range(nu):
            rising *= sc - nu + j
        head = _head_sum(coeffs(desc, shift, prec=work), sc, tc, work)
        sub_eps = float(eps / 8 * min(mpmath.mpf(1), abs(rising))) if nu else float(eps / 8)
        sub = ApproxContext(
            precision_bits=ctx.precision_bits + extra_bits + 32,
            target_eps=max(sub_eps, 2.0 ** (-(ctx.precision_bits + extra_bits + 16))),
            max_terms=ctx.max_terms,
        )
        for order in orders:
            mpx = _shifted_mp(desc, shift, order, ctx.working_bits(eps_b + 64))
            try:
                hres = hasse_eval(mpx, hs, t + shift if isinstance(t, (int, Fraction)) else tc + shift, sub)
                break
            except SlowConvergenceError as err:
                if order == orders[-1] or err.diagnostics["log2_bounds"][-1] == math.inf:
                    raise
        # an exact operator value enters whole, not rounded to the sub-context's bits
        hval = as_mpc(hres.exact_value, work) if hres.exact_value is not None else hres.mpc()
        value = head + (hval / rising if nu else hval)
        bound = as_mpf(hres.tail_bound, work)
        if nu:
            bound = bound / abs(rising)
        return _result(value, "hasse-continuation", hres.truncation, bound, ctx, flags, kind=hres.bound_kind)


# ---------------------------------------------------------------------------
# incomplete-gamma method (pole-free series)
# ---------------------------------------------------------------------------


def incgamma_eval(desc, s, t, ctx: ApproxContext) -> EvalResult:
    """Lower-incomplete-gamma split of D(s,t) for nu = 0 series:

        eps^s sum_n psi_n eps^n s^(rising n) gamma*(s+n, t eps)
        + (1/Gamma(s)) int_eps^infty e^(-ut) alpha(e^(-u)) u^(s-1) du

    where psi_n are the Taylor coefficients of alpha(e^(-u)) at u=0 and
    eps = min(1, rho/2) for their convergence radius rho.  The head takes
    gamma*(s+nh, t eps) once and the rest by the downward recurrence
    gamma*(a, z) = z gamma*(a+1, z) + e^(-z)/Gamma(a+1) (DLMF 8.8.1), its
    1/Gamma from :func:`mpmath.rgamma`, as is 1/Gamma(s) (:func:`recip_gamma`).
    The integrand evaluates alpha in closed form (:func:`tame.alpha_evaluator`).
    The integral is cut at the least U whose remainder is certified small,
    and [eps, U] takes one tanh-sinh rule whose step and length
    :func:`_ts_plan` fixes before any integrand call, from the integrand's
    majorant on a strip (:class:`_IntegrandBound`).  Cutoff, rule and
    rounding are bounded to eps/max(1, |1/Gamma(s)|), since their error is
    scaled by 1/Gamma(s), so the whole bound is certified.
    """
    eps_b = _eps_bits(ctx)
    work = ctx.working_bits(eps_b + 32)
    with mp.workprec(work):
        sc = as_mpc(s, work)
        tc = as_mpf(t, work)
        if tc <= 0:
            raise RegionError("t must be positive")
        eps = mpmath.mpf(ctx.target_eps)
        rho = _exp_radius(desc, work)
        epsilon = min(mpmath.mpf(1), rho / 2)
        ratio = epsilon / rho
        nh = int(mpmath.ceil((eps_b + 16) * mpmath.log(2) / -mpmath.log(ratio))) + 8
        td = _incgamma_todd(desc, nh, work)
        if td.nu != 0:
            raise RegionError("incomplete-gamma method needs a pole-free series (nu = 0)")
        gstar, inv_gamma = _gamma_star_down(sc, tc * epsilon, nh, work + 16)
        head = mpmath.mpc(0)
        rising = mpmath.mpc(1)
        eps_n = mpmath.mpf(1)
        max_scaled = mpmath.mpf(0)
        for n in range(nh + 1):
            psi_n = as_mpc(td.taus[n], work) * ((-1) ** n) / as_mpf(factorial(n), work)
            term = psi_n * eps_n * rising * gstar[n]
            head += term
            if n > nh // 2:
                max_scaled = max(max_scaled, abs(term) / ratio**n)
            rising = rising * (sc + n)
            eps_n = eps_n * epsilon
        eps_pow = mpmath.power(epsilon, sc)
        head = eps_pow * head
        head_tail = abs(eps_pow) * max_scaled * ratio ** (nh + 1) / (1 - ratio)
        quad_eps = eps / max(1, abs(inv_gamma))
        log2_eps = float(mpmath.log(quad_eps, 2))
        fb = _IntegrandBound.of(desc, sc, tc, work)
        upper = _tail_cutoff(fb, float(epsilon), log2_eps - 3)
        plan = _ts_plan(fb, float(epsilon), upper, log2_eps - 1)
        integrand = _make_integrand(desc, sc, tc, work)
        integral, size = _tanh_sinh(integrand, epsilon, upper, plan, work)
        two = mpmath.mpf(2)
        quad_err = two**plan.log2_err + two ** fb.beyond(upper) + size * two ** (_ROUNDING_ULPS - work)
        value = head + inv_gamma * integral
        bound = head_tail + abs(inv_gamma) * quad_err
        return _result(value, "incomplete-gamma", nh, bound, ctx)


@lru_cache(maxsize=32)
def _incgamma_todd(desc, nh, work):
    """The Todd series of the incomplete-gamma head: psi_n come from its
    tau_n, per descriptor, head length and working bits."""
    from .bernoulli import todd_series

    return todd_series(laurent_at_one(desc, nh + 2, prec=work), nh)


def _exp_radius(desc, work):
    """Distance from u=0 to the nearest singularity of alpha(e^(-u)).  A
    polynomial alpha has none, and any radius serves: it takes 2 pi."""
    with mp.workprec(work):
        sings = singularities(desc, work)
        if not sings:
            return 2 * mpmath.pi
        best = mpmath.inf
        for s_ in sings:
            q = as_mpc(s_.value, work)
            base = -mpmath.log(q)
            for k in (-1, 0, 1):
                best = min(best, abs(base + 2j * mpmath.pi * k))
        return best


def _make_integrand(desc, sc, tc, work):
    """u -> e^(-ut) alpha(e^(-u)) u^(s-1) for real u > 0, its two powers
    taken as one complex exp."""
    alpha = alpha_evaluator(desc, work)
    s1 = sc - 1

    def f(u):
        with mp.workprec(work):
            return alpha(mpmath.exp(-u)) * mpmath.exp(s1 * mpmath.log(u) - u * tc)

    return f


_LOG2E = 1 / math.log(2)
# |a_n| enter the alpha majorant exactly up to this index; a dominating
# series bounds the rest in closed form
_MAJORANT_HEAD = 64
# the majorant is tabulated at Re u = 2^(j/_MAJORANT_GRID), rounded down
_MAJORANT_GRID = 16


@lru_cache(maxsize=32)
def _alpha_majorant(desc, work):
    """j -> log2 of a bound for |alpha(e^(-u))| over Re u >= 2^(j/_MAJORANT_GRID),
    cached per j.

    The bound is sum_n |a_n| r^(n-1) at r = e^(-Re u), which decreases in
    Re u: the |a_n| up to K = _MAJORANT_HEAD, and past K the sum of a
    series that dominates them.  A rational alpha = num/den has a monic
    den = prod (z - q_j), so num+(z)/prod (|q_j| - z), num+ with
    coefficients |num_i|, dominates alpha coefficient by coefficient.
    Lerch at an inexact w has |a_n| = |w|^(n-1), and central-binomial has
    positive, decreasing a_n."""
    K = _MAJORANT_HEAD
    with mp.workprec(work):
        head = tuple(float(abs(as_mpc(a, work))) for a in coeffs(desc, K, prec=work))
        rf = as_rational_fn(desc)
        if rf is not None:
            roots = [(float(abs(as_mpc(q.value, work))), q.multiplicity) for q in singularities(desc, work)]
            # singularities leaves out z = 1; a pole there has |q| = 1
            roots.append((1.0, rf.den.degree - sum(m for _, m in roots)))
            num = [float(abs(c)) for c in rf.num.coeffs]

            def whole(r):
                out = sum(c * r**i for i, c in enumerate(num))
                for mod, mult in roots:
                    out /= (mod - r) ** mult
                return out

            dom = num[:K] + [0.0] * (K - len(num))
            for mod, mult in roots:
                for _ in range(mult):
                    c = 0.0
                    for n in range(K):
                        c = (dom[n] + c) / mod  # times 1/(|q| - z)
                        dom[n] = c

            def rest(r):
                total = whole(r)
                return max(0.0, total - sum(c * r**i for i, c in enumerate(dom))) + total * 2.0**-40

        elif isinstance(desc, LerchDescriptor):
            wabs = float(abs(as_mpc(desc.w, work)))

            def rest(r):
                return (wabs * r) ** K / (1 - wabs * r) if wabs * r < 1 else math.inf

        elif isinstance(desc, BuiltinDescriptor) and desc.name == "central-binomial":

            def rest(r):
                return head[-1] * r**K / (1 - r)

        else:
            raise TypeError("no alpha majorant for %r" % (desc,))

    @lru_cache(maxsize=None)
    def log2_bound(j) -> float:
        r = math.exp(-(2.0 ** (j / _MAJORANT_GRID)))
        if not r < 1:
            return math.inf
        return _log2(sum(c * r**i for i, c in enumerate(head)) + rest(r))

    return log2_bound


@dataclass(frozen=True)
class _IntegrandBound:
    """Majorants of the incgamma integrand f(u) = e^(-ut) alpha(e^(-u)) u^(s-1)
    for Re s = p + 1, |Im s| = tau, real t > 0, all in log2;
    ``alpha_log2`` is :func:`_alpha_majorant`."""

    alpha_log2: object
    p: float
    tau: float
    t: float

    @classmethod
    def of(cls, desc, sc, tc, work):
        return cls(_alpha_majorant(desc, work), float(sc.real) - 1, abs(float(sc.imag)), float(tc))

    def box(self, re_lo, re_hi, im_hi) -> float:
        """sup |f| over re_lo <= Re u <= re_hi, |Im u| <= im_hi, from

            |e^(-ut)| = e^(-t Re u),
            |u^(s-1)| <= |u|^p e^(tau |arg u|), |u| <= Re u + im_hi,
            |alpha(e^(-u))| <= sum_n |a_n| e^(-(n-1) Re u);

        infinite unless the box lies in Re u > 0, where u^(s-1) and
        alpha(e^(-u)) are analytic."""
        if not re_lo > 0:
            return math.inf
        p, t = self.p, self.t
        if p > 0:
            # e^(-tx) (x + im_hi)^p peaks at x + im_hi = p/t
            y = min(max(p / t, re_lo + im_hi), re_hi + im_hi)
            log_e = -t * (y - im_hi) + p * math.log(y)
        else:
            log_e = -t * re_lo + p * math.log(re_lo)
        log_e += self.tau * math.atan2(im_hi, re_lo)
        return log_e * _LOG2E + self.alpha_log2(math.floor(_MAJORANT_GRID * math.log2(re_lo)))

    def beyond(self, upper) -> float:
        """int_upper^oo |f(u)| du <= sup_(u >= upper) |alpha| e^(-t upper)
        upper^p / (t - p/upper), since u^p e^(-tu) <= upper^p e^(-t upper)
        e^(-(t - p/upper)(u - upper)) for p >= 0; infinite where t <= p/upper."""
        rate = self.t - max(self.p, 0.0) / upper
        if not rate > 0:
            return math.inf
        return self.box(upper, upper, 0.0) - math.log2(rate)


def _tail_cutoff(fb: _IntegrandBound, lo, log2_eps) -> float:
    """The least point u = 2 lo 1.05^k whose remainder int_u^oo |f| is at
    most 2^log2_eps."""
    u = 2 * lo
    for _ in range(400):
        if fb.beyond(u) <= log2_eps:
            return u
        u *= 1.05
    raise SlowConvergenceError("could not place the integral cutoff")


# ---------------------------------------------------------------------------
# tanh-sinh quadrature with a planned step
#
# On [lo, hi] the rule is the trapezoidal rule in z for
#   g(z) = f(u(z)) half phi'(z),  u = mid + half phi(z),  phi(z) = tanh(pi/2 sinh z).
# Where g is analytic on the strip |Im z| < a, Trefethen & Weideman (SIAM
# Review 56, 2014, Thm 5.1) bound its error by 2M/(e^(2 pi a/h) - 1), M the
# largest int |g(x+iy)| dx over the strip.  With w = pi/2 sinh z = A + iB,
#   delta = 1 - phi(z) = 2/(e^(2w) + 1),   |phi'(z)| <= pi/2 cosh x / |cosh w|^2,
#   |cosh w|^2 = sinh(A)^2 + cos(B)^2,
# and x >= 0 maps near hi (u = hi - half delta), x <= 0 near lo (u = lo +
# half delta(-z)).
# ---------------------------------------------------------------------------

# strip half-widths a the planner tries, widest first (all < pi/2), the
# width of its x-cells, and how many cells at most before one closed-form
# rest (past x = 3.5 the rest is below 1e-11 of the strip integral)
_STRIP_WIDTHS = (1.0, 0.8, 0.7, 0.6, 0.55, 0.5, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2, 0.15, 0.1)
_CELL = 1 / 16
_CELLS = 56
# the rule's rounding: each term takes a handful of roundings at the working
# bits, and the sum one per term; 2^10 ulps of sum |terms| covers both
_ROUNDING_ULPS = 10


@lru_cache(maxsize=None)
def _strip_cells(a: float) -> array:
    """Six floats per x-cell [x0, x1] of 0 <= x, |y| <= a: a box for delta,
    (Re delta low, Re delta high, |Im delta| high), and log2 of the cell
    width times sup |phi'|; then for x >= x1 as a whole e with the box
    (-e, e, e), and log2 of int |phi'| dx.  Depends on a alone, so every
    point shares it.

    With A in [A0, A1], |B| <= B1 on a cell: Re delta = (cos 2B + e^(-2A))/D,
    Im delta = -sin 2B/D, D = cosh 2A + cos 2B = 2|cosh w|^2, and
    |delta| <= 2p/(1 - p) for p = e^(-2A) < 1.  Past x1, A >= A0(x1) and
    int |phi'| dx <= (coth A0(x1) - 1)/cos a, which is that same 2p/(1-p)
    over cos a."""
    ca, sa = math.cos(a), math.sin(a)
    half_pi = math.pi / 2
    out = array("d")
    for i in range(_CELLS):
        x0, x1 = i * _CELL, (i + 1) * _CELL
        a0 = half_pi * math.sinh(x0) * ca
        a1 = half_pi * math.sinh(x1)
        b1 = half_pi * math.cosh(x1) * sa
        lower = math.sinh(a0) ** 2 + (math.cos(b1) ** 2 if b1 < half_pi else 0.0)  # |cosh w|^2
        d_lo, d_hi = 2 * lower, math.cosh(2 * a1) + 1
        p_hi = math.exp(-2 * a0)
        c2 = math.cos(2 * b1) if 2 * b1 < math.pi else -1.0
        num_lo = math.exp(-2 * a1) + c2
        re_lo = num_lo / (d_hi if num_lo >= 0 else d_lo)
        re_hi = (1 + p_hi) / d_lo
        im_hi = (math.sin(2 * b1) if 2 * b1 < half_pi else 1.0) / d_lo
        if p_hi < 1:
            e = 2 * p_hi / (1 - p_hi)
            re_lo, re_hi, im_hi = max(re_lo, -e), min(re_hi, e), min(im_hi, e)
        p_rest = math.exp(-2 * half_pi * math.sinh(x1) * ca)
        e_rest = 2 * p_rest / (1 - p_rest)
        log2_w = math.log2(_CELL * half_pi * math.cosh(x1) / lower)
        out.extend((re_lo, re_hi, im_hi, log2_w, e_rest, math.log2(e_rest / ca)))
    return out


def _strip_log2_m(fb: _IntegrandBound, lo, hi, a) -> float:
    """log2 of M for the strip of half-width a: per cell, its phi' weight
    times the majorant of f over the cell's u-box, on both sides."""
    half = (hi - lo) / 2

    def weighted(side, re_lo, re_hi, im_hi, log2_w):
        if side < 0:  # x <= 0 maps near lo
            return log2_w + fb.box(lo + half * re_lo, lo + half * re_hi, half * im_hi)
        return log2_w + fb.box(hi - half * re_hi, hi - half * re_lo, half * im_hi)

    terms = []
    cells = _strip_cells(a)
    for side in (-1, 1):
        for i in range(0, len(cells), 6):
            re_lo, re_hi, im_hi, log2_w, e, log2_rest = cells[i : i + 6]
            term = weighted(side, re_lo, re_hi, im_hi, log2_w)
            if term == math.inf:
                return math.inf
            terms.append(term)
            # the rest past this cell closes the side once it is negligible
            rest_term = weighted(side, -e, e, e, log2_rest)
            if rest_term < max(terms) - 60 or i == len(cells) - 6:
                terms.append(rest_term)
                break
    return math.log2(half) + _log2_sum(terms)


@dataclass(frozen=True)
class _TanhSinhPlan:
    """One tanh-sinh rule, fixed before any integrand call."""

    a: float  # strip half-width
    log2_m: float  # log2 of M on that strip
    steps: int  # h = 1/steps
    left: int  # nodes -left..right
    right: int
    log2_err: float  # discretization plus both truncations

    @property
    def nodes(self) -> int:
        return self.left + self.right + 1


def _ts_cut_log2(fb: _IntegrandBound, lo, hi, steps, side, n) -> float:
    """log2 of a bound on what one side's nodes k > n add: with delta_n =
    1 - phi(nh) <= 2 e^(-pi sinh(nh)), h sum_(k>n) phi'(kh) <= delta_n
    (phi' decreases), and those nodes lie within half delta_n of their end
    of [lo, hi], so sup|f| is taken there."""
    half = (hi - lo) / 2
    v = math.pi * math.sinh(n / steps)
    reach = 2 * half * math.exp(-v)
    box = (lo, min(lo + reach, hi), 0.0) if side < 0 else (max(hi - reach, lo), hi, 0.0)
    return math.log2(half) + 1 - v * _LOG2E + fb.box(*box)


def _ts_errors(fb: _IntegrandBound, lo, hi, a, log2_m, steps, left, right) -> float:
    """log2 of the error bound of the rule with step h = 1/steps and nodes
    -left..right: 2M/(e^(2 pi a/h) - 1) plus both sides' cut-offs."""
    x = 2 * math.pi * a * steps  # 2 pi a/h
    disc = 1 + log2_m - x * _LOG2E - math.log2(-math.expm1(-x))
    return _log2_sum([disc, _ts_cut_log2(fb, lo, hi, steps, -1, left), _ts_cut_log2(fb, lo, hi, steps, 1, right)])


def _ts_cut(fb: _IntegrandBound, lo, hi, steps, side, log2_eps) -> int:
    """Least n whose cut-off bound (:func:`_ts_cut_log2`, decreasing in n)
    is at most 2^log2_eps."""
    top = 1
    while _ts_cut_log2(fb, lo, hi, steps, side, top) > log2_eps:
        top *= 2
    below = -1  # the bound at n = below is above 2^log2_eps, or below = -1
    while top - below > 1:
        n = (top + below) // 2
        if _ts_cut_log2(fb, lo, hi, steps, side, n) > log2_eps:
            below = n
        else:
            top = n
    return top


def _ts_plan(fb: _IntegrandBound, lo, hi, log2_eps) -> _TanhSinhPlan:
    """The tanh-sinh rule on [lo, hi] with the fewest nodes whose error
    bound is at most 2^log2_eps: half of it for the discretization, a
    quarter for each side's cut-off.  Tries the strip half-widths of
    _STRIP_WIDTHS from the widest down: a strip whose u-image leaves
    Re u > 0 is skipped, and the search stops once a narrower strip needs
    more nodes than the best so far.  The step is 1/steps for an integer
    steps, so that points share nodes."""
    best = None
    for a in _STRIP_WIDTHS:
        log2_m = _strip_log2_m(fb, lo, hi, a)
        if log2_m == math.inf:
            continue
        # 2M/(e^x - 1) <= eps/2 for x = 2 pi a/h
        ratio = 2 + log2_m - log2_eps
        x = ratio * math.log(2) + math.log1p(2.0**-ratio) if ratio > 0 else math.log1p(2.0**ratio)
        steps = math.ceil(x / (2 * math.pi * a))
        left = _ts_cut(fb, lo, hi, steps, -1, log2_eps - 2)
        right = _ts_cut(fb, lo, hi, steps, 1, log2_eps - 2)
        err = _ts_errors(fb, lo, hi, a, log2_m, steps, left, right)
        plan = _TanhSinhPlan(a, log2_m, steps, left, right, err)
        if best is not None and plan.nodes > best.nodes:
            break
        if best is None or (plan.nodes, plan.log2_err) < (best.nodes, best.log2_err):
            best = plan
    if best is None:
        raise SlowConvergenceError("no strip keeps the tanh-sinh integrand analytic")
    return best


def _tanh_sinh(f, lo, hi, plan: _TanhSinhPlan, work):
    """h half sum_k phi'(kh) f(u(kh)), k = -plan.left..plan.right, h =
    1/plan.steps, and h half sum_k |phi'(kh) f(u(kh))| for the rounding
    bound.  f is called once per node, at u = lo + half delta_k and
    hi - half delta_k, so no abscissa is lost to cancellation near an end."""
    with mp.workprec(work):
        lo = as_mpf(lo, work)
        hi = as_mpf(hi, work)
        half = (hi - lo) / 2
        nodes = _ts_node_list(plan.steps, max(plan.left, plan.right), work)
        terms = [nodes[0][1] * f(lo + half)]
        terms += [w * f(lo + half * d) for d, w in nodes[1 : plan.left + 1]]
        terms += [w * f(hi - half * d) for d, w in nodes[1 : plan.right + 1]]
        scale = half / plan.steps
        size = mpmath.fsum(abs(v.real) + abs(v.imag) for v in terms)
        return mpmath.fsum(terms) * scale, size * scale


@lru_cache(maxsize=64)
def _ts_nodes(steps, work) -> list:
    """The nodes (delta_k, phi'(kh)) for h = 1/steps, k = 0, 1, 2, ... at
    ``work`` bits, where delta_k = 1 - phi(kh); :func:`_ts_node_list`
    extends the list as far as a rule needs."""
    return []


# nodes are built in blocks of this many, each from its own e^(kh), so that
# their values do not depend on how far earlier rules extended the list
_NODE_BLOCK = 32


def _ts_node_list(steps, count, work) -> list:
    """Nodes 0..count of step 1/steps, one exp each: with E = e^(kh) and
    q = e^(-pi sinh kh), delta = 2q/(1+q) and phi' = pi (E + 1/E) q/(1+q)^2."""
    nodes = _ts_nodes(steps, work)
    if len(nodes) <= count:
        with mp.workprec(work + 16):
            grow = mpmath.exp(mpmath.mpf(1) / steps)
            while len(nodes) <= count:
                big = mpmath.exp(mpmath.mpf(len(nodes)) / steps)
                for _ in range(_NODE_BLOCK):
                    small = 1 / big
                    q = mpmath.exp(-mpmath.pi * (big - small) / 2)
                    nodes.append((2 * q / (1 + q), mpmath.pi * (big + small) * q / (1 + q) ** 2))
                    big *= grow
    return nodes
