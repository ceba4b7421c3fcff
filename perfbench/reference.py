"""Reference values computed apart from tamezeta.

Nothing here imports the program.  Numeric references come from mpmath's
own Hurwitz zeta function, or from geometrically convergent series summed
directly (Lerch, central-binomial; the tests check the Lerch sum against
``mpmath.lerchphi``); exact references come from a Hurwitz decomposition evaluated with
this module's own Bernoulli polynomials.

Series are described by plain specs (see :func:`spec`), the same specs the
workload generator hands to the program's descriptor constructors.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

# mpmath is imported by the numeric functions only, so that generating
# inputs does not load it before the program's timed import.

# Precision of the numeric references, far above the 128 bits under test.
REF_BITS = 192


# ---------------------------------------------------------------------------
# exact polynomials in z (ascending Fraction coefficients)
# ---------------------------------------------------------------------------


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _psub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _one_minus_zpow(k):
    return [Fraction(1)] + [Fraction(0)] * (k - 1) + [Fraction(-1)]


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _root_one_multiplicity(p):
    """Multiplicity of z = 1 as a root of p (synthetic division by z - 1)."""
    p = _trim(p)
    mult = 0
    while len(p) > 1 and sum(p) == 0:
        # divide by (z - 1): descending synthetic division
        desc = p[::-1]
        q = [desc[0]]
        for c in desc[1:-1]:
            q.append(c + q[-1])
        p = q[::-1]
        mult += 1
    return mult


# ---------------------------------------------------------------------------
# series specs
# ---------------------------------------------------------------------------


def spec(kind, **params):
    """A hashable series spec: ("barnes", (("a", (1, 1)),)) and so on.

    Kinds: hurwitz, eta, character (modulus, values, power), lerch (w),
    barnes (a), ehrhart (g, p, d), rational (num, den: den cyclotomic),
    central-binomial, zeta-even.
    """
    return (kind, tuple(sorted(params.items())))


def _params(sp):
    return dict(sp[1])


@lru_cache(maxsize=None)
def rational_form(sp):
    """(num, den) with alpha = num/den and den cyclotomic, or None."""
    kind, p = sp[0], _params(sp)
    if kind == "hurwitz":
        return ([Fraction(1)], _one_minus_zpow(1))
    if kind == "eta":
        return ([Fraction(1)], [Fraction(1), Fraction(1)])
    if kind == "character":
        den = [Fraction(1)]
        for _ in range(p["power"]):
            den = _pmul(den, _one_minus_zpow(p["modulus"]))
        return ([Fraction(v) for v in p["values"]], den)
    if kind == "barnes":
        den = [Fraction(1)]
        for a in p["a"]:
            den = _pmul(den, _one_minus_zpow(a))
        return ([Fraction(1)], den)
    if kind == "ehrhart":
        den = [Fraction(1)]
        for _ in range(p["d"] + 1):
            den = _pmul(den, _one_minus_zpow(p["p"]))
        num = _psub([Fraction(c) for c in p["g"]], den)  # Ehr - 1 over den
        if num[0] != 0:
            raise ValueError("g must have constant term 1")
        return (num[1:], den)
    if kind == "rational":
        return ([Fraction(c) for c in p["num"]], [Fraction(c) for c in p["den"]])
    return None


def _pmod(p, d):
    """Remainder of p on division by d."""
    r, d = _trim(p), _trim(d)
    while len(r) >= len(d) and any(r):
        f, shift = r[-1] / d[-1], len(r) - len(d)
        for i, c in enumerate(d):
            r[shift + i] -= f * c
        r = _trim(r)
    return r


def cyclotomic_shape(den):
    """(period, degree): the least k and m with den dividing (1 - z^k)^m,
    and m - 1.  The Taylor coefficients of num/den are then, from some index
    on, a quasi-polynomial of period k and degree m - 1 (the roots of den
    are k-th roots of unity of multiplicity at most m)."""
    n = len(_trim(den)) - 1
    if n == 0:
        return 1, 0
    for k in range(1, 64 * n + 2):
        power = [Fraction(1)]
        for m in range(1, n + 1):
            power = _pmul(power, _one_minus_zpow(k))
            if not any(_pmod(power, den)):
                return k, m - 1
    raise ValueError("denominator %r is not cyclotomic" % (den,))


def taylor(num, den, count):
    """First ``count`` Taylor coefficients of num/den at z = 0."""
    out = []
    for n in range(count):
        acc = num[n] if n < len(num) else Fraction(0)
        for j in range(1, min(n, len(den) - 1) + 1):
            acc -= den[j] * out[n - j]
        out.append(acc / den[0])
    return out


def _interpolate(xs, ys):
    """Ascending coefficients of the polynomial through (xs, ys), exactly."""
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                basis = _pmul(basis, [Fraction(-xj), Fraction(1)])
                denom *= xi - xj
        for k, c in enumerate(basis):
            coeffs[k] += yi * c / denom
    return coeffs


def _peval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _shift_scale(p, m, t):
    """Coefficients in x of p(m x - t)."""
    out = [Fraction(0)]
    power = [Fraction(1)]
    lin = [Fraction(-t), Fraction(m)]
    for c in p:
        out = _psub(out, [-c * v for v in power])
        power = _pmul(power, lin)
    return out


@lru_cache(maxsize=None)
def quasi_model(sp):
    """(head, class_polys, period) with a_{n+1} = class_polys[n % period](n)
    for n >= len(head) and a_{n+1} = head[n] below that.

    The fit is checked on two further samples per class.
    """
    num, den = rational_form(sp)
    period, degree = cyclotomic_shape(tuple(den))
    n0 = max(0, len(_trim(num)) - len(_trim(den)) + 1)
    need = n0 + period * (degree + 3)
    c = taylor(num, den, need)
    polys = []
    for r in range(period):
        idx = [n for n in range(n0, need) if n % period == r]
        xs, ys = idx[: degree + 1], [c[n] for n in idx[: degree + 1]]
        poly = _interpolate(xs, ys)
        for n in idx[degree + 1 :]:
            if _peval(poly, n) != c[n]:
                raise ArithmeticError("coefficients of %r are not quasi-polynomial" % (sp,))
        polys.append(poly)
    return tuple(c[:n0]), tuple(tuple(p) for p in polys), period


def pole_order(sp):
    """Order nu of the pole of alpha at z = 1."""
    kind = sp[0]
    if kind in ("lerch", "central-binomial"):
        return 0
    if kind == "zeta-even":
        return 1
    num, den = rational_form(sp)
    return max(0, _root_one_multiplicity(den) - _root_one_multiplicity(num))


def _hurwitz_pieces(sp, t):
    """[(r, i, g)] with D_qp(s,t) = sum m^-s g zeta(s-i, (t+r)/m), plus the
    exact head correction [(n, a_{n+1} - P(n))]."""
    head, polys, m = quasi_model(sp)
    pieces = []
    for r, poly in enumerate(polys):
        for i, g in enumerate(_shift_scale(poly, m, t)):
            if g != 0:
                pieces.append((r, i, g))
    corr = [(n, a - _peval(polys[n % m], n)) for n, a in enumerate(head)]
    return pieces, [(n, d) for n, d in corr if d != 0], m


# ---------------------------------------------------------------------------
# exact continuation data
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli_number(n):
    """B_n with B_1 = -1/2, from sum_{k<=n} C(n+1, k) B_k = 0."""
    if n == 0:
        return Fraction(1)
    return -sum(comb(n + 1, k) * bernoulli_number(k) for k in range(n)) / (n + 1)


def bernoulli_poly(n, x):
    """B_n(x) = sum_k C(n, k) B_k x^(n-k), exactly."""
    x = Fraction(x)
    return sum(comb(n, k) * bernoulli_number(k) * x ** (n - k) for k in range(n + 1))


def special_value(sp, N, t):
    """D(-N, t) exactly, from zeta(-k, b) = -B_{k+1}(b)/(k+1)."""
    t = Fraction(t)
    pieces, corr, m = _hurwitz_pieces(sp, t)
    acc = sum(d * (t + n) ** N for n, d in corr)
    for r, i, g in pieces:
        k = N + i
        acc += Fraction(m) ** N * g * (-bernoulli_poly(k + 1, (t + r) / m) / (k + 1))
    return acc


def residues(sp, t):
    """{n: Res_{s=n} D(s, t)} for n = 1..nu, zeros included, exactly."""
    t = Fraction(t)
    pieces, _, m = _hurwitz_pieces(sp, t)
    out = {n: Fraction(0) for n in range(1, pole_order(sp) + 1)}
    for _r, i, g in pieces:
        # zeta(s - i, b) has residue 1 at s = i + 1
        out[i + 1] = out.get(i + 1, Fraction(0)) + g / Fraction(m) ** (i + 1)
    return out


# ---------------------------------------------------------------------------
# numeric values
# ---------------------------------------------------------------------------


def mp_number(x):
    """x as an mpmath number; Fractions are divided at the working precision."""
    import mpmath

    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpmathify(x)


@lru_cache(maxsize=4096)
def value(sp, s, t, bits=REF_BITS):
    """D(s, t) as an mpc at ``bits`` bits."""
    import mpmath

    kind = sp[0]
    with mpmath.mp.workprec(bits + 32):
        sc, tc = mp_number(s), mp_number(t)
        if kind == "lerch":
            w = mp_number(_params(sp)["w"])
            out = _direct(lambda n: w**n, sc, tc, bits)
        elif kind == "central-binomial":
            out = _direct(lambda n: mpmath.mpf(1) / comb(2 * n + 2, n + 1), sc, tc, bits)
        elif kind == "zeta-even":
            out = _zeta_even(sc, tc, bits)
        else:
            pieces, corr, m = _hurwitz_pieces(sp, Fraction(t))
            out = mpmath.mpc(0)
            for n, d in corr:
                out += mp_number(d) * (tc + n) ** (-sc)
            mpow = mpmath.mpf(m) ** (-sc)
            for r, i, g in pieces:
                out += mp_number(g) * mpow * mpmath.zeta(sc - i, (tc + r) / m)
        return mpmath.mpc(out)


def _converged(term, n, sc, floor):
    return n > 8 + 4 * abs(sc) and abs(term) < floor


def _direct(coeff, sc, tc, bits):
    """sum_{n>=0} coeff(n) (t+n)^-s for coefficients decaying at least like
    2^-n (Lerch with |w| = 1/2; 1/C(2n+2, n+1) decays like 4^-n)."""
    import mpmath

    floor = mpmath.mpf(2) ** (-bits - 16)
    acc = mpmath.mpc(0)
    n = 0
    while True:
        term = coeff(n) * (tc + n) ** (-sc)
        acc += term
        if _converged(term, n, sc, floor):
            return acc
        n += 1


def _zeta_even(sc, tc, bits):
    """sum_k zeta(2k) (t+2k-1)^-s
    = 2^-s zeta(s, (t+1)/2) + sum_k (zeta(2k) - 1) (t+2k-1)^-s."""
    import mpmath

    floor = mpmath.mpf(2) ** (-bits - 16)
    acc = mpmath.mpf(2) ** (-sc) * mpmath.zeta(sc, (tc + 1) / 2)
    k = 1
    while True:
        term = _zeta_excess(k, mpmath.mp.prec) * (tc + 2 * k - 1) ** (-sc)
        acc += term
        if _converged(term, k, sc, floor):
            return acc
        k += 1


@lru_cache(maxsize=None)
def _zeta_excess(k, prec):
    """zeta(2k) - 1, with 4k guard bits against the cancellation."""
    import mpmath

    with mpmath.mp.workprec(prec + 4 * k):
        return mpmath.zeta(2 * k) - 1
