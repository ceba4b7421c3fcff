import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from tamezeta.bernoulli import stirling2
from tamezeta.series import (
    Poly,
    RationalFn,
    TruncSeries,
    compose,
    log_factor_base,
    poly_divmod,
    poly_gcd,
    poly_invmod,
    recenter,
    series_pow_log_factor,
)

rationals = st.fractions(
    min_value=F(-30), max_value=F(30), max_denominator=8
)


def ts(coeffs, order):
    return TruncSeries([F(c) for c in coeffs], order)


def test_mul_examples():
    a, b = ts([1, 1], 8), ts([1, -1], 8)
    assert (a * b).coeffs[:3] == (F(1), F(0), F(-1))
    geo = ts([1], 8) / ts([1, -1], 8)
    assert geo.coeffs == tuple(F(1) for _ in range(9))


def test_todd_base_by_exact_division():
    M = 10
    em1_over_u = TruncSeries([F(1, factorial(n + 1)) for n in range(M + 1)], M)
    todd = TruncSeries([F(1)], M) / em1_over_u
    assert todd.coeffs[0] == 1
    assert todd.coeffs[1] == F(-1, 2)
    assert todd.coeffs[2] == F(1, 12)
    assert todd.coeffs[3] == 0


def test_divide_by_zero_constant_rejected():
    with pytest.raises(ZeroDivisionError):
        ts([1], 4) / ts([0, 1], 4)


def test_compose_inverse_functions():
    M = 10
    em1 = TruncSeries([F(0)] + [F(1, factorial(n)) for n in range(1, M + 1)], M)
    log1p = TruncSeries([F(0)] + [F((-1) ** (n + 1), n) for n in range(1, M + 1)], M)
    comp = compose(log1p, em1)
    assert comp.coeffs == tuple([F(0), F(1)] + [F(0)] * (M - 1))


def test_compose_stirling_columns():
    # phi(w) = w composed with e^u-1: psi_n = S(n,1) = 1 for n >= 1
    M = 12
    em1 = TruncSeries([F(0)] + [F(1, factorial(n)) for n in range(1, M + 1)], M)
    c1 = compose(TruncSeries([F(0), F(1)], M), em1)
    for n in range(1, M + 1):
        assert c1.coeffs[n] * factorial(n) == stirling2(n, 1)
    # phi(w) = w^2: EGF coefficient phi_2 = 2, so psi_n = S(n,2)*2
    c2 = compose(TruncSeries([F(0), F(0), F(1)], M), em1)
    for n in range(2, M + 1):
        assert c2.coeffs[n] * factorial(n) == stirling2(n, 2) * 2


def test_compose_requires_zero_constant():
    with pytest.raises(ValueError):
        compose(ts([1, 1], 4), ts([1, 1], 4))


@given(
    st.lists(rationals, min_size=1, max_size=5),
    st.lists(rationals, min_size=1, max_size=5),
    st.lists(rationals, min_size=1, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_compose_associativity(fc, gc, hc):
    M = 8
    f = TruncSeries([F(c) for c in fc], M)
    g = TruncSeries([F(0)] + [F(c) for c in gc], M)
    h = TruncSeries([F(0)] + [F(c) for c in hc], M)
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_recenter_examples():
    p = Poly([F(0), F(0), F(1)])
    assert recenter(p, F(1)).coeffs == (F(1), F(2), F(1))
    q = Poly([F(-1), F(1)])
    assert recenter(q, F(1)).coeffs == (F(0), F(1))
    assert recenter(q, F(1, 2)).coeffs == (F(-1, 2), F(1))


@given(st.lists(rationals, min_size=1, max_size=6), rationals)
@settings(max_examples=60, deadline=None)
def test_recenter_roundtrip(coeffs, t0):
    p = Poly([F(c) for c in coeffs])
    assert recenter(recenter(p, F(t0)), -F(t0)) == p


def test_series_pow_log_factor():
    L = series_pow_log_factor(1, 8)
    assert L.coeffs == tuple(F((-1) ** n, n + 1) for n in range(9))
    L0 = series_pow_log_factor(0, 4)
    assert L0.coeffs == (F(1), 0, 0, 0, 0)
    L2 = series_pow_log_factor(2, 5)
    assert L2.coeffs[0] == 1
    # square of the base series, checked directly
    base = series_pow_log_factor(1, 5)
    assert L2 == base * base


@pytest.mark.parametrize("order", [0, 1, 9, 64, 300])
def test_series_pow_log_factor_is_the_power_of_its_base(order):
    # the Stirling-number closed form against repeated multiplication
    base = log_factor_base(order)
    for nu in range(1, 5):
        assert series_pow_log_factor(nu, order) == base.power(nu), nu


def test_power_is_the_repeated_product():
    rng = random.Random(5)
    for order in (0, 3, 11):
        x = ts([F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(order + 1)], order)
        acc = TruncSeries([1], order)
        for k in range(6):
            assert x.power(k) == acc, (order, k)
            acc = acc * x


@given(
    st.lists(rationals, min_size=1, max_size=6),
    st.lists(rationals, min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_divide_multiply_roundtrip(ac, bc):
    M = 8
    a = TruncSeries([F(c) for c in ac], M)
    b = TruncSeries([F(c) for c in bc], M)
    if b.coeffs[0] == 0:
        b = b + 1
    assert (a / b) * b == a * TruncSeries([F(1)], M)


def test_integrate_gains_an_order():
    s = ts([1, 2, 3], 2)
    out = s.integrate(F(5))
    assert out.order == 3
    assert out.coeffs == (F(5), F(1), F(1), F(1))


def test_poly_divmod_and_gcd():
    q, r = poly_divmod(Poly([F(1), F(0), F(1)]), Poly([F(1), F(1)]))
    assert q.coeffs == (F(-1), F(1)) and r.coeffs == (F(2),)
    a = Poly([F(1), F(-1)]) * Poly([F(2), F(1)])
    b = Poly([F(1), F(-1)]) * Poly([F(3), F(0), F(1)])
    g = poly_gcd(a, b)
    assert g.coeffs == (F(-1), F(1))


def test_poly_invmod_inverts_modulo():
    rng = random.Random(11)
    checked = 0
    for _ in range(40):
        a = Poly([F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(rng.randint(1, 6))])
        m = Poly([F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(4)] + [F(1)])
        if a.is_zero() or poly_gcd(a, m).degree > 0:
            continue
        inv = poly_invmod(a, m)
        assert inv.degree < m.degree
        assert poly_divmod(a * inv, m)[1] == Poly([F(1)])
        checked += 1
    assert checked >= 20
    common = Poly([F(1), F(-1)])
    with pytest.raises(ZeroDivisionError):
        poly_invmod(common * Poly([F(2), F(1)]), common * Poly([F(3), F(0), F(1)]))


def test_rationalfn_normalization():
    rf = RationalFn(Poly([F(2), F(-2)]), Poly([F(-1), F(0), F(1)]))
    # (2)(1-z) / (z-1)(z+1) reduces to -2/(z+1)
    assert rf.den.coeffs == (F(1), F(1))
    assert rf.num.coeffs == (F(-2),)


def test_truncation_is_explicit():
    a = ts([1, 2, 3, 4], 3)
    b = ts([1, 1], 1)
    assert (a * b).order == 1
    assert (a + b).order == 1
