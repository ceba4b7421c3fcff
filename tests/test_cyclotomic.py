import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from mpmath import mp

from tamezeta.cyclotomic import CycloNum, cyclotomic_poly, zeta_power
from tamezeta.scalar import agree_within


def test_cyclotomic_polynomials():
    assert [int(c) for c in cyclotomic_poly(1)] == [-1, 1]
    assert [int(c) for c in cyclotomic_poly(2)] == [1, 1]
    assert [int(c) for c in cyclotomic_poly(3)] == [1, 1, 1]
    assert [int(c) for c in cyclotomic_poly(4)] == [1, 0, 1]
    assert [int(c) for c in cyclotomic_poly(7)] == [1] * 7
    assert [int(c) for c in cyclotomic_poly(12)] == [1, 0, -1, 0, 1]


@pytest.mark.parametrize("n", [2, 3, 4, 6, 7, 12])
def test_root_of_unity_relations(n):
    z = zeta_power(n, 1)
    assert (z**n) == 1
    assert not (z == 1) or n == 1
    total = sum((zeta_power(n, j) for j in range(1, n)), CycloNum.from_rational(n, 0))
    # sum over all n-th roots of unity vanishes
    assert (total + 1).is_rational() and (total + 1).to_fraction() == 0


def test_field_inverse_and_division():
    rng = random.Random(3)
    for n in (1, 2, 3, 4, 5, 7, 8, 12):
        for _ in range(10):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
            x = CycloNum(n, coeffs)
            if x.is_zero():
                continue
            assert (x * x.inverse()) == 1
            assert ((x / x) == 1)
            # rational scalars act on the coordinates
            assert x * Fraction(-3, 5) == x * CycloNum.from_rational(n, Fraction(-3, 5))
            assert 2 * x == x + x


def test_embedding_matches_exponential():
    for n in (3, 7, 12):
        for j in range(1, n):
            with mp.workprec(160):
                ref = mpmath.exp(2j * mpmath.pi * j / n)
            assert agree_within(zeta_power(n, j).embed(160), ref, 1e-40)


def test_cached_root_of_unity_embeds_like_a_fresh_one():
    # embed reads exp(2 pi i/n) from a cache; the value must be the Horner
    # sum with a freshly computed root, bit for bit
    rng = random.Random(11)
    for n in (3, 7, 12):
        x = CycloNum(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)])
        for prec in (53, 160, 256):
            x.embed(prec)  # fills the cache
            with mp.workprec(prec):
                zeta = mpmath.exp(2j * mpmath.pi / n)
                ref = mpmath.mpc(0)
                for c in reversed(x.vec):
                    ref = ref * zeta + mpmath.mpf(c.numerator) / c.denominator
            got = x.embed(prec)
            assert (got.real, got.imag) == (ref.real, ref.imag), (n, prec)


def test_galois_and_conjugation():
    z = zeta_power(7, 1)
    for t in range(1, 7):
        assert z.galois(t) == zeta_power(7, t)
    w = zeta_power(7, 2) * Fraction(3, 4) + zeta_power(7, 5)
    with mp.workprec(150):
        a = w.embed(150).conjugate()
    assert agree_within(a, w.conjugate().embed(150), 1e-40)


def test_rational_detection():
    z = zeta_power(12, 6)  # = -1
    assert z.is_rational() and z.to_fraction() == -1
    assert not zeta_power(7, 1).is_rational()
    with pytest.raises(ValueError):
        zeta_power(7, 1).to_fraction()


def test_mixed_order_operations_rejected():
    a = zeta_power(7, 1)
    b = zeta_power(3, 1)
    with pytest.raises(TypeError):
        a + b
