"""The independent references against known values and other routes."""
from fractions import Fraction

import mpmath
import pytest

import reference as ref
from reference import spec

HURWITZ = spec("hurwitz")
BARNES_11 = spec("barnes", a=(1, 1))
CHI3 = spec("character", modulus=3, values=(1, -1, 0), power=1)


def close(a, b, tol=mpmath.mpf(10) ** -60):
    return abs(a - b) <= tol * max(1, abs(b))


def test_bernoulli_numbers():
    assert [ref.bernoulli_number(n) for n in (0, 1, 2, 4, 12)] == [
        1,
        Fraction(-1, 2),
        Fraction(1, 6),
        Fraction(-1, 30),
        Fraction(-691, 2730),
    ]
    assert ref.bernoulli_poly(3, Fraction(1, 2)) == 0


def test_central_binomial_at_two_is_pi_squared_over_18():
    with mpmath.mp.workprec(256):
        assert close(ref.value(spec("central-binomial"), 2, 1), mpmath.pi**2 / 18)


@pytest.mark.parametrize("n", range(1, 12))
def test_hurwitz_special_values(n):
    want = -ref.bernoulli_number(n + 1) / (n + 1)
    assert ref.special_value(HURWITZ, n, 1) == want
    with mpmath.mp.workprec(256):
        assert close(ref.value(HURWITZ, -n, 1), mpmath.mpf(want.numerator) / want.denominator)


def test_hurwitz_at_zero_and_its_residue():
    assert ref.special_value(HURWITZ, 0, 1) == Fraction(-1, 2)
    assert ref.residues(HURWITZ, Fraction(1, 2)) == {1: 1}


def test_barnes_is_shifted_riemann_zeta():
    # sum (n+1)(n+1)^-s = zeta(s-1): removable at 1, residue 1 at 2
    assert ref.pole_order(BARNES_11) == 2
    assert ref.residues(BARNES_11, 1) == {1: 0, 2: 1}
    assert ref.residues(BARNES_11, Fraction(1, 2)) == {1: Fraction(1, 2), 2: 1}
    assert ref.special_value(BARNES_11, 3, 1) == -ref.bernoulli_number(5) / 5
    with mpmath.mp.workprec(256):
        s = mpmath.mpc(-2.5, 7.25)
        assert close(ref.value(BARNES_11, s, 1), mpmath.zeta(s - 1))


def test_character_matches_mpmath_dirichlet():
    with mpmath.mp.workprec(256):
        for s in (2, mpmath.mpc(0.5, 3), mpmath.mpc(-4.25, -1)):
            assert close(ref.value(CHI3, s, 1), mpmath.dirichlet(s, [0, 1, -1]))


def test_even_character_has_no_pole_and_vanishing_alpha_one():
    even5 = spec("character", modulus=5, values=(1, -1, -1, 1, 0), power=1)
    assert ref.pole_order(even5) == 0
    assert ref.special_value(even5, 0, 1) == 0  # L(0, chi) = 0 for even chi


def test_lerch_sum_matches_lerchphi():
    lerch = spec("lerch", w=Fraction(1, 2))
    with mpmath.mp.workprec(256):
        for s, t in ((2, 1), (mpmath.mpc(-3.5, 2), Fraction(7, 3))):
            tc = mpmath.mpf(t.numerator) / t.denominator if isinstance(t, Fraction) else t
            assert close(ref.value(lerch, s, t), mpmath.lerchphi(0.5, s, tc))


def test_zeta_even_matches_its_defining_sum():
    with mpmath.mp.workprec(256):
        direct = mpmath.fsum(mpmath.zeta(2 * k) * (2 * k) ** -8 for k in range(1, 400))
        assert abs(ref.value(spec("zeta-even"), 8, 1) - direct) < mpmath.mpf(10) ** -20


def test_ehrhart_and_rational_quasi_polynomials_fit():
    for sp in (
        spec("ehrhart", g=(1, 2), p=2, d=1),
        spec("rational", num=(2, -1), den=(1, -1, 1, -1)),
        spec("barnes", a=(1, 1, 2)),
    ):
        head, polys, period = ref.quasi_model(sp)
        num, den = ref.rational_form(sp)
        coeffs = ref.taylor(num, den, 40)
        for n in range(len(head), 40):
            assert sum(c * n**i for i, c in enumerate(polys[n % period])) == coeffs[n]


def test_exact_values_agree_with_numeric_values():
    sp = spec("ehrhart", g=(1, 3), p=2, d=1)
    for n in range(4):
        want = ref.special_value(sp, n, Fraction(3, 4))
        with mpmath.mp.workprec(256):
            got = ref.value(sp, -n, Fraction(3, 4))
            assert close(got, mpmath.mpf(want.numerator) / want.denominator)


def test_period_and_degree_come_from_the_denominator():
    shape = ref.cyclotomic_shape
    assert shape((1, 1, 1)) == (3, 0)  # 1 + z + z^2
    assert shape((1, -1, 1, -1)) == (4, 0)  # (1 - z)(1 + z^2)
    assert shape((1, -2, 1)) == (1, 1)  # (1 - z)^2
    assert shape((1, 0, 0, 0, -2, 0, 0, 0, 1)) == (4, 1)  # (1 - z^4)^2
    assert shape((1, -1, 0, -1, 1)) == (3, 1)  # (1 - z)^2 (1 + z + z^2)
