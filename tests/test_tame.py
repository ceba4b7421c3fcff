import random
from fractions import Fraction as F
from math import factorial

import mpmath
import pytest
from mpmath import mp

from tamezeta.catalog import catalog_descriptor, default_members
from tamezeta.scalar import agree_within, as_mpc, binomial
from tamezeta.tame import (
    BarnesDescriptor,
    BuiltinDescriptor,
    CharacterDescriptor,
    EhrhartDescriptor,
    LerchDescriptor,
    NotTameError,
    RationalDescriptor,
    alpha_evaluator,
    build_multipower,
    build_shifted_multipower,
    coeffs,
    laurent_at_one,
    plan_exponents,
    shifted_rational,
    as_rational_fn,
)

GEO = catalog_descriptor("hurwitz")
ETA = catalog_descriptor("eta")


def test_coeffs_examples():
    assert coeffs(GEO, 4) == [1, 1, 1, 1]
    assert coeffs(ETA, 4) == [1, -1, 1, -1]
    cb = BuiltinDescriptor("central-binomial")
    assert coeffs(cb, 3) == [F(1, 2), F(1, 6), F(1, 20)]


def _alpha_partial(desc, z, prec):
    """alpha(z) for 0 < z < 1 by partial sums of the coefficient stream."""
    with mp.workprec(prec):
        floor = mpmath.mpf(2) ** -(prec + 8)
        acc, zn, n, block = mpmath.mpc(0), mpmath.mpf(1), 0, 256
        while True:
            stream = coeffs(desc, n + block, prec=prec)
            mx = mpmath.mpf(0)
            for a in stream[n:]:
                term = as_mpc(a, prec) * zn
                acc += term
                mx = max(mx, abs(term))
                zn *= z
            n += block
            if mx / (1 - z) < floor:
                return acc


def test_alpha_evaluator_matches_partial_sums():
    chi5_even = (1, -1, -1, 1, 0)  # alpha(1) = 0
    descs = [
        ETA,
        RationalDescriptor((1, -1), (1, 1, 1)),  # alpha(1) = 0
        RationalDescriptor((2, -1, 3), (2, 1, -1)),
        catalog_descriptor("dirichletL", modulus=7),
        CharacterDescriptor(5, chi5_even),
        CharacterDescriptor(3, (1, -1, 0), power=2),
        catalog_descriptor("lerch"),  # rational w: the rational form
        LerchDescriptor(mpmath.mpc(0.3, -0.8)),  # inexact w: 1/(1 - w z)
        BuiltinDescriptor("central-binomial"),
    ]
    prec = 160
    for desc in descs:
        alpha = alpha_evaluator(desc, prec)
        for u in ("40", "8", "1", "0.05"):
            with mp.workprec(prec):
                z = mpmath.exp(-mpmath.mpf(u))
                got, want = alpha(z), _alpha_partial(desc, z, prec)
                assert abs(got - want) <= mpmath.mpf(2) ** (16 - prec) * max(1, abs(want)), (desc, u)
    with pytest.raises(TypeError):
        alpha_evaluator(BuiltinDescriptor("zeta-even"), prec)


def test_coeffs_against_recurrence_families():
    assert coeffs(BarnesDescriptor((1, 1)), 5) == [1, 2, 3, 4, 5]
    # Ehrhart of the unit segment: |nP cap Z| = n+1, alpha coefficients n+2
    assert coeffs(EhrhartDescriptor((F(1),), 1, 1), 4) == [2, 3, 4, 5]
    assert coeffs(LerchDescriptor(F(1, 3)), 4) == [1, F(1, 3), F(1, 9), F(1, 27)]


def test_laurent_examples():
    lg = laurent_at_one(GEO, 6)
    assert lg.nu == 1 and lg.ks == (F(-1),)
    assert all(p == 0 for p in lg.phis)
    le = laurent_at_one(ETA, 6)
    assert le.nu == 0
    for m in range(7):
        assert le.phis[m] == F(factorial(m) * (-1) ** m, 2 ** (m + 1))
    l2 = laurent_at_one(RationalDescriptor((1,), (1, -2, 1)), 6)
    assert l2.nu == 2 and l2.ks == (F(0), F(1))
    assert all(p == 0 for p in l2.phis)


def test_laurent_reassembles_taylor_at_zero():
    # alpha_p + alpha_h around z=1 must reproduce the Taylor data at 0
    for desc in (
        GEO,
        ETA,
        BarnesDescriptor((1, 2)),
        RationalDescriptor((1, 2), (1, -2, 1)),
        catalog_descriptor("dirichletL", modulus=3),
    ):
        laur = laurent_at_one(desc, 34)
        rf = as_rational_fn(desc)
        # subtract the exact principal part and compare the regular Taylor
        from tamezeta.series import Poly, RationalFn

        principal_num = Poly()
        principal_den = Poly([F(1)])
        wpoly = Poly([F(-1), F(1)])
        for r, k in enumerate(laur.ks, start=1):
            den_r = Poly([F(1)])
            for _ in range(r):
                den_r = den_r * wpoly
            principal_num = principal_num * den_r + Poly([k]) * principal_den
            principal_den = principal_den * den_r
            # keep in lowest terms as we go
            rfp = RationalFn(principal_num, principal_den)
            principal_num, principal_den = rfp.num, rfp.den
        reg = rf + RationalFn(-1 * principal_num, principal_den)
        reg_desc = RationalDescriptor(tuple(reg.num.coeffs), tuple(reg.den.coeffs))
        stream = coeffs(reg_desc, 31)
        # Taylor of the regular part at 0 from the phi data is not direct;
        # instead verify alpha_h(1+w) expansion equals laurent phis
        lreg = laurent_at_one(reg_desc, 30)
        assert lreg.nu == 0
        assert lreg.phis[:29] == laur.phis[:29]
        # and the full stream at 0 matches the original coefficients
        orig = coeffs(desc, 31)
        principal_stream = [orig[i] - stream[i] for i in range(31)]
        # principal part stream: sum_r k_r * C(r-1+n, n) (-1)^r
        for n in range(31):
            acc = F(0)
            for r, k in enumerate(laur.ks, start=1):
                from tamezeta.scalar import binomial

                acc += k * F((-1) ** r) * binomial(r - 1 + n, n)
            assert acc == principal_stream[n]


def test_not_tame_rejections():
    with pytest.raises(NotTameError):
        laurent_at_one(RationalDescriptor((1,), (1, -2)), 4)  # pole at 1/2
    # a pole at z=2 is outside the closed unit disk and fine
    laurent_at_one(RationalDescriptor((1,), (1, F(-1, 2))), 4)


def test_not_tame_open_interval():
    # pole on (0,1): alpha = 1/(1 - 4z^2) has poles at +-1/2
    with pytest.raises(NotTameError):
        plan_exponents(RationalDescriptor((1,), (1, 0, -4)), prec=128)


def test_plan_exponents_examples():
    pe = plan_exponents(ETA, prec=128)
    assert [s.e for s in pe.singularities] == [1]  # q = -1
    p7 = plan_exponents(catalog_descriptor("dirichletL", modulus=7), prec=128)
    es = sorted(s.e for s in p7.singularities)
    assert es == [1, 1, 1, 1, 2, 2]  # e=2 exactly for the primitive angle pair
    pl = plan_exponents(LerchDescriptor(F(1, 2)), prec=128)
    assert pl.singularities[0].e == 2  # q = 4 at e=2; |1-2| = 1 fails the margin
    pc = plan_exponents(BuiltinDescriptor("central-binomial"), prec=128)
    assert pc.singularities[0].e == 1  # |1-4| = 3


def test_plan_invariant_numeric():
    threshold = 1 + F(1, 20)
    for label, desc in default_members():
        plan = plan_exponents(desc, prec=128)
        with mp.workprec(128):
            slack = mpmath.mpf(2) ** -100
            for s in plan.singularities:
                q = as_mpc(s.value if not hasattr(s.value, "embed") else s.value.embed(128), 128)
                assert abs(1 - q**s.e) >= float(threshold) - slack
                assert not (abs(q.imag) < slack and 0 < q.real <= 1)
                assert abs(q) >= 1 - slack


def test_build_multipower_examples():
    mpg = build_multipower(GEO, order=8)
    term = mpg.terms[0]
    series = term.factors[0][1]
    vals = [term.coeff * c for c in series.coeffs]
    assert vals == [F((-1) ** n, n + 1) for n in range(9)]
    mpe = build_multipower(ETA, order=8)
    vals = [mpe.terms[0].coeff * c for c in mpe.terms[0].factors[0][1].coeffs]
    assert vals == [F((-1) ** n, 2 ** (n + 1)) for n in range(9)]
    one = build_multipower(RationalDescriptor((1,), (1,)), order=4)
    assert one.nu == 0 and len(one.terms) == 1
    coeffs_ = one.terms[0].factors[0][1].coeffs
    assert coeffs_[0] * one.terms[0].coeff == 1 and all(c == 0 for c in coeffs_[1:])


def _members_and_inexact_lerch():
    """The catalog, and Lerch factors at an inexact w inside the unit
    circle, on it and at 1."""
    with mp.workprec(256):
        e_i = mpmath.expj(1)
    return default_members() + [
        ("lerch-mpf-1/2", LerchDescriptor(mpmath.mpf(1) / 2)),
        ("lerch-e^i", LerchDescriptor(e_i)),
        ("lerch-mpf-1", LerchDescriptor(mpmath.mpf(1))),
    ]


def evaluate_multipower(mpx, z, prec):
    """Oracle: the expansion evaluated term by term at lambda_e(z), every
    factor series summed to its build order."""
    with mp.workprec(prec):
        zc = as_mpc(z, prec)
        acc = mpmath.mpc(0)
        for term in mpx.terms:
            val = as_mpc(term.coeff, prec)
            for e, series in term.factors:
                x = zc**e - 1
                sval = mpmath.mpc(0)
                for c in reversed(series.coeffs):
                    sval = sval * x + as_mpc(c, prec)
                val = val * sval
            acc += val
        return acc


def test_multipower_evaluation_matches_alpha():
    # catalog-wide: evaluation at lambda_e(z) reproduces (-ln z)^nu alpha(z)
    rng = random.Random(99)
    prec = 160
    for label, desc in _members_and_inexact_lerch():
        nu = laurent_at_one(desc, 2, prec=prec).nu
        mpx = build_multipower(desc, order=220, prec=prec)
        for _ in range(6):
            z = F(rng.randint(200, 990), 1000)
            with mp.workprec(prec):
                zc = as_mpc(z, prec)
                val = evaluate_multipower(mpx, zc, prec)
                # oracle: partial sums of the coefficient stream
                n_terms = 4000
                stream = coeffs(desc, n_terms, prec=prec)
                alpha = mpmath.mpc(0)
                zn = mpmath.mpc(1)
                for a in stream:
                    alpha += as_mpc(a, prec) * zn
                    zn *= zc
                tail = abs(zn) / (1 - abs(zc)) * 4
                series_tail = abs(1 - zc) ** 220 * 40  # per-variable truncation slack
                ref = (-mpmath.log(zc)) ** nu * alpha
                tol = max(1e-20, float(tail) * 10, float(series_tail))
                assert agree_within(val, ref, tol), (label, z, val, ref)


def test_shifted_rational_exactness():
    rf = as_rational_fn(BarnesDescriptor((1, 1)))
    head = coeffs(BarnesDescriptor((1, 1)), 5)
    shifted = shifted_rational(rf, head, 5)
    # shifted stream = original shifted by 5
    sdesc = RationalDescriptor(tuple(shifted.num.coeffs), tuple(shifted.den.coeffs))
    assert coeffs(sdesc, 6) == coeffs(BarnesDescriptor((1, 1)), 11)[5:]


def test_shifted_multipower_matches_shifted_alpha():
    prec = 160
    shift = 6
    for label, desc in _members_and_inexact_lerch():
        nu = laurent_at_one(desc, 2, prec=prec).nu
        mpx = build_shifted_multipower(desc, shift, order=160, prec=prec)
        with mp.workprec(prec):
            z = mpmath.mpf("0.7")
            val = evaluate_multipower(mpx, z, prec)
            stream = coeffs(desc, 3000, prec=prec)
            alpha = mpmath.mpc(0)
            zn = mpmath.mpc(1)
            for a in stream[shift:]:
                alpha += as_mpc(a, prec) * zn
                zn *= z
            ref = (-mpmath.log(z)) ** nu * alpha
            assert agree_within(val, ref, 1e-20), (label, val, ref)


def test_character_descriptor_validation():
    with pytest.raises(ValueError):
        CharacterDescriptor(3, (1, -1))
    with pytest.raises(ValueError):
        EhrhartDescriptor((F(2),), 1, 1)
    with pytest.raises(ValueError):
        BuiltinDescriptor("nope")


def test_rational_families_are_rational_descriptors():
    # each family's constructor returns its num/den, written out by hand here
    assert CharacterDescriptor(3, (1, -1, 0), power=2) == RationalDescriptor((1, -1, 0), (1, 0, 0, -2, 0, 0, 1))
    assert BarnesDescriptor((1, 2)) == RationalDescriptor((1,), (1, -1, -1, 1))
    # (1 + 4z + z^2 - (1 - z^2)^4)/z over (1 - z^2)^4
    assert EhrhartDescriptor((1, 4, 1), 2, 3) == RationalDescriptor(
        (4, 5, 0, -6, 0, 4, 0, -1), (1, 0, -4, 0, 6, 0, -4, 0, 1)
    )
    with pytest.raises(ValueError):
        CharacterDescriptor(3, (1, -1, 0), 0)
    with pytest.raises(ValueError):
        BarnesDescriptor((2, 0))


def _principal_parts(desc, prec):
    """(q, c_1..c_mult) at each singularity of a rational descriptor."""
    from tamezeta.tame import _laurent_of_rational, singularities

    rf = as_rational_fn(desc)
    with mp.workprec(prec):
        return [(s.value, _laurent_of_rational(rf, s.value, -1, s.multiplicity)[1]) for s in singularities(desc, prec)]


def test_laurent_of_rational_at_simple_irrational_poles():
    # 1/((1-z)(3-z^2)) = g(z)/(z-q) at q = +-sqrt(3), g(z) = -1/((1-z)(z+q))
    prec = 256
    parts = _principal_parts(RationalDescriptor((1,), (3, -3, -1, 1)), prec)
    with mp.workprec(prec):
        tol = mpmath.mpf(2) ** (16 - prec)
        roots = sorted(mpmath.re(q) for q, _cs in parts)
        assert len(roots) == 2 and all(abs(r - x) <= tol for r, x in zip(roots, (-mpmath.sqrt(3), mpmath.sqrt(3))))
        for q, cs in parts:
            assert len(cs) == 1
            assert abs(cs[0] - (-1 / ((1 - q) * 2 * q))) <= tol


def test_laurent_of_rational_at_double_irrational_pole():
    # (1+z)/((1-z)(3-z^2)^2) = g(z)/(z-q)^2 at q = sqrt(3), g(z) = (1+z)/((1-z)(z+q)^2):
    # c_2 = g(q), c_1 = g'(q) = g(q) (1/(1+q) + 1/(1-q) - 1/q)
    prec = 256
    parts = _principal_parts(RationalDescriptor((1, 1), (9, -9, -6, 6, 1, -1)), prec)
    with mp.workprec(prec):
        tol = mpmath.mpf(2) ** (16 - prec)
        q, cs = max(parts, key=lambda part: mpmath.re(part[0]))
        assert abs(q - mpmath.sqrt(3)) <= tol and len(cs) == 2
        g = (1 + q) / ((1 - q) * (2 * q) ** 2)
        assert abs(cs[1] - g) <= tol * max(1, abs(g))
        dg = g * (1 / (1 + q) + 1 / (1 - q) - 1 / q)
        assert abs(cs[0] - dg) <= tol * max(1, abs(dg))


def test_laurent_of_rational_checks_exact_multiplicity():
    from tamezeta.tame import _laurent_of_rational

    simple = as_rational_fn(RationalDescriptor((1,), (2, -3, 1)))  # 1/((1-z)(2-z))
    double = as_rational_fn(RationalDescriptor((1,), (4, -4, 1)))  # 1/(2-z)^2
    assert _laurent_of_rational(simple, F(2), -1, 1)[1] == (F(1),)
    assert _laurent_of_rational(double, F(2), -1, 2)[1] == (F(0), F(1))
    for rf, mult in ((simple, 2), (double, 1), (double, 3)):
        with pytest.raises(AssertionError, match="multiplicity mismatch"):
            _laurent_of_rational(rf, F(2), -1, mult)


def test_shift_series_at_one_matches_product_form():
    # subtracting the head one coefficient at a time, each followed by a
    # division by 1 + w, over the real scalars, gives the series that the
    # complex product of alpha - head with (1 + w)^(-shift) gives
    from tamezeta import tame
    from tamezeta.series import Poly, TruncSeries, recenter

    desc, shift = BuiltinDescriptor("central-binomial"), 40
    head = coeffs(desc, shift)
    for order in (16, 256):  # a head longer and shorter than the series
        with mp.workprec(900):
            alpha1 = tame._central_binomial_at_one(order)
            got = tame._shift_series_at_one(alpha1, head, order)
            head1 = recenter(Poly([as_mpc(h) for h in head]), mpmath.mpf(1))
            acc = alpha1 - TruncSeries(head1.coeffs, order, center=1)
            ref = acc * tame._inverse_power_series(mpmath.mpf(0), shift, order, mpmath.mpf(1))
            assert got.order == order and all(isinstance(c, mpmath.mpf) for c in got.coeffs)
            # each form rounds terms of at most |head1| at 2^-900, which (1 + w)^(-shift)
            # carries with coefficients of at most C(order + shift - 1, shift - 1)
            scale = (order + 1) * binomial(order + shift - 1, shift - 1) * max(abs(c) for c in head1.coeffs)
            assert max(abs(a - b) for a, b in zip(got.coeffs, ref.coeffs)) <= mpmath.mpf(2) ** -900 * scale
