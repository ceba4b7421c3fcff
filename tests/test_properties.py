"""Cross-cutting randomized identities tying the modules together."""
import random
from fractions import Fraction as F

import mpmath
from mpmath import mp

from tamezeta.bernoulli import diff_apply_poly, todd_apply, todd_series
from tamezeta.catalog import catalog_descriptor
from tamezeta.continuation import analyze, analyze_split
from tamezeta.numeval import continue_dirichlet, direct_sum, incgamma_eval, oracle_eval
from tamezeta.reconstruct import ContinuationData, dirichlet_from_data, principal_from_poles
from tamezeta.scalar import ApproxContext, agree_within, as_mpc
from tamezeta.series import Poly, TruncSeries
from tamezeta.tame import (
    BarnesDescriptor,
    EhrhartDescriptor,
    LerchDescriptor,
    RationalDescriptor,
    _cyclotomic_factor_split,
    build_multipower,
    laurent_at_one,
)

CTX = ApproxContext()


def _random_tame_rational(rng):
    """Random alpha = N(z) / ((1-z)^j (1+z)^k (1+z+z^2)^l (1 - z/q))."""
    den = Poly([F(1)])
    for _ in range(rng.randint(0, 2)):
        den = den * Poly([F(1), F(-1)])
    for _ in range(rng.randint(0, 1)):
        den = den * Poly([F(1), F(1)])
    for _ in range(rng.randint(0, 1)):
        den = den * Poly([F(1), F(1), F(1)])
    if rng.random() < 0.5:
        q = F(rng.randint(2, 5))
        den = den * Poly([F(1), -1 / q])
    num = Poly([F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))] + [F(1)])
    return RationalDescriptor(tuple(num.coeffs), tuple(den.coeffs))


# z^2 - 3, z^3 - 2, z^3 - 2z + 5, z^2 + z + 3: irreducible over Q, every root
# irrational, outside the unit disk and off (0, 1]
IRRATIONAL_FACTORS = ((-3, 0, 1), (-2, 0, 0, 1), (5, -2, 0, 1), (3, 1, 1))


def _random_irrational_tame_rational(rng, factor):
    """Random alpha = N(z) / ((1-z)^j (1+z)^k f(z)), f = ``factor``, one of
    IRRATIONAL_FACTORS."""
    den = Poly([F(c) for c in factor])
    for _ in range(rng.randint(0, 2)):
        den = den * Poly([F(1), F(-1)])
    for _ in range(rng.randint(0, 1)):
        den = den * Poly([F(1), F(1)])
    num = Poly([F(rng.randint(-4, 4)) for _ in range(rng.randint(0, 2))] + [F(1)])
    return RationalDescriptor(tuple(num.coeffs), tuple(den.coeffs))


def _within_bounds(a, b, bound, prec):
    with mp.workprec(prec + 64):
        a, b = as_mpc(a, prec + 64), as_mpc(b, prec + 64)
        return abs(a - b) <= bound + mpmath.mpf(2) ** (2 - prec) * max(1, abs(a))


def _left_points(rng, count):
    """Points with Re s in [-8, 0) and |Im s| <= 24, one of every two past
    16, where the operator route reads its order-512 expansion."""
    out = []
    for i in range(count):
        im = rng.uniform(16, 24) if i % 2 else rng.uniform(0, 16)
        out.append(mpmath.mpc(rng.uniform(-8, 0), rng.choice((-1, 1)) * im))
    return out


def test_random_irrational_poles_agree_across_routes():
    # continue_dirichlet carries the mpc partial fractions of irrational poles;
    # it must stay within the reported bounds of the independent routes
    rng = random.Random(2024)
    prec = CTX.precision_bits
    t = F(1, 2)
    for factor in IRRATIONAL_FACTORS:
        desc = _random_irrational_tame_rational(rng, factor)
        nu = laurent_at_one(desc, 2).nu
        points = (
            mpmath.mpf(nu) + mpmath.mpf(rng.uniform(0.25, 2.5)),
            mpmath.mpc(nu + rng.uniform(0.25, 2.5), rng.uniform(-4, 4)),
        )
        for s in points:
            a = continue_dirichlet(desc, s, t, CTX)
            for other in (direct_sum, incgamma_eval) if nu == 0 else (direct_sum,):
                b = other(desc, s, t, CTX)
                assert _within_bounds(a.mpc(), b.mpc(), a.tail_bound + b.tail_bound, prec), (desc, s, other)
        if nu == 0:
            # left of the axis only the incomplete-gamma route is independent
            for s in _left_points(rng, 2):
                a = continue_dirichlet(desc, s, t, CTX)
                b = incgamma_eval(desc, s, t, CTX)
                assert a.tail_bound <= CTX.target_eps, (desc, s)
                assert _within_bounds(a.mpc(), b.mpc(), a.tail_bound + b.tail_bound, prec), (desc, s)
        special = analyze(desc, t, 2).special_values
        for n in range(3):
            a = continue_dirichlet(desc, -n, t, CTX)
            assert _within_bounds(a.mpc(), special[n], a.tail_bound, prec), (desc, n)


def test_random_rational_left_of_axis_within_bounds():
    # the operator route's planned rung must certify its bound left of the
    # axis: against the Hurwitz oracle for cyclotomic denominators and the
    # incomplete-gamma route for pole-free draws (this seed draws both, with
    # nu = 0, 1 and 2)
    rng = random.Random(23)
    prec = CTX.precision_bits
    checked = 0
    while checked < 4:
        desc = _random_tame_rational(rng)
        nu = laurent_at_one(desc, 2).nu
        cyclotomic = _cyclotomic_factor_split(Poly(list(desc.den)))[1].degree == 0
        if not cyclotomic and nu:
            continue
        t = F(rng.randint(1, 5), rng.randint(1, 3))
        for s in _left_points(rng, 2):
            a = continue_dirichlet(desc, s, t, CTX)
            b = (oracle_eval if cyclotomic else incgamma_eval)(desc, s, t, CTX)
            assert a.tail_bound <= CTX.target_eps, (desc, s, t)
            assert _within_bounds(a.mpc(), b.mpc(), a.tail_bound + b.tail_bound, prec), (desc, s, t)
        checked += 1


def test_random_rational_operator_identity():
    rng = random.Random(424)
    for _ in range(6):
        desc = _random_tame_rational(rng)
        laur = laurent_at_one(desc, 12)
        td = todd_series(laur, 10)
        mpx = build_multipower(desc, order=10)
        for n in (0, 3, 7, 10):
            p = Poly([F(0)] * n + [F(1)])
            assert todd_apply(td, p) == diff_apply_poly(mpx, p), (desc, n)


def test_random_rational_reconstruction_roundtrip():
    rng = random.Random(77)
    for _ in range(5):
        desc = _random_tame_rational(rng)
        truth = laurent_at_one(desc, 14)
        t0 = F(rng.randint(1, 9), rng.randint(1, 4))
        rep = analyze(desc, t0, 16)
        data = ContinuationData(
            t0, rep.pole_set, tuple(rep.residues[n] for n in rep.pole_set), rep.special_values
        )
        laur, _ = dirichlet_from_data(data)
        assert laur.nu == truth.nu and laur.ks == truth.ks
        avail = min(len(laur.phis), 14 - truth.nu)
        assert laur.phis[:avail] == truth.phis[:avail]


def test_random_rational_continuation_vs_oracle():
    rng = random.Random(99)
    settings = ApproxContext(precision_bits=128, target_eps=1e-22)
    for _ in range(3):
        # purely cyclotomic denominators so the oracle applies
        den = Poly([F(1)])
        for _ in range(rng.randint(1, 2)):
            den = den * Poly([F(1), F(-1)])
        den = den * Poly([F(1), F(1)])
        num = Poly([F(rng.randint(-3, 3)), F(1)])
        desc = RationalDescriptor(tuple(num.coeffs), tuple(den.coeffs))
        s = mpmath.mpc(rng.uniform(-2, 3), rng.uniform(-3, 3))
        t = F(rng.randint(1, 5), rng.randint(1, 3))
        try:
            a = continue_dirichlet(desc, s, t, settings)
            b = oracle_eval(desc, s, t, settings)
        except Exception as exc:  # near-pole draws are fine to skip
            from tamezeta.numeval import NearPoleError

            if isinstance(exc, NearPoleError):
                continue
            raise
        assert agree_within(a.mpc(), b.mpc(), 1e-20), (desc, s, t)


def test_barnes_mixed_delays():
    # a = (1, 2): denominator (1-z)^2 (1+z), a genuinely mixed pole pattern
    desc = BarnesDescriptor((1, 2))
    laur = laurent_at_one(desc, 6)
    assert laur.nu == 2 and laur.ks[1] == F(1, 2)  # k_2 = 1/(a1 a2)
    rep = analyze(desc, F(1, 3), 2)
    assert rep.residues[2] == F(1, 2)  # 1/((nu-1)! a1 a2)
    s = mpmath.mpc(0.25, 1.5)
    a = continue_dirichlet(desc, s, F(1, 3), CTX)
    b = oracle_eval(desc, s, F(1, 3), CTX)
    assert agree_within(a.mpc(), b.mpc(), 10 * CTX.target_eps)
    c = direct_sum(desc, F(11, 4), F(1, 3), CTX)
    d = continue_dirichlet(desc, F(11, 4), F(1, 3), CTX)
    assert agree_within(c.mpc(), d.mpc(), 10 * CTX.target_eps)


def test_ehrhart_period_two():
    desc = EhrhartDescriptor((F(1), F(1), F(1)), 2, 1)
    # coefficients: Ehr = (1+z+z^2)/(1-z^2)^2, alpha = (Ehr-1)/z
    rep = analyze(desc, F(1), 1)
    assert rep.nu == 2
    a = direct_sum(desc, 3, 1, CTX)
    b = continue_dirichlet(desc, 3, 1, CTX)
    c = oracle_eval(desc, 3, 1, CTX)
    assert agree_within(a.mpc(), b.mpc(), 10 * CTX.target_eps)
    assert agree_within(a.mpc(), c.mpc(), 10 * CTX.target_eps)


def test_oscillatory_lerch_on_circle():
    # w = e^i: unit modulus, not a root of unity; direct summation goes
    # through iterated summation by parts
    with mp.workprec(200):
        w = mpmath.exp(1j * mpmath.mpf(1))
    desc = LerchDescriptor(w)
    settings = ApproxContext(precision_bits=128, target_eps=1e-18)
    a = direct_sum(desc, F(5, 2), 1, settings)
    b = continue_dirichlet(desc, F(5, 2), 1, settings)
    assert agree_within(a.mpc(), b.mpc(), 1e-16)


def test_prescribed_poles_are_realized():
    # build the principal part from prescribed poles/residues, then verify
    # the split analysis reproduces exactly those poles and residues
    rng = random.Random(5)
    for _ in range(8):
        nu = rng.randint(1, 4)
        poles = sorted(rng.sample(range(1, nu + 1), rng.randint(1, nu)))
        if nu not in poles:
            poles.append(nu)
        poles = tuple(sorted(set(poles)))
        residues = tuple(F(rng.randint(1, 7), rng.randint(1, 5)) * rng.choice((1, -1)) for _ in poles)
        t0 = F(rng.randint(1, 7), rng.randint(1, 3))
        laur = principal_from_poles(t0, poles, residues)
        rep = analyze_split(laur, t0, 0)
        assert rep.pole_set == poles
        for n, r in zip(poles, residues):
            assert rep.residues[n] == r


def test_lerch_complex_analyze_values_match_continuation():
    with mp.workprec(200):
        w = mpmath.mpc(1, 1) / 4
    desc = LerchDescriptor(w)
    rep = analyze(desc, F(1), 3, prec=200)
    assert rep.pole_set == ()
    for n in range(3):
        r = continue_dirichlet(desc, -n, 1, CTX)
        assert agree_within(r.mpc(), rep.special_values[n], 1e-22)


def test_mixed_cyclotomic_geometric_direct_path():
    # denominator (1-z)(1-z/2): quasi-polynomial part plus geometric rest,
    # splitting through the exact polynomial xgcd
    desc = RationalDescriptor((1,), (1, F(-3, 2), F(1, 2)))
    a = direct_sum(desc, F(5, 2), 1, CTX)
    b = continue_dirichlet(desc, F(5, 2), 1, CTX)
    assert agree_within(a.mpc(), b.mpc(), 10 * CTX.target_eps)
    # coefficients are 2 - 2^-n: closed form 2 zeta(s) - 2 Li_s(1/2)
    with mp.workprec(200):
        s = mpmath.mpf(5) / 2
        ref = 2 * mpmath.zeta(s) - 2 * mpmath.polylog(s, mpmath.mpf(1) / 2)
        assert agree_within(a.mpc(), ref, 1e-22)


def _central_binomial_alpha_series(z_series, prec):
    """Oracle: central-binomial alpha composed with a unit-constant series
    for z, via the closed form

        alpha(z) = 1/(4-z) + 4*arcsin(sqrt(z)/2) / (sqrt(z) (4-z)^(3/2)),

    every power taken as exp(alpha log), to the order of the input series."""
    order = z_series.order
    with mp.workprec(prec):
        one = TruncSeries([mpmath.mpf(1)], order, z_series.center)
        assert z_series.coeffs[0] == 1
        sqrt_z = _series_pow_unit(z_series, mpmath.mpf(1) / 2)
        four_minus = 4 - z_series
        pow_32 = _series_pow_scalar(four_minus, mpmath.mpf(-3) / 2)
        g = sqrt_z * (mpmath.mpf(1) / 2)  # sqrt(z)/2, constant 1/2
        # arcsin(g) = pi/6 + integral of g' / sqrt(1-g^2)
        inv_sqrt = _series_pow_scalar(one - g * g, mpmath.mpf(-1) / 2)
        arcsin_g = (g.differentiate() * inv_sqrt.truncate(max(0, order - 1))).integrate(mpmath.pi / 6)
        m = arcsin_g.order
        return (one / four_minus).truncate(m) + 4 * arcsin_g * (one / sqrt_z).truncate(m) * pow_32.truncate(m)


def _series_pow_unit(ts, alpha):
    """(1 + s)^alpha for a series with constant term exactly 1."""
    return _series_exp_zero(_series_log_unit(ts) * alpha)


def _series_log_unit(ts):
    """log of a series with constant term 1 (floating scalars)."""
    inv = TruncSeries([1], ts.order, ts.center) / ts
    return (ts.differentiate() * inv.truncate(max(0, ts.order - 1))).integrate(ts.coeffs[0] * 0)


def _series_exp_zero(ts):
    """exp of a series with zero constant term, by the ODE y' = y * t'."""
    assert ts.coeffs[0] == 0
    zero = ts.coeffs[0] * 0
    y = [zero + 1] + [zero] * ts.order
    d = ts.differentiate()
    for n in range(1, ts.order + 1):
        acc = zero
        for k in range(n):
            if n - 1 - k <= d.order:
                acc = acc + d.coeffs[n - 1 - k] * y[k]
        y[n] = acc / n
    return TruncSeries(y, ts.order, ts.center)


def _series_pow_scalar(ts, alpha):
    """ts^alpha for a series with nonzero constant term (floating scalars)."""
    c0 = ts.coeffs[0]
    return _series_pow_unit(ts * (1 / c0), alpha) * mpmath.power(c0, alpha)


def test_central_binomial_series_matches_composition_form():
    # the closed-form coefficients of alpha(1+w) (Miller's power recurrence
    # for q^(-1/2)) against the composition form at z = 1 + w
    from tamezeta.tame import _central_binomial_at_one

    order = 512
    for prec in (192, 320):
        with mp.workprec(prec):
            got = _central_binomial_at_one(order).coeffs
            z = TruncSeries([mpmath.mpf(1)] * 2, order + 1, center=1)
            ref = _central_binomial_alpha_series(z, prec).truncate(order)
            tol = mpmath.mpf(2) ** (4 - prec)
        assert len(got) == len(ref.coeffs) == order + 1
        for n, (a, b) in enumerate(zip(got, ref.coeffs)):
            assert abs(a - b) <= tol, (prec, n)


def _alpha_exp_arg_series(name, order, prec):
    """Oracle: Taylor series of alpha(e^u) at u = 0 from the builtin's
    closed form.  For the even-zeta series the z=1 pole makes alpha(e^u)
    singular, so it returns (-u)^nu alpha(e^u), the Todd numerator tau(u)."""
    from math import factorial

    from tamezeta.bernoulli import _todd_base
    from tamezeta.scalar import as_mpf
    from tamezeta.series import TruncSeries

    def exp_series(sign, start, length, order):
        return TruncSeries(
            [F(0)] * start + [F(sign**n, factorial(n)) for n in range(start, length)], order
        ).map(lambda c: as_mpf(c, prec))

    with mp.workprec(prec):
        if name == "central-binomial":
            expu = exp_series(1, 0, order + 2, order + 1)
            return _central_binomial_alpha_series(expu, prec).truncate(order)
        # zeta-even: tau(u) = T(u)/2 - u sum_n zeta(2n) y^(2n-1) - (u/2) e^(-u),
        # with T the classical Todd base and y = e^u - 1
        acc = _todd_base(order).map(lambda c: as_mpf(c, prec)) * (mpmath.mpf(1) / 2)
        y = exp_series(1, 1, order + 1, order)
        ypow, y2 = y, y * y  # y^(2n-1), starting at n = 1
        n = 1
        while 2 * n - 1 <= order:
            acc = acc - (ypow * mpmath.zeta(2 * n)).shift_mul(1)
            ypow = ypow * y2
            n += 1
        return acc - exp_series(-1, 0, order + 1, order).shift_mul(1) * (mpmath.mpf(1) / 2)


def test_builtin_todd_routes_agree():
    # Stirling-transform Todd data (from the Laurent phis) versus the
    # closed-form exponential-argument series, for both builtins
    from math import factorial

    prec = 200
    with mp.workprec(prec):
        for name in ("central-binomial", "zeta-even"):
            desc = catalog_descriptor(name)
            M = 14
            laur = laurent_at_one(desc, M + 2, prec=prec)
            td = todd_series(laur, M)
            tau = _alpha_exp_arg_series(name, M, prec)
            for m in range(M + 1):
                ref = tau.coeffs[m] * factorial(m)
                assert agree_within(td.taus[m], ref, 1e-35), (name, m)


def test_l7_exact_shift_weights_are_real_and_match_numeric():
    # conjugate pole pairs share an exponent, so the exact weights are
    # real algebraic numbers (Galois conjugation mixes different exponents,
    # so full rationality is not expected); they must embed onto the
    # numeric accumulator
    from tamezeta.cyclotomic import CycloNum
    from tamezeta.numeval import shift_weights
    from tamezeta.tame import build_multipower

    desc = catalog_descriptor("dirichletL", modulus=7)
    mpx = build_multipower(desc, order=5)
    weights = shift_weights(mpx, 5)
    assert weights, "expected nonempty weights"
    numeric = shift_weights(mpx, 5, 200)
    with mp.workprec(200):
        for sigma, w in weights.items():
            if isinstance(w, CycloNum):
                assert w.conjugate() == w, (sigma, w)  # real subfield
                val = w.embed(200)
            else:
                from tamezeta.scalar import as_mpc

                val = as_mpc(w, 200)
            assert agree_within(val, numeric[sigma], 1e-45)


def test_incgamma_applies_to_lerch():
    from tamezeta.numeval import incgamma_eval

    desc = LerchDescriptor(F(1, 2))
    a = incgamma_eval(desc, F(3, 2), 1, CTX)
    b = continue_dirichlet(desc, F(3, 2), 1, CTX)
    assert agree_within(a.mpc(), b.mpc(), 1e-15)


def test_float_t0_degrades_to_threshold_zero_tests():
    # Barnes at floating t0=1: the removable pole must still be detected
    with mp.workprec(160):
        rep = analyze(catalog_descriptor("barnes"), mpmath.mpf(1), 2, prec=160)
    assert rep.pole_set == (2,)
    assert rep.removable and rep.removable[0][0] == 1


def test_continuation_far_off_axis():
    from tamezeta.numeval import hurwitz_oracle

    geo = catalog_descriptor("hurwitz")
    s = mpmath.mpc(0.5, 40)
    a = continue_dirichlet(geo, s, 1, CTX)
    b = hurwitz_oracle(s, 1, CTX)
    assert agree_within(a.mpc(), b.mpc(), 1e-20)
    barnes = catalog_descriptor("barnes")
    s2 = mpmath.mpc(-1.5, 25)
    c = continue_dirichlet(barnes, s2, F(1, 2), CTX)
    d = oracle_eval(barnes, s2, F(1, 2), CTX)
    assert agree_within(c.mpc(), d.mpc(), 1e-20)
