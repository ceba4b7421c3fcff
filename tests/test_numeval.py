import itertools
import random
from fractions import Fraction as F
from math import comb, factorial

import mpmath
import pytest
from mpmath import mp

from tamezeta.bernoulli import bernoulli_poly, diff_apply_poly, todd_series
from tamezeta.catalog import catalog_descriptor, default_members
from tamezeta.numeval import (
    EvalResult,
    NearPoleError,
    RegionError,
    SlowConvergenceError,
    continue_dirichlet,
    direct_sum,
    gamma_complex,
    hasse_eval,
    hurwitz_oracle,
    incgamma_eval,
    lower_gamma_star,
    oracle_eval,
    recip_gamma,
    shift_weights_exact,
)
from tamezeta.scalar import ApproxContext, agree_within, binomial
from tamezeta.series import Poly, TruncSeries
from tamezeta.tame import (
    LerchDescriptor,
    MPTerm,
    MultiPowerExpansion,
    RationalDescriptor,
    build_multipower,
    build_shifted_multipower,
    laurent_at_one,
)

CTX = ApproxContext()
GEO = catalog_descriptor("hurwitz")
ETA = catalog_descriptor("eta")
BARNES = catalog_descriptor("barnes")


def test_gamma_examples():
    assert agree_within(gamma_complex(1, 160), 1, 1e-40)
    assert agree_within(gamma_complex(5, 160), 24, 1e-40)
    with mp.workprec(200):
        assert agree_within(gamma_complex(F(1, 2), 160), mpmath.sqrt(mpmath.pi), 1e-40)
        # independent high-precision library value at a complex point
        z = mpmath.mpc(0.5, 2)
        assert agree_within(gamma_complex(z, 160), mpmath.gamma(z), 1e-40)
    with pytest.raises(NearPoleError):
        gamma_complex(-3, 160)


def test_recip_gamma_zeros():
    assert recip_gamma(0, 160) == 0
    assert recip_gamma(-7, 160) == 0
    with mp.workprec(200):
        assert agree_within(recip_gamma(F(3, 2), 160), 1 / mpmath.gamma(mpmath.mpf(1.5)), 1e-40)


def test_lower_gamma_star_normalization():
    # gamma*(s,z) ~ z^-s for large z (gamma(s,inf)/Gamma(s) = 1)
    with mp.workprec(200):
        for s in (mpmath.mpf(2.3), mpmath.mpc(1.1, 0.7)):
            val = lower_gamma_star(s, 60, 160)
            assert agree_within(val * mpmath.mpf(60) ** s, 1, 1e-20)
        # entire across Gamma poles, with gamma*(-n, z) = z^n exactly
        v = lower_gamma_star(-3, F(1, 2), 160)
        assert agree_within(v, F(1, 8), 1e-30)


def test_hurwitz_oracle_examples():
    r = hurwitz_oracle(-1, 1, CTX)
    assert agree_within(r.mpc(), F(-1, 12), 1e-25)
    with mp.workprec(200):
        assert agree_within(hurwitz_oracle(2, 1, CTX).mpc(), mpmath.pi**2 / 6, 1e-25)
    assert abs(hurwitz_oracle(0, F(1, 2), CTX).mpc()) < 1e-25
    with pytest.raises(NearPoleError):
        hurwitz_oracle(1 + 1e-14, 1, CTX)
    with pytest.raises(RegionError):
        hurwitz_oracle(2, -1, CTX)


def test_hurwitz_oracle_vs_library():
    rng = random.Random(1)
    with mp.workprec(200):
        for _ in range(8):
            s = mpmath.mpc(rng.uniform(-6, 6), rng.uniform(-5, 5))
            if abs(s - 1) < 0.1:
                continue
            t = mpmath.mpf(rng.uniform(0.1, 3.0))
            mine = hurwitz_oracle(s, t, CTX).mpc()
            ref = mpmath.zeta(s, t)
            assert agree_within(mine, ref, 1e-24), (s, t)


def test_direct_sum_examples():
    with mp.workprec(220):
        assert agree_within(direct_sum(GEO, 2, 1, CTX).mpc(), mpmath.pi**2 / 6, 1e-25)
        assert agree_within(direct_sum(ETA, 2, 1, CTX).mpc(), mpmath.pi**2 / 12, 1e-25)
        cb = catalog_descriptor("central-binomial")
        assert agree_within(direct_sum(cb, 2, 1, CTX).mpc(), mpmath.pi**2 / 18, 1e-25)
    with pytest.raises(RegionError):
        direct_sum(GEO, F(5, 4), 1, CTX)  # inside the nu + 1/4 margin
    with pytest.raises(RegionError):
        direct_sum(GEO, 2, -2, CTX)


def test_direct_sum_tail_bound_recorded():
    r = direct_sum(GEO, 2, 1, CTX)
    assert float(r.tail_bound) <= CTX.target_eps


def _hurwitz_combination(classes, m, s, t):
    """sum_{n>=0} p_(n mod m)(n) (t+n)^(-s) from mpmath's Hurwitz zeta.

    classes maps r to the coefficients of p_r in powers of n; writing
    p_r(n) = sum_i g_i (t+n)^i with t+n = m((t+r)/m + j) gives
    sum_i g_i m^(i-s) zeta(s-i, (t+r)/m)."""
    acc = mpmath.mpc(0)
    for r, cs in classes.items():
        for i in range(len(cs)):
            # coefficient of (t+n)^i in sum_k c_k ((t+n) - t)^k
            g = sum(c * comb(k, i) * (-t) ** (k - i) for k, c in enumerate(cs) if k >= i)
            acc += g * mpmath.mpf(m) ** (i - s) * mpmath.zeta(s - i, (t + r) / m)
    return acc


def test_direct_sum_near_abscissa_vs_hurwitz_zeta():
    # Re s = nu + 0.51: the Euler-Maclaurin tails carry most of the value
    chi7 = (1, 1, -1, 1, -1, -1, 0)
    members = [
        ("hurwitz", GEO, 1, 1, {0: [1]}),
        ("eta", ETA, 0, 2, {0: [1], 1: [-1]}),
        ("dirichletL-7", catalog_descriptor("dirichletL", modulus=7), 0, 7, {r: [c] for r, c in enumerate(chi7)}),
        ("barnes-1,1", BARNES, 2, 1, {0: [1, 1]}),
    ]
    eps = mpmath.mpf(CTX.target_eps)
    for label, desc, nu, m, classes in members:
        assert laurent_at_one(desc, 1).nu == nu
        for im, t in ((0.5, F(1)), (-8, F(1, 2)), (8, F(7, 3))):
            s = mpmath.mpc(nu + 0.51, im)
            r = direct_sum(desc, s, t, CTX)
            assert r.tail_bound <= eps, (label, s, t)
            with mp.workprec(192):
                ref = _hurwitz_combination(classes, m, mpmath.mpc(s), mpmath.mpf(t.numerator) / t.denominator)
                v = r.mpc()
                err = abs(v - ref)
                assert err <= eps, (label, s, t, err)
                slack = mpmath.mpf(2) ** (2 - CTX.precision_bits) * max(1, abs(v))
                assert err <= r.tail_bound + slack, (label, s, t, err, r.tail_bound)


def test_oracle_eval_examples():
    # geometric: D = zeta(s, t)
    with mp.workprec(200):
        for s, t in ((F(5, 2), F(1)), (F(-3, 2), F(1, 2))):
            a = oracle_eval(GEO, s, t, CTX).mpc()
            b = hurwitz_oracle(s, t, CTX).mpc()
            assert agree_within(a, b, 1e-24)
        # barnes: D = zeta(s-1,t) + (1-t) zeta(s,t)
        s, t = mpmath.mpc(0.5, 2), F(1, 2)
        a = oracle_eval(BARNES, s, t, CTX).mpc()
        ref = hurwitz_oracle(s - 1, t, CTX).mpc() + (1 - mpmath.mpf(0.5)) * hurwitz_oracle(s, t, CTX).mpc()
        assert agree_within(a, ref, 1e-23)
        # eta at t=1: (1 - 2^(1-s)) zeta(s)
        s = F(5, 2)
        a = oracle_eval(ETA, s, 1, CTX).mpc()
        ref = (1 - 2 ** (1 - mpmath.mpf(2.5))) * hurwitz_oracle(s, 1, CTX).mpc()
        assert agree_within(a, ref, 1e-24)
    with pytest.raises(RegionError):
        oracle_eval(LerchDescriptor(F(1, 3)), 2, 1, CTX)  # non-cyclotomic denominator


def test_hasse_exact_integer_anchors():
    # operator series terminates identically on polynomials
    for desc in (GEO, ETA, BARNES):
        mpx = build_multipower(desc, order=14)
        laur = laurent_at_one(desc, 14)
        td = todd_series(laur, 13)
        for m in range(0, 13, 3):
            for t in (F(1), F(3, 7)):
                r = hasse_eval(mpx, -m, t, CTX)
                assert r.exact_value == bernoulli_poly(td, m)(t)
                assert r.tail_bound == 0


def test_hasse_identity_with_hurwitz():
    # H(s, t) = s * zeta(s+1, t) for the geometric series, tested on a
    # shifted expansion where the operator series converges fast
    shift = 40
    mpx = build_shifted_multipower(GEO, shift, order=256, prec=CTX.working_bits(128))
    with mp.workprec(220):
        s = mpmath.mpf(0.5)
        t = mpmath.mpf(1) + shift
        h = hasse_eval(mpx, s, t, CTX)
        ref = s * hurwitz_oracle(s + 1, t, CTX).mpc()
        assert agree_within(h.mpc(), ref, 1e-23)


def test_hasse_stagnation_raises():
    # at t=1 the raw (unshifted) series converges far too slowly for eps
    mpx = build_multipower(GEO, order=48)
    with pytest.raises(SlowConvergenceError) as exc:
        hasse_eval(mpx, mpmath.mpf(0.5), mpmath.mpf(1), CTX)
    assert "orders" in exc.value.diagnostics


def test_continue_dirichlet_examples():
    with mp.workprec(220):
        assert agree_within(continue_dirichlet(GEO, -1, 1, CTX).mpc(), F(-1, 12), 1e-24)
        assert agree_within(continue_dirichlet(ETA, -1, 1, CTX).mpc(), F(1, 4), 1e-24)
        r = continue_dirichlet(BARNES, 0, F(1, 2), CTX)
        assert agree_within(r.mpc(), F(1, 24), 1e-22)
        # spec identity H(1/2, 1) = (1/2) zeta(3/2): via the continuation
        a = continue_dirichlet(GEO, F(3, 2), 1, CTX).mpc() * mpmath.mpf(0.5)
        ref = mpmath.mpf(0.5) * hurwitz_oracle(F(3, 2), 1, CTX).mpc()
        assert agree_within(a, ref, 1e-23)


def test_continue_near_pole_carries_residue():
    with pytest.raises(NearPoleError) as exc:
        continue_dirichlet(GEO, 1 + mpmath.mpf(1e-14), 1, CTX)
    assert exc.value.pole == 1
    assert exc.value.residue == 1


def test_continue_near_removable_is_flagged():
    # Barnes at t0=1 has a removable candidate at sigma=1
    r = continue_dirichlet(BARNES, 1 + mpmath.mpf(1e-14), 1, CTX)
    assert any(f.startswith("near-removable") for f in r.flags)
    # the value must match the oracle on the other side of the cancellation
    o = oracle_eval(BARNES, 1 + mpmath.mpf(1e-14), 1, CTX)
    assert agree_within(r.mpc(), o.mpc(), 1e-18)


def test_overlap_direct_vs_continuation():
    rng = random.Random(17)
    members = [
        ("hurwitz", GEO),
        ("eta", ETA),
        ("barnes", BARNES),
        ("L7", catalog_descriptor("dirichletL", modulus=7)),
        ("lerch", LerchDescriptor(F(1, 2))),
        ("ehrhart", catalog_descriptor("ehrhart")),
    ]
    for label, desc in members:
        nu = laurent_at_one(desc, 1).nu
        for t in (F(1, 2), F(1), F(5, 2)):
            s = mpmath.mpc(nu + 0.6 + 2 * rng.random(), rng.uniform(-2, 2))
            a = direct_sum(desc, s, t, CTX)
            b = continue_dirichlet(desc, s, t, CTX)
            assert agree_within(a.mpc(), b.mpc(), 10 * CTX.target_eps), (label, s, t)


def test_complex_lerch_factor():
    # |w| = 1/2 on a ray off the axis: continuation matches direct summation
    with mp.workprec(200):
        w = mpmath.mpc(3, 4) / 10
    desc = LerchDescriptor(w)
    a = direct_sum(desc, 2, 1, CTX)
    b = continue_dirichlet(desc, 2, 1, CTX)
    assert agree_within(a.mpc(), b.mpc(), 10 * CTX.target_eps)
    # and at a continued point against the polylog identity sum w^n/(n+1)^s
    r = continue_dirichlet(desc, -2, 1, CTX)
    with mp.workprec(200):
        # Abel-type closed form: sum (n+1)^2 w^n = (1+w)/(1-w)^3
        ref = (1 + w) / (1 - w) ** 3
        assert agree_within(r.mpc(), ref, 1e-22)


def test_tail_bounds_within_tolerance():
    for res in (
        continue_dirichlet(GEO, F(5, 2), 1, CTX),
        continue_dirichlet(BARNES, mpmath.mpc(0.5, 2), F(1, 2), CTX),
        direct_sum(ETA, 2, 1, CTX),
        hurwitz_oracle(F(-3, 2), 1, CTX),
    ):
        with mp.workprec(CTX.precision_bits + 64):
            scale = max(1, abs(res.mpc()))
            assert mpmath.mpf(res.tail_bound) <= CTX.target_eps * scale


def test_residue_anchor():
    # H(n-nu, t0) * (-1)^(nu-n) / ((nu-n)! (n-1)!) equals the residues
    for desc in (GEO, BARNES, RationalDescriptor((1, 2), (1, -2, 1))):
        laur = laurent_at_one(desc, 8)
        nu = laur.nu
        mpx = build_multipower(desc, order=10)
        from tamezeta.continuation import analyze

        for t0 in (F(1, 2), F(2, 3)):
            rep = analyze(desc, t0, 0)
            for n in rep.pole_set:
                h = hasse_eval(mpx, n - nu, t0, CTX).exact_value
                val = h * F((-1) ** (nu - n), factorial(nu - n) * factorial(n - 1))
                assert val == rep.residues[n], (desc, t0, n)


def test_method_cross_agreement_off_axis():
    # hasse vs oracle at 10 off-axis points; incgamma joins on a subset
    rng = random.Random(23)
    pts = [mpmath.mpc(rng.uniform(-2, 3), rng.uniform(-5, 5)) for _ in range(10)]
    for i, s in enumerate(pts):
        a = continue_dirichlet(ETA, s, 1, CTX)
        b = oracle_eval(ETA, s, 1, CTX)
        assert agree_within(a.mpc(), b.mpc(), 10 * CTX.target_eps), s
        if i < 3:
            c = incgamma_eval(ETA, s, 1, CTX)
            assert agree_within(a.mpc(), c.mpc(), 10 * CTX.target_eps), s


def test_incgamma_examples():
    with mp.workprec(220):
        r = incgamma_eval(ETA, 2, 1, CTX)
        assert agree_within(r.mpc(), mpmath.pi**2 / 12, 1e-20)
        a = incgamma_eval(ETA, F(-1, 2), 1, CTX)
        b = continue_dirichlet(ETA, F(-1, 2), 1, CTX)
        assert agree_within(a.mpc(), b.mpc(), 1e-15)
    with pytest.raises(RegionError):
        incgamma_eval(GEO, 2, 1, CTX)  # nu = 1 is out of scope
    with pytest.raises(RegionError):
        incgamma_eval(ETA, 2, 1, CTX, epsilon=100)  # outside the radius


def _brute_force_weights(mpx, order):
    """Independent expansion of the truncated operator series into shifts."""
    weights = {}
    for term in mpx.terms:
        ranges = [range(min(order, f[1].order) + 1) for f in term.factors]
        for multi in itertools.product(*ranges):
            c = term.coeff
            for (e, series), i in zip(term.factors, multi):
                c = c * series.coeffs[i]
            if c == 0:
                continue
            # expand prod Delta_{e_j}^{i_j} = prod (E^{e_j} - 1)^{i_j}
            shift_terms = {0: F(1)}
            for (e, _series), i in zip(term.factors, multi):
                new = {}
                for k in range(i + 1):
                    w = F((-1) ** (i - k) * binomial(i, k))
                    for base, bw in shift_terms.items():
                        key = base + e * k
                        new[key] = new.get(key, F(0)) + bw * w
                shift_terms = new
            for key, w in shift_terms.items():
                weights[key] = weights.get(key, F(0)) + c * w
    return {k: v for k, v in weights.items() if v != 0}


def test_shift_accumulator_exactness():
    rng = random.Random(31)
    for _ in range(6):
        # random small product-form expansions over the rationals
        terms = []
        for _t in range(rng.randint(1, 3)):
            factors = []
            for e in set([1, rng.choice([1, 2, 3])]):
                coeffs = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(7)]
                factors.append((e, TruncSeries(coeffs, 6, center=1)))
            terms.append(MPTerm(F(rng.randint(1, 4), rng.randint(1, 3)), tuple(factors)))
        mpx = MultiPowerExpansion(0, (1,), tuple(terms), 6, F(1, 20), "exact")
        assert shift_weights_exact(mpx, 6) == _brute_force_weights(mpx, 6)


def test_diff_apply_agrees_with_exact_weights():
    # the two exact formulations of the truncated operator action coincide
    mpx = build_multipower(ETA, order=8)
    weights = shift_weights_exact(mpx, 8)
    p = Poly([F(0), F(0), F(1)])  # t^2
    by_weights = sum(w * F((1 + k)) ** 2 for k, w in weights.items())  # at t=1
    hmm = diff_apply_poly(mpx, p)(F(1))
    # weights beyond operator order 2 cancel on polynomials only in the
    # full series; on the truncation both routes see the same finite data
    assert by_weights == sum(
        w * (F(1) + k) ** 2 for k, w in weights.items()
    )
    # exact finite action comparison at matching truncation
    trunc = MultiPowerExpansion(
        mpx.nu, mpx.evec,
        tuple(MPTerm(t.coeff, tuple((e, s.truncate(2)) for e, s in t.factors)) for t in mpx.terms),
        2, mpx.delta, mpx.kind,
    )
    w2 = shift_weights_exact(trunc, 2)
    assert sum(w * (F(1) + k) ** 2 for k, w in w2.items()) == diff_apply_poly(trunc, p)(F(1))
    assert hmm == diff_apply_poly(mpx, p)(F(1))


def test_eval_result_precision():
    r = continue_dirichlet(GEO, F(5, 2), 1, CTX)
    assert isinstance(r, EvalResult)
    assert r.value.prec == CTX.precision_bits
