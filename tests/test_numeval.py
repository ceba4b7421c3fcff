import itertools
import math
import random
from fractions import Fraction as F
from math import comb, factorial

import mpmath
import pytest
from mpmath import mp

from tamezeta.bernoulli import bernoulli_poly, diff_apply_poly, todd_series
from tamezeta.catalog import catalog_descriptor, default_members
from tamezeta.continuation import analyze
from tamezeta.cyclotomic import CycloNum
from tamezeta.numeval import (
    EvalResult,
    NearPoleError,
    RegionError,
    SlowConvergenceError,
    continue_dirichlet,
    direct_sum,
    hasse_eval,
    hurwitz_oracle,
    incgamma_eval,
    lower_gamma_star,
    oracle_eval,
    recip_gamma,
    shift_weights,
)
from tamezeta import numeval, tame
from tamezeta.scalar import ApproxContext, agree_within, as_mpc, as_mpf, binomial
from tamezeta.series import Poly, TruncSeries
from tamezeta.tame import (
    BarnesDescriptor,
    CharacterDescriptor,
    EhrhartDescriptor,
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


def _gamma_star_reference(a, z):
    """z^(-a) gamma(a, z)/Gamma(a), or its limit z^m at a = -m."""
    if a.imag == 0 and a.real <= 0 and a.real == mpmath.floor(a.real):
        return z ** (-a)
    return z ** (-a) * mpmath.gammainc(a, 0, z) / mpmath.gamma(a)


def test_lower_gamma_star_relative_at_large_index():
    # the incomplete-gamma head multiplies gamma*(s+n, z) by (s)_n, so the
    # tiny values at large n must be right in relative terms
    # z = log(4)/2 is the central-binomial head argument at t = 1; every z
    # is a 53-bit float, so both sides see the same argument
    points = (
        (mpmath.mpc(-85 / 256, 1785 / 512), mpmath.log(4) / 2),
        (mpmath.mpc(-3), mpmath.mpf(0.5)),
        (mpmath.mpc(-2.5, 3.7), mpmath.mpf(7) / 3),
        (mpmath.mpc(0.3, 2), mpmath.mpf(1)),
    )
    for s, z in points:
        for n in range(71):
            with mp.workprec(400):
                a = s + n
                ref = _gamma_star_reference(a, z)
            v = lower_gamma_star(a, z, 128)
            with mp.workprec(400):
                assert abs(v - ref) <= mpmath.mpf(2) ** -128 * abs(ref), (s, n)


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
    for desc in (GEO, ETA, BARNES, catalog_descriptor("dirichletL", modulus=7)):
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
    # at t=1 the raw (unshifted) series converges far too slowly for eps; an
    # expansion of order 32 or less has no rung at all
    for order in (16, 48):
        mpx = build_multipower(GEO, order=order)
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


def test_continue_at_a_removable_candidate_raises_with_residue_zero():
    # Barnes at t0 = 1 has a removable candidate at sigma = 1, where the
    # operator route divides by a zero rising factorial
    for s in (F(1), 1, mpmath.mpc(1, 0)):
        with pytest.raises(NearPoleError, match="divides by zero") as exc:
            continue_dirichlet(BARNES, s, 1, CTX)
        assert exc.value.pole == 1 and exc.value.residue == 0, s


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


def test_incgamma_bounds_hold_where_they_used_to_fail():
    # each point was once outside its own bound or above eps: the gamma-star
    # head lost relative accuracy at large n, and the quadrature ran to eps
    # although its error is multiplied by |1/Gamma(s)|
    ref_ctx = ApproxContext(precision_bits=192, target_eps=1e-45)
    ctx64 = ApproxContext(precision_bits=64, target_eps=1e-12)
    points = [
        (catalog_descriptor("central-binomial"), mpmath.mpc(-85 / 256, 1785 / 512), F(1), CTX),
        (catalog_descriptor("lerch"), mpmath.mpc(0.7, 1.2), F(1), CTX),
        (catalog_descriptor("dirichletL", modulus=7), mpmath.mpc(0.3, 2), F(1), CTX),
        (ETA, mpmath.mpc(-2.5, 3.7), F(7, 3), CTX),
        (catalog_descriptor("dirichletL", modulus=3), mpmath.mpc(-1.444, -2.125), F(1), ctx64),
    ]
    for desc, s, t, ctx in points:
        r = incgamma_eval(desc, s, t, ctx)
        ref = continue_dirichlet(desc, s, t, ref_ctx)
        assert r.tail_bound <= ctx.target_eps, (desc, s)
        with mp.workprec(192):
            v = r.mpc()
            err = abs(v - ref.mpc())
            slack = mpmath.mpf(2) ** (2 - ctx.precision_bits) * max(1, abs(v))
            assert err <= r.tail_bound + slack, (desc, s, err, r.tail_bound)


# alpha = 1: the incgamma integrand is e^(-ut) u^(s-1), whose integral over
# [lo, hi] is t^(-s) (Gamma(s, t lo) - Gamma(s, t hi))
ONE = RationalDescriptor((1,), (1,))


def _gamma_rule(s, t, lo, hi, log2_eps, work=160):
    """The planned rule for e^(-ut) u^(s-1) on [lo, hi], its integrand
    counting its calls, and the exact integral."""
    with mp.workprec(work):
        sc, tc = as_mpc(s, work), as_mpf(t, work)
        fb = numeval._IntegrandBound.of(ONE, sc, tc, work)
        plan = numeval._ts_plan(fb, lo, hi, log2_eps)
        f = numeval._make_integrand(ONE, sc, tc, work)
        exact = tc ** (-sc) * mpmath.gammainc(sc, tc * lo, tc * hi)
    seen = []

    def counted(u):
        seen.append(u)
        return f(u)

    return fb, plan, counted, seen, exact


def test_tanh_sinh_evaluates_each_node_once():
    _, plan, f, seen, _ = _gamma_rule(mpmath.mpc(0.5, 1), 1, 1, 8, -133)
    numeval._tanh_sinh(f, 1, 8, plan, 160)
    assert len(seen) == len(set(seen)) == plan.nodes
    assert all(1 < u < 8 for u in seen)


def test_tanh_sinh_matches_incomplete_gamma():
    # int_1^8 e^(-u) u^(s-1) du = Gamma(s, 1) - Gamma(s, 8), within the
    # planned bound plus the rounding term
    eps = mpmath.mpf(10) ** -30
    for s in (mpmath.mpc(0.5, 1), mpmath.mpc(-2.5, 3.7), mpmath.mpc(3, 0)):
        _, plan, f, _, exact = _gamma_rule(s, 1, 1, 8, float(mpmath.log(eps, 2)))
        with mp.workprec(160):
            got, size = numeval._tanh_sinh(f, 1, 8, plan, 160)
            bound = mpmath.mpf(2) ** plan.log2_err + size * mpmath.mpf(2) ** (numeval._ROUNDING_ULPS - 160)
            assert bound <= eps
            assert abs(got - exact) <= bound, s


def test_tanh_sinh_bound_holds_at_twice_the_step():
    # the strip bound is no mere estimate: with the step doubled the rule
    # is far less accurate, and its error must still lie under the bound
    # 2M/(e^(2 pi a/h) - 1) + cut-offs that the same strip gives for that step
    cases = ((mpmath.mpc(0.5, 1), 1, 1, 8), (mpmath.mpc(-2.5, 3.7), F(7, 3), 1, 30), (mpmath.mpc(2, -6), F(1, 2), 0.5, 60))
    for s, t, lo, hi in cases:
        fb, plan, f, _, exact = _gamma_rule(s, t, lo, hi, -100)
        steps = plan.steps // 2
        left, right = (-(-n * steps // plan.steps) for n in (plan.left, plan.right))
        log2_err = numeval._ts_errors(fb, lo, hi, plan.a, plan.log2_m, steps, left, right)
        coarse = numeval._TanhSinhPlan(plan.a, plan.log2_m, steps, left, right, log2_err)
        with mp.workprec(160):
            got, size = numeval._tanh_sinh(f, lo, hi, coarse, 160)
            err = abs(got - exact)
            assert err > mpmath.mpf(2) ** plan.log2_err, s  # the coarse rule is visibly worse
            assert err <= mpmath.mpf(2) ** log2_err + size * mpmath.mpf(2) ** (numeval._ROUNDING_ULPS - 160), s


def test_incgamma_certified_over_the_pole_free_catalog():
    # seeded scan: every pole-free member at t in {1/2, 1, 7/3}, Re s in
    # [-3, 3], |Im s| <= 8, against a 192-bit operator-route reference
    rng = random.Random(2023)
    ref_ctx = ApproxContext(precision_bits=192, target_eps=1e-45)
    labels = ("eta", "dirichletL-3", "dirichletL-7", "lerch-1/2", "central-binomial")
    for label, desc in default_members():
        if label not in labels:
            continue
        for t in (F(1, 2), F(1), F(7, 3)):
            s = mpmath.mpc(rng.uniform(-3, 3), rng.uniform(-8, 8))
            r = incgamma_eval(desc, s, t, CTX)
            assert r.bound_kind == "certified"
            assert r.tail_bound <= CTX.target_eps, (label, s, t)
            ref = continue_dirichlet(desc, s, t, ref_ctx)
            with mp.workprec(192):
                err = abs(r.mpc() - ref.mpc())
                slack = mpmath.mpf(2) ** (2 - CTX.precision_bits) * max(1, abs(ref.mpc()))
                assert err <= r.tail_bound + slack, (label, s, t, err, r.tail_bound)


def test_incgamma_integrand_calls(monkeypatch):
    # one integrand call per node of the planned rule: at most 280 on the
    # eta region of the benchmark (t = 7/3, Re s in [-3, 3], |Im s| <= 4),
    # at most 400 on the central-binomial probe
    calls = []
    make = numeval._make_integrand

    def counting(*args):
        f = make(*args)

        def g(u):
            calls[-1] += 1
            return f(u)

        return g

    rng = random.Random(7)
    points = [(ETA, mpmath.mpc(x, y), F(7, 3)) for x in (-3, 0, 3) for y in (-4, 4)]
    points += [(ETA, mpmath.mpc(rng.uniform(-3, 3), rng.uniform(-4, 4)), F(7, 3)) for _ in range(2)]
    probe = (catalog_descriptor("central-binomial"), mpmath.mpc(-85 / 256, 1785 / 512), F(1))
    monkeypatch.setattr(numeval, "_make_integrand", counting)
    for desc, s, t in points + [probe]:
        calls.append(0)
        incgamma_eval(desc, s, t, CTX)
    assert max(calls[:-1]) <= 280, calls
    assert calls[-1] <= 400, calls


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
    expansions = []
    for _ in range(6):
        # random small product-form expansions over the rationals
        terms = []
        for _t in range(rng.randint(1, 3)):
            factors = []
            for e in set([1, rng.choice([1, 2, 3])]):
                coeffs = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(7)]
                factors.append((e, TruncSeries(coeffs, 6, center=1)))
            terms.append(MPTerm(F(rng.randint(1, 4), rng.randint(1, 3)), tuple(factors)))
        mpx = MultiPowerExpansion(0, tuple(terms), 6, "exact")
        assert shift_weights(mpx, 6) == _brute_force_weights(mpx, 6)
        expansions.append(mpx)
    with mp.workprec(200):
        # an approx-kind expansion: Lerch at an inexact w = 1/2
        expansions.append(build_multipower(LerchDescriptor(mpmath.mpf(1) / 2), order=6, prec=200))
        for mpx in expansions:
            numeric = shift_weights(mpx, 6, 200)
            ref = _brute_force_weights(mpx, 6)
            assert ref
            for k in set(numeric) | set(ref):
                assert agree_within(numeric.get(k, 0), as_mpc(ref.get(k, 0), 200), 1e-50), k


def _by_weights(weights, p, t):
    """sum_sigma W_sigma p(t + sigma), reduced to a Fraction."""
    val = F(0)
    for sigma in sorted(weights):
        val += weights[sigma] * p(t + sigma)
    return val if isinstance(val, F) else val.to_fraction()


def test_diff_apply_agrees_with_exact_weights():
    # the difference form sum_i c_i Delta_e^i and the shift form
    # sum_sigma W_sigma E^sigma of the truncated operator agree exactly on
    # polynomials of degree <= the truncation order
    chi7 = catalog_descriptor("dirichletL", modulus=7)
    for desc in (ETA, BARNES, chi7):
        mpx = build_multipower(desc, order=8)
        assert mpx.kind == "exact"
        if desc is chi7:
            assert any(isinstance(w, CycloNum) for w in shift_weights(mpx, 8).values())
        for deg in (0, 1, 3, 8):
            p = Poly([F((-1) ** j * (j + 2), j + 1) for j in range(deg + 1)])
            for t in (F(1), F(7, 3)):
                ref = diff_apply_poly(mpx, p)(t)
                assert isinstance(ref, F)
                for M in (deg, mpx.order):
                    assert _by_weights(shift_weights(mpx, M), p, t) == ref, (desc, deg, M, t)


def test_continue_dirichlet_integer_s_at_float_t():
    # characters carry cyclotomic operator data; an inexact t sends the
    # integer-s branch through mpc weights, which must agree with the
    # exact-t value
    for modulus in (4, 7):
        desc = catalog_descriptor("dirichletL", modulus=modulus)
        for k in (0, 3, 7):
            approx = continue_dirichlet(desc, -k, mpmath.mpf(0.5), CTX)
            exact = continue_dirichlet(desc, -k, F(1, 2), CTX)
            with mp.workprec(400):
                v = exact.mpc()
                tol = approx.tail_bound + mpmath.mpf(2) ** (2 - CTX.precision_bits) * max(1, abs(v))
                assert abs(approx.mpc() - v) <= tol, (modulus, k)


def test_hasse_integer_s_mpc_branch_matches_exact():
    # the exact-family kinds at an inexact t (400-bit mpf) against the
    # exact Fraction value at the same rational t
    descs = (
        BarnesDescriptor((1, 2)),
        EhrhartDescriptor((F(1),), 3, 1),
        catalog_descriptor("dirichletL", modulus=4),
        catalog_descriptor("dirichletL", modulus=7),
        CharacterDescriptor(3, (1, -1, 0), 2),
        RationalDescriptor((1, 1), (1, 1, 1)),
    )
    for desc in descs:
        nu = laurent_at_one(desc, 2).nu
        mpx = build_multipower(desc, order=nu + 12)
        for t in (F(1, 2), F(7, 3), F(41, 2)):
            with mp.workprec(400):
                t_mpf = mpmath.mpf(t.numerator) / t.denominator
            for n in range(nu, nu + 13):
                exact = hasse_eval(mpx, -n, t, CTX).exact_value
                r = hasse_eval(mpx, -n, t_mpf, CTX)
                assert r.exact_value is None
                with mp.workprec(400):
                    v = mpmath.mpf(exact.numerator) / exact.denominator
                    assert abs(r.mpc() - v) <= r.tail_bound * max(1, abs(v)), (desc, t, n)


def test_integer_s_continuation_never_builds_full_order_weights(monkeypatch):
    # hasse_eval reads at most order max(n, 16) of the expansion at s = -n;
    # the order-256 expansion of a generic point and its weight table would
    # cost seconds for a small n
    requested = []
    original = numeval._shifted_mp

    def recording(desc, shift, order, prec):
        requested.append(order)
        return original(desc, shift, order, prec)

    monkeypatch.setattr(numeval, "_shifted_mp", recording)
    for desc in (BARNES, catalog_descriptor("dirichletL", modulus=7), catalog_descriptor("zeta-even")):
        nu = laurent_at_one(desc, 1).nu
        for k in (0, 3, 7, 20):
            for t in (F(1, 2), mpmath.mpf(0.5)):
                continue_dirichlet(desc, -k, t, CTX)
                assert requested[-1] == max(16, nu + k)


def test_eval_result_precision():
    r = continue_dirichlet(GEO, F(5, 2), 1, CTX)
    assert isinstance(r, EvalResult)
    assert r.value.prec == CTX.precision_bits


def test_continue_dirichlet_does_not_depend_on_cache_state():
    s = mpmath.mpc(-1.5, 2.25)
    first = continue_dirichlet(BARNES, s, F(1, 2), CTX)
    caches = (
        numeval._coefficient_model,
        numeval._weight_tables,
        numeval._table_sizes,
        numeval._tail_plan,
        numeval._shifted_mp,
        tame._singularities,
    )
    for cache in caches:
        cache.cache_clear()
    again = continue_dirichlet(BARNES, s, F(1, 2), CTX)
    assert (again.value.real, again.value.imag) == (first.value.real, first.value.imag)
    assert again.tail_bound == first.tail_bound


def test_incgamma_does_not_depend_on_cache_state():
    # node lists grow in blocks that each start from their own e^(kh): a
    # list a short rule began and a longer one extended holds the same nodes
    s, t = mpmath.mpc(-1.5, 2.25), F(7, 3)
    work = CTX.working_bits(numeval._eps_bits(CTX) + 32)
    caches = (numeval._ts_nodes, numeval._alpha_majorant, numeval._strip_cells)
    for cache in caches:
        cache.cache_clear()
    first = incgamma_eval(ETA, s, t, CTX)
    for cache in caches:
        cache.cache_clear()
    for steps in range(8, 64):
        numeval._ts_node_list(steps, 3, work)
    again = incgamma_eval(ETA, s, t, CTX)
    assert (again.value.real, again.value.imag) == (first.value.real, first.value.imag)
    assert again.tail_bound == first.tail_bound
    extended = list(numeval._ts_node_list(20, 100, work))
    numeval._ts_nodes.cache_clear()
    assert numeval._ts_node_list(20, 100, work) == extended


def test_exact_and_inexact_lerch_factors_are_cached_apart():
    # w = 1/2 exact and as an mpf are equal numbers with exact and
    # approximate data; caches keyed on the descriptor must keep them apart
    inexact, exact = LerchDescriptor(mpmath.mpf(1) / 2), LerchDescriptor(F(1, 2))
    assert inexact != exact
    for desc, kind in ((inexact, "approx"), (exact, "exact")):
        assert build_multipower(desc, order=6, prec=200).kind == kind
        assert numeval._shifted_mp(desc, 8, 16, 200).kind == kind


def test_hasse_eval_equal_expansions_give_identical_values():
    # caches key on the expansion's identity; equal expansions built apart
    # must still give the same bits
    a = build_shifted_multipower(ETA, 12, order=128, prec=256)
    b = build_shifted_multipower(ETA, 12, order=128, prec=256)
    assert a is not b
    s = mpmath.mpc(-2.5, 1.5)
    ra, rb = hasse_eval(a, s, 13, CTX), hasse_eval(b, s, 13, CTX)
    assert (ra.value.real, ra.value.imag) == (rb.value.real, rb.value.imag)
    assert ra.truncation == rb.truncation


# a_{n+1} per residue class of n mod m, as coefficients in powers of n
EM_CLASSES = {
    "hurwitz": (1, {0: [1]}),
    "eta": (2, {0: [1], 1: [-1]}),
    "dirichletL-3": (3, {0: [1], 1: [-1]}),
    "dirichletL-7": (7, {r: [c] for r, c in enumerate((1, 1, -1, 1, -1, -1, 0))}),
    "barnes-1,1": (1, {0: [1, 1]}),
    "ehrhart": (1, {0: [2, 1]}),
}


# a_{n+1} of the members with a geometric coefficient stream
GEOMETRIC_COEFFS = {
    "lerch-1/2": lambda n: F(1, 2**n),
    "central-binomial": lambda n: F(1, comb(2 * n + 2, n + 1)),
}


def _geometric_sum(coeff, s, t, bits):
    """sum_{n>=0} coeff(n) (t+n)^(-s) for coefficients that decay at least
    like 2^(-n/2), summed until 16 terms in a row are below 2^-bits."""
    acc = mpmath.mpc(0)
    n = small = 0
    while small < 16:
        term = coeff(n) * (t + n) ** (-s)
        acc += term
        small = small + 1 if abs(term) < mpmath.mpf(2) ** -bits else 0
        n += 1
    return acc


def _em_reference(label, s, t, bits):
    """D(s, t) at ``bits`` from mpmath's Hurwitz zeta or a direct sum."""
    with mp.workprec(bits):
        s = mpmath.mpc(s)
        t = mpmath.mpf(t.numerator) / t.denominator
        if label in EM_CLASSES:
            m, classes = EM_CLASSES[label]
            return _hurwitz_combination(classes, m, s, t)
        if label in GEOMETRIC_COEFFS:
            coeff = GEOMETRIC_COEFFS[label]
            return _geometric_sum(lambda n: as_mpc(coeff(n), bits), s, t, bits)
        # zeta-even: a_{2j} = zeta(2j), split as 1 plus zeta(2j) - 1 <= 2^(1-2j)
        excess = _geometric_sum(lambda n: mpmath.zeta(n + 1) - 1 if n % 2 else 0, s, t, bits)
        return mpmath.mpf(2) ** -s * mpmath.zeta(s, (t + 1) / 2) + excess


def test_em_reference_classes_match_coefficients():
    members = dict(default_members())
    for label, (m, classes) in EM_CLASSES.items():
        a = numeval.coeffs(members[label], 4 * m)
        for n in range(4 * m):
            assert a[n] == sum(c * n**k for k, c in enumerate(classes.get(n % m, []))), (label, n)
    for label, coeff in GEOMETRIC_COEFFS.items():
        assert numeval.coeffs(members[label], 12) == [coeff(n) for n in range(12)], label


@pytest.mark.parametrize("bits,eps", [(64, 1e-12), (128, 1e-25), (256, 1e-60)])
def test_em_routes_within_bound_across_catalog(bits, eps):
    # the planned head and orders must certify every bound at eps, and the
    # value must lie within that bound of a reference at twice the bits
    ctx = ApproxContext(precision_bits=bits, target_eps=eps)
    for label, desc in default_members():
        nu = laurent_at_one(desc, 1).nu
        for re, im, t in itertools.product((nu + 0.51, nu + 3), (0.5, -8, 16), (F(1, 2), F(7, 3), F(41, 2))):
            s = complex(re, im)
            results = [direct_sum(desc, s, t, ctx)]
            if label in EM_CLASSES:
                results.append(oracle_eval(desc, s, t, ctx))
            ref = _em_reference(label, s, t, 2 * bits)
            for r in results:
                assert r.tail_bound <= eps, (label, s, t, r.method)
                with mp.workprec(2 * bits):
                    v = r.mpc()
                    slack = mpmath.mpf(2) ** (2 - bits) * max(1, abs(v))
                    assert abs(v - ref) <= r.tail_bound + slack, (label, s, t, r.method, abs(v - ref))


def test_hurwitz_head_sized_from_the_order_needed():
    # the cap K = 0.18 * work once set a head of 124 terms here
    s = mpmath.mpc(1.5, 2)
    assert direct_sum(GEO, s, F(1, 2), CTX).truncation < 40
    assert oracle_eval(GEO, s, F(1, 2), CTX).truncation < 40


def test_central_binomial_rest_bound_covers_the_remainder():
    # a_{n+2}/a_{n+1} = 1/3 at n = 0: at large t the rest stops at its
    # first term, and its bound must cover everything after that term
    desc = catalog_descriptor("central-binomial")
    bits = 2 * CTX.precision_bits
    for s, t in ((13, F(100)), (7, F(10**4))):
        r = direct_sum(desc, s, t, CTX)
        assert r.truncation == 1 and r.tail_bound <= CTX.target_eps
        ref = _em_reference("central-binomial", s, t, bits)
        with mp.workprec(bits):
            remainder = ref - (mpmath.mpf(t.numerator) / t.denominator) ** -s / 2
            assert abs(remainder) <= r.tail_bound, (s, t, r.tail_bound, remainder)
            assert abs(r.mpc() - ref) <= r.tail_bound + mpmath.mpf(2) ** (2 - CTX.precision_bits) * abs(ref)


def test_zeta_even_zero_rest_term_never_stops_the_rest():
    # the rest zeta(n+1) - 1 is zero on the even index class, so the sum
    # from an even index opens with a zero term that bounds nothing
    desc = catalog_descriptor("zeta-even")
    work = CTX.working_bits(90)
    model = numeval._coefficient_model(desc, work)
    assert model.ratio_per_term
    eps = mpmath.mpf(CTX.target_eps)
    with mp.workprec(work):
        s, t = mpmath.mpc(1.51, -8), mpmath.mpf(7) / 3
        for N in (0, 10, 24):
            val, bound, extra = numeval._geometric_rest_tail(desc, model, s, t, N, eps, work, CTX.max_terms)
            assert bound < eps and extra > 2
            ref = _geometric_sum(lambda n: mpmath.zeta(N + n + 1) - 1 if (N + n) % 2 else 0, s, t + N, work)
            assert abs(val - ref) <= bound + mpmath.mpf(2) ** (2 - CTX.precision_bits), N


def test_integer_s_continuation_exact_and_within_bound(monkeypatch):
    # exact data at rational t: the operator part is the exact Fraction
    # (D(-k, t) - head) * rising, whatever the expansion order, so it does
    # not move with the order; other data within tail_bound of the
    # Bernoulli-polynomial special values
    calls = []
    original = numeval.hasse_eval

    def recording(mpx, s, t, ctx):
        out = original(mpx, s, t, ctx)
        calls.append((t, out))
        return out

    monkeypatch.setattr(numeval, "hasse_eval", recording)
    for label, desc in default_members():
        nu = laurent_at_one(desc, 1).nu
        for t in (F(1, 2), F(7, 3)):
            rep = analyze(desc, t, 7, prec=400)
            for k in (0, 1, 3, 7):
                r = continue_dirichlet(desc, -k, t, CTX)
                t_shifted, hres = calls[-1]
                special = rep.special_values[k]
                if isinstance(special, F):
                    shift = int(t_shifted - t)
                    a = numeval.coeffs(desc, shift)
                    head = sum(a[n] * (t + n) ** k for n in range(shift))
                    rising = 1
                    for j in range(nu):
                        rising *= -k - nu + j
                    assert hres.exact_value == (special - head) * rising, (label, t, k)
                with mp.workprec(400):
                    v = r.mpc()
                    ref = special if not isinstance(special, F) else mpmath.mpf(special.numerator) / special.denominator
                    slack = mpmath.mpf(2) ** (2 - CTX.precision_bits) * max(1, abs(v))
                    assert abs(v - ref) <= r.tail_bound + slack, (label, t, k)


def test_integer_s_mpc_branch_uses_one_weight_table(monkeypatch):
    # the mpc weights are keyed on the order's guard bits, so every n <= 16
    # reads one table
    keys = []
    original = numeval._cached_weights

    def recording(mpx, order, prec):
        keys.append((mpx, order, prec))
        return original(mpx, order, prec)

    monkeypatch.setattr(numeval, "_cached_weights", recording)
    for name, params, t in (
        ("zeta-even", {}, F(1, 2)),
        ("dirichletL", {"modulus": 7}, mpmath.mpf(0.5)),
    ):
        desc = catalog_descriptor(name, **params)
        nu = laurent_at_one(desc, 1).nu
        rep = analyze(desc, F(1, 2), 16, prec=400)
        keys.clear()
        for n in range(nu, 17):
            r = continue_dirichlet(desc, nu - n, t, CTX)
            assert r.exact_value is None and r.tail_bound <= CTX.target_eps, (name, n)
            special = rep.special_values[n - nu]
            with mp.workprec(400):
                v = r.mpc()
                ref = special if not isinstance(special, F) else mpmath.mpf(special.numerator) / special.denominator
                slack = mpmath.mpf(2) ** (2 - CTX.precision_bits) * max(1, abs(v))
                assert abs(v - ref) <= r.tail_bound + slack, (name, n)
        assert len(set(keys)) == 1, (name, sorted({k[1:] for k in keys}))


def test_integer_s_far_left_carries_the_cancelled_bits():
    # at s = -n the head and the operator part grow like (t+shift)^n and
    # cancel to D(-n, t); at n = 40 that is about 200 bits, beyond the
    # guard bits of both, so the head is summed with more bits and the
    # weights are rebuilt with more guard bits
    for label in ("hurwitz", "barnes-1,1"):
        desc = dict(default_members())[label]
        rep = analyze(desc, F(1, 2), 40, prec=600)
        for n in (29, 40):
            special = rep.special_values[n]
            for t in (F(1, 2), mpmath.mpf(0.5)):
                r = continue_dirichlet(desc, -n, t, CTX)
                assert r.tail_bound <= CTX.target_eps, (label, n, t)
                with mp.workprec(600):
                    v = r.mpc()
                    ref = mpmath.mpf(special.numerator) / special.denominator
                    slack = mpmath.mpf(2) ** (2 - CTX.precision_bits) * max(1, abs(v))
                    assert abs(v - ref) <= r.tail_bound + slack, (label, n, t, abs(v - ref))


def test_near_pole_points_share_weight_tables(monkeypatch):
    # the eps bits grow as the point nears the pole at 1; the weight tables
    # follow them in 64-bit classes, so each rung needs at most two
    original = numeval._cached_weights
    points = [1 + d * mpmath.expj(0.7) for d in (0.9, 0.3, 0.1, 0.03, 0.01, 1e-4)]
    ref_ctx = ApproxContext(precision_bits=256, target_eps=1e-60)
    for name in ("hurwitz", "zeta-even"):
        desc = catalog_descriptor(name)
        rungs = {}

        def recording(mpx, order, prec):
            rungs.setdefault(order, set()).add(prec)
            return original(mpx, order, prec)

        monkeypatch.setattr(numeval, "_cached_weights", recording)
        results = [continue_dirichlet(desc, s, F(1, 2), CTX) for s in points]
        monkeypatch.undo()
        assert rungs and all(len(precs) <= 2 for precs in rungs.values()), (name, rungs)
        for s, r in zip(points, results):
            if name == "hurwitz":
                ref = hurwitz_oracle(s, F(1, 2), ref_ctx)
            else:
                ref = continue_dirichlet(desc, s, F(1, 2), ref_ctx)
            with mp.workprec(300):
                v = r.mpc()
                slack = mpmath.mpf(2) ** (2 - CTX.precision_bits) * max(1, abs(v))
                assert abs(v - ref.mpc()) <= r.tail_bound + slack, (name, s)


def test_singularities_computed_once_per_descriptor_and_precision(monkeypatch):
    desc = catalog_descriptor("dirichletL", modulus=7)
    calls = []
    original = tame._rational_singularities

    def recording(rf, prec):
        calls.append(prec)
        return original(rf, prec)

    monkeypatch.setattr(tame, "_rational_singularities", recording)
    tame._singularities.cache_clear()
    numeval._coefficient_model.cache_clear()
    work = CTX.working_bits(numeval._eps_bits(CTX))
    for _ in range(3):
        laurent_at_one(desc, 4, prec=work)
        direct_sum(desc, 3, F(1, 2), CTX)
        oracle_eval(desc, mpmath.mpc(-1.5, 2), F(1, 2), CTX)
    assert calls == [work]


def test_rest_ratio_is_the_nearest_rest_root():
    prec = 160
    # 1 - z/2; (1 - z)(1 - z/3), whose root at 1 is not part of the rest;
    # 1 - z + z^2/2, with the complex roots 1 +- i
    for den in ((1, F(-1, 2)), (1, F(-4, 3), F(1, 3)), (1, -1, F(1, 2))):
        model = numeval._coefficient_model(RationalDescriptor((1,), den), prec)
        with mp.workprec(2 * prec):
            coefficients = [mpmath.mpf(F(c).numerator) / F(c).denominator for c in reversed(den)]
            roots = mpmath.polyroots(coefficients, extraprec=2 * prec)
            rest = [r for r in roots if abs(r - 1) > mpmath.mpf(2) ** (-prec)]
            expected = 1 / min(abs(r) for r in rest) * (1 + mpmath.mpf(2) ** (-prec // 4))
            assert abs(model.rest_ratio - expected) <= expected * mpmath.mpf(2) ** (-prec), den


def test_alpha_with_a_polynomial_part():
    # 1 + 2z: D(3, 1) = 1 + 2/8, a finite sum
    poly = RationalDescriptor((1, 2), (1,))
    for route in (direct_sum, oracle_eval, continue_dirichlet, incgamma_eval):
        res = route(poly, 3, 1, CTX)
        assert abs(res.mpc() - F(5, 4)) <= res.tail_bound + 1e-35, route.__name__
        assert res.tail_bound <= CTX.target_eps
    # 1 + z^7/(1 - z): D(3, 1) = 1 + zeta(3, 8), a polynomial part of degree 6
    # over the proper 1/(1 - z)
    shifted = RationalDescriptor((1, -1, 0, 0, 0, 0, 0, 1), (1, -1))
    with mp.workprec(200):
        exact = 1 + mpmath.zeta(3, 8)
    ref = continue_dirichlet(shifted, 3, 1, CTX)
    assert abs(ref.mpc() - exact) <= ref.tail_bound + 1e-35
    for route in (direct_sum, oracle_eval):
        res = route(shifted, 3, 1, CTX)
        assert abs(res.mpc() - exact) <= res.tail_bound + 1e-35, route.__name__


def test_inexact_lerch_at_one_is_hurwitz_zeta():
    # w = 1 as an mpf: direct_sum models it as the exact w = 1 does, and the
    # operator route assembles the pole at z = 1
    ref = hurwitz_oracle(3, F(1, 2), CTX)
    for route in (direct_sum, continue_dirichlet):
        res = route(LerchDescriptor(mpmath.mpf(1)), 3, F(1, 2), CTX)
        assert abs(res.mpc() - ref.mpc()) <= res.tail_bound + ref.tail_bound, route.__name__


def test_operator_route_far_left_within_eps_of_hurwitz_decomposition():
    # barnes-1,1 at s = -8+1.5i, t = 1/2: D = zeta(s-1, t) + (1-t) zeta(s, t).
    # A rung-agreement test accepted order 64 here relative to |H| ~ 1e15 and
    # returned a value off by 3.2e-24 with a "bound" of 5.2e-13
    s, t = mpmath.mpc(-8, 1.5), F(1, 2)
    r = continue_dirichlet(BARNES, s, t, CTX)
    assert r.tail_bound <= CTX.target_eps and r.bound_kind == "certified"
    with mp.workprec(256):
        th = mpmath.mpf(1) / 2
        ref = mpmath.zeta(s - 1, th) + (1 - th) * mpmath.zeta(s, th)
        err = abs(r.mpc() - ref)
    assert err <= CTX.target_eps
    assert err <= r.tail_bound + mpmath.mpf(2) ** (2 - CTX.precision_bits) * max(1, abs(ref))


def test_operator_route_bound_meets_eps_left_of_the_axis():
    # hurwitz and 1/((1-z)(3-z^2)) at s = -3.5+1.2i, t = 1/2 had accurate
    # values with rung-difference bounds of 2.4e-21 and 1.2e-21 (eps 1e-25);
    # the planned rung's bound must meet eps and hold.  The rational one is
    # zeta(s, t)/2 - (1/2) sum_n 3^-(floor(n/2)+1) (t+n)^(-s).
    s, t = mpmath.mpc(-3.5, 1.2), F(1, 2)
    with mp.workprec(256):
        th = mpmath.mpf(1) / 2
        zeta = mpmath.zeta(s, th)
        geometric = mpmath.mpc(0)
        n = 0
        while True:
            term = mpmath.mpf(3) ** -(n // 2 + 1) * (th + n) ** (-s)
            geometric += term
            if n > 40 and abs(term) < mpmath.mpf(10) ** -60:
                break
            n += 1
        cases = ((GEO, zeta), (RationalDescriptor((1,), (3, -3, -1, 1)), zeta / 2 - geometric / 2))
    for desc, ref in cases:
        r = continue_dirichlet(desc, s, t, CTX)
        assert r.tail_bound <= CTX.target_eps, desc
        with mp.workprec(256):
            slack = mpmath.mpf(2) ** (2 - CTX.precision_bits) * max(1, abs(ref))
            assert abs(r.mpc() - ref) <= r.tail_bound + slack, desc


def test_bound_kinds():
    s, t = mpmath.mpc(1.5, 2), F(1, 2)
    for route in (direct_sum, oracle_eval, continue_dirichlet):
        assert route(ETA, s, t, CTX).bound_kind == "certified", route.__name__
    assert hurwitz_oracle(s, t, CTX).bound_kind == "certified"
    assert continue_dirichlet(ETA, -3, t, CTX).bound_kind == "certified"
    # the quadrature error is bounded from the integrand's analyticity strip
    assert incgamma_eval(ETA, s, t, CTX).bound_kind == "certified"
    # direct_sum reaches the oscillatory tail only on unit-circle Lerch, w != 1
    for desc in (GEO, BARNES, LerchDescriptor(F(1, 2)), LerchDescriptor(mpmath.mpf(1))):
        assert direct_sum(desc, s + 2, t, CTX).bound_kind == "certified", desc


def test_oscillatory_direct_sum_is_estimated():
    # w = e^i: the tail stops on an envelope read off its last term; the
    # value still lies within that bound of the operator route
    with mp.workprec(1000):
        w = mpmath.exp(1j * mpmath.mpf(1))
    desc = LerchDescriptor(w)
    s, t = mpmath.mpc(1.5, 4), F(1, 2)
    r = direct_sum(desc, s, t, CTX)
    assert r.bound_kind == "estimated"
    ref = continue_dirichlet(desc, s, t, ApproxContext(precision_bits=192, target_eps=1e-40))
    with mp.workprec(192):
        assert abs(r.mpc() - ref.mpc()) <= r.tail_bound + mpmath.mpf(2) ** -126 * max(1, abs(ref.mpc()))


def test_rungs_stay_below_the_order():
    # the expansion's own order leaves nothing out that the tail model could
    # read, so it is no rung
    for order in (16, 32, 33, 48, 64, 256, 512, 1024, 1100):
        rungs = numeval._rungs(MultiPowerExpansion(1, (), order))
        assert rungs == tuple(M for M in (32, 64, 128, 256, 512) if M < order), order


def test_truncation_bounds_finite_at_every_rung():
    shift = 40
    work = CTX.working_bits(numeval._eps_bits(CTX) + 64)
    for desc in (GEO, BARNES):
        nu = laurent_at_one(desc, 1).nu
        for order in (64, 256):
            plan = numeval._tail_plan(numeval._shifted_mp(desc, shift, order, work))
            for s in (complex(0.5, 3), complex(-10, 5), complex(-25, 12), complex(-30, 15)):
                bounds = numeval._truncation_log2_bounds(plan, s - nu, complex(0.5 + shift))
                assert len(bounds) == len(plan.rungs) and all(map(math.isfinite, bounds)), (desc, order, s)


def test_continuation_far_left_within_bound():
    # the deepest rung of a shallow expansion used to read an empty tail
    # model and report a bound far below its error
    t = F(1, 2)
    for s in (mpmath.mpc(-25, 12), mpmath.mpc(-16, 14)):
        r = continue_dirichlet(GEO, s, t, CTX)
        with mp.workprec(400):
            ref = mpmath.zeta(s, mpmath.mpf(1) / 2)
            slack = mpmath.mpf(2) ** (2 - CTX.precision_bits) * max(1, abs(r.mpc()))
            assert abs(r.mpc() - ref) <= r.tail_bound + slack, s
    with pytest.raises(SlowConvergenceError):
        continue_dirichlet(GEO, mpmath.mpc(-30, 15), t, CTX)


def test_tail_plan_past_order_1024():
    plan = numeval._tail_plan(build_multipower(GEO, order=1100))
    assert plan.rungs == (32, 64, 128, 256, 512)
    assert all(map(math.isfinite, plan.log2_size))


def test_order_escalation_builds_only_what_it_needs(monkeypatch):
    # off the axis the order-256 expansion has a rung that meets eps, and far
    # left the bound's conditions fail at every order: no deeper expansion
    # is built for either
    requested = []
    original = numeval._shifted_mp

    def recording(desc, shift, order, prec):
        requested.append(order)
        return original(desc, shift, order, prec)

    monkeypatch.setattr(numeval, "_shifted_mp", recording)
    r = continue_dirichlet(ETA, mpmath.mpc(0.5, 20), 1, CTX)
    assert requested == [256] and r.truncation < 256
    requested.clear()
    with pytest.raises(SlowConvergenceError) as exc:
        continue_dirichlet(GEO, mpmath.mpc(-40, 1), F(1, 2), CTX)
    assert requested == [256] and exc.value.diagnostics["log2_bounds"][-1] == math.inf


def test_integer_s_below_the_expansion_order_raises():
    # the shift form is exact on t^n only from order n
    for order, n in ((8, 9), (4, 12)):
        mpx = build_multipower(GEO, order=order)
        with pytest.raises(ValueError):
            hasse_eval(mpx, -n, F(1, 2), CTX)
        deeper = build_multipower(GEO, order=n)
        assert hasse_eval(mpx, -order, F(1, 2), CTX).exact_value == hasse_eval(deeper, -order, F(1, 2), CTX).exact_value


def test_far_right_values_within_their_own_bounds():
    # hurwitz at t = 1/2, where |D| is about 2^(Re s): a value rounded to
    # precision_bits relative to its size was off by 8.2e-28 at s = 40 and by
    # 3.9e-10 at s = 100+3i, far above the bounds the routes reported.  At
    # 100+3i the operator route's bound takes the case right of Re t/e + 1.
    t = F(1, 2)
    for s in (40, mpmath.mpc(100, 3)):
        with mp.workprec(500):
            ref = mpmath.zeta(s, mpmath.mpf(1) / 2)
        for route in (continue_dirichlet, direct_sum, oracle_eval):
            r = route(GEO, s, t, CTX)
            with mp.workprec(500):
                err = abs(r.mpc() - ref)
            assert err <= r.tail_bound, (route.__name__, s, err, r.tail_bound)


def test_incgamma_on_an_inexact_lerch_matches_the_operator_route():
    # an inexact w takes the Lerch branch of the integrand's alpha majorant
    t = F(7, 3)
    for w in (mpmath.mpf(1) / 3, mpmath.mpc(0.6, 0.5)):
        desc = LerchDescriptor(w)
        for s in (mpmath.mpc(2.5, 1), mpmath.mpc(-1.5, 2), mpmath.mpc(0.5, -3)):
            a = incgamma_eval(desc, s, t, CTX)
            b = continue_dirichlet(desc, s, t, CTX)
            assert abs(a.mpc() - b.mpc()) <= a.tail_bound + b.tail_bound, (w, s)
