"""Acceptance checks runnable from the command line and from the test suite.

Each criterion function returns a :class:`CriterionResult`; ``run_selftest``
executes all of them at the requested precision.  At reduced precision the
tolerances relax to what the float format can honestly certify (roughly
``10**-(digits-7)``).
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath
from mpmath import mp

from . import bernoulli as bern
from . import continuation, numeval, reconstruct, tame
from .catalog import CHI3_NONPRINCIPAL, CHI7_QUADRATIC, catalog_descriptor, default_members
from .scalar import ApproxContext, agree_within, as_mpc
from .series import Poly, TruncSeries, compose

__all__ = ["CriterionResult", "run_selftest", "CRITERIA"]


@dataclass
class CriterionResult:
    index: int
    name: str
    ok: bool
    measured: str
    limit: str
    seconds: float


def _digits(prec_bits: int) -> int:
    return int(prec_bits * 0.30103)


def scaled_tol(tol: float, prec_bits: int) -> float:
    """Stated tolerance, relaxed when the precision cannot honestly reach it."""
    honest = 10.0 ** (-max(6, _digits(prec_bits) - 7))
    return max(tol, honest)


def _ctx(prec_bits: int) -> ApproxContext:
    eps = min(1e-25, 10.0 ** (-max(8, _digits(prec_bits) - 7) - 4))
    eps = max(eps, 2.0 ** (-prec_bits + 10))
    return ApproxContext(precision_bits=prec_bits, target_eps=eps, max_terms=2_000_000)


def _bernoulli_at(n: int) -> Fraction:
    """Akiyama-Tanigawa oracle for the Bernoulli numbers (B1 = +1/2)."""
    a = [Fraction(0)] * (n + 1)
    out = Fraction(0)
    for m_ in range(n + 1):
        a[m_] = Fraction(1, m_ + 1)
        for j in range(m_, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out = a[0]
    return out


def _max_dev(pairs, prec):
    worst = mpmath.mpf(0)
    with mp.workprec(prec + 64):
        for a, b in pairs:
            worst = max(worst, abs(as_mpc(a, prec + 64) - as_mpc(b, prec + 64)))
    return worst


def criterion_1(prec_bits: int) -> CriterionResult:
    """Exact special values of the geometric entry at t0 = 1."""
    t_start = time.time()
    rep = continuation.analyze(catalog_descriptor("hurwitz"), Fraction(1), 30)
    ok = True
    for n in range(31):
        expected = -_bernoulli_at(n + 1) / (n + 1)  # -B_{n+1}(1)/(n+1), B1 = +1/2
        if rep.special_values[n] != expected:
            ok = False
            break
    secs = time.time() - t_start
    return CriterionResult(1, "exact special values (geometric, n<=30)", ok and secs < 1.0,
                           "exact" if ok else "mismatch at n=%d" % n, "exact, <1s", secs)


def criterion_2(prec_bits: int) -> CriterionResult:
    """Difference operator equals Todd operator on t^n, n <= 12, exactly, and
    so does the shift form sum_sigma W_sigma (t+sigma)^n that hasse_eval
    sums at s = -n."""
    t_start = time.time()
    ctx = _ctx(prec_bits)
    half = Fraction(1, 2)
    members = [
        catalog_descriptor("hurwitz"),
        catalog_descriptor("eta"),
        catalog_descriptor("barnes"),
        catalog_descriptor("dirichletL", modulus=3, chi=CHI3_NONPRINCIPAL),
        catalog_descriptor("dirichletL", modulus=7, chi=CHI7_QUADRATIC),
    ]
    ok = True
    detail = "exact"
    for desc in members:
        laur = tame.laurent_at_one(desc, 16)
        td = bern.todd_series(laur, 14)
        mpx = tame.build_multipower(desc, order=14)
        for n in range(13):
            p = Poly([Fraction(0)] * n + [Fraction(1)])
            todd = bern.todd_apply(td, p)
            shift_form = numeval.hasse_eval(mpx, -n, half, ctx).exact_value
            if todd != bern.diff_apply_poly(mpx, p) or shift_form != todd(half):
                ok = False
                detail = "mismatch %r n=%d" % (desc, n)
                break
        if not ok:
            break
    secs = time.time() - t_start
    return CriterionResult(2, "difference = Todd on polynomials (exact)", ok and secs < 10.0,
                           detail, "exact, <10s", secs)


def criterion_3(prec_bits: int) -> CriterionResult:
    """Continuation vs Hurwitz-based oracle at off-axis points."""
    t_start = time.time()
    tol = scaled_tol(1e-20, prec_bits)
    ctx = _ctx(prec_bits)
    points = [mpmath.mpf("-1.5"), mpmath.mpf("-0.25"), mpmath.mpc("0.5", "2"), mpmath.mpf("2.75")]
    worst = mpmath.mpf(0)
    ok = True
    for desc in (catalog_descriptor("hurwitz"), catalog_descriptor("barnes")):
        for t in (Fraction(1, 2), Fraction(1)):
            for s in points:
                a = numeval.continue_dirichlet(desc, s, t, ctx)
                b = numeval.oracle_eval(desc, s, t, ctx)
                with mp.workprec(ctx.precision_bits + 64):
                    worst = max(worst, abs(a.mpc() - b.mpc()))
                if not agree_within(a.mpc(), b.mpc(), tol):
                    ok = False
    secs = time.time() - t_start
    return CriterionResult(3, "continuation vs Hurwitz oracle", ok and secs < 60.0,
                           mpmath.nstr(worst, 4), "<=%.0e, <60s" % tol, secs)


def criterion_4(prec_bits: int) -> CriterionResult:
    """Overlap agreement: direct summation vs continuation."""
    t_start = time.time()
    tol = scaled_tol(1e-18, prec_bits)
    ctx = _ctx(prec_bits)
    rng = random.Random(20260808)
    worst = mpmath.mpf(0)
    ok = True
    for label, desc in default_members():
        nu = tame.laurent_at_one(desc, 1, prec=ctx.working_bits()).nu
        for _ in range(20):
            re = nu + 0.5 + 2.5 * rng.random()
            im = -2.0 + 4.0 * rng.random()
            s = mpmath.mpc(re, im)
            a = numeval.direct_sum(desc, s, 1, ctx)
            b = numeval.continue_dirichlet(desc, s, 1, ctx)
            with mp.workprec(ctx.precision_bits + 64):
                worst = max(worst, abs(a.mpc() - b.mpc()))
            if not agree_within(a.mpc(), b.mpc(), tol):
                ok = False
    secs = time.time() - t_start
    return CriterionResult(4, "overlap: direct vs continuation (20 random s/member)",
                           ok and secs < 60.0, mpmath.nstr(worst, 4), "<=%.0e, <60s" % tol, secs)


def _richardson_to_zero(hs, vals, prec):
    with mp.workprec(prec):
        xs = [as_mpc(h, prec) for h in hs]
        ys = [as_mpc(v, prec) for v in vals]
        n = len(xs)
        for j in range(1, n):
            for i in range(n - 1, j - 1, -1):
                ys[i] = (xs[i - j] * ys[i] - xs[i] * ys[i - 1]) / (xs[i - j] - xs[i])
        return ys[n - 1]


def criterion_5(prec_bits: int) -> CriterionResult:
    """Barnes(1,1) pole/residue table and the numeric residue check."""
    t_start = time.time()
    desc = catalog_descriptor("barnes")
    ctx = _ctx(prec_bits)
    rep_half = continuation.analyze(desc, Fraction(1, 2), 2)
    ok = rep_half.pole_set == (1, 2)
    ok = ok and rep_half.residues[1] == Fraction(1, 2) and rep_half.residues[2] == 1
    rep_one = continuation.analyze(desc, Fraction(1), 2)
    ok = ok and rep_one.pole_set == (2,) and rep_one.removable and rep_one.removable[0][0] == 1
    worst = mpmath.mpf(0)
    for n in rep_half.pole_set:
        hs, vals = [], []
        for j in range(2, 6):
            h = Fraction(1, 10**j)
            r = numeval.continue_dirichlet(desc, Fraction(n) + h, Fraction(1, 2), ctx)
            hs.append(h)
            with mp.workprec(ctx.precision_bits + 64):
                vals.append(as_mpc(h, ctx.precision_bits + 64) * r.mpc())
        est = _richardson_to_zero(hs, vals, ctx.precision_bits + 64)
        with mp.workprec(ctx.precision_bits + 64):
            worst = max(worst, abs(est - as_mpc(rep_half.residues[n])))
    tol = scaled_tol(1e-10, prec_bits)
    ok = ok and worst <= mpmath.mpf(tol)
    secs = time.time() - t_start
    return CriterionResult(5, "Barnes pole/residue table + numeric residues", ok,
                           mpmath.nstr(worst, 4), "exact + <=%.0e" % tol, secs)


def criterion_6(prec_bits: int) -> CriterionResult:
    """Mod-7 nonprincipal character: multi-power path with some e_i >= 2."""
    t_start = time.time()
    desc = catalog_descriptor("dirichletL", modulus=7, chi=CHI7_QUADRATIC)
    ctx = _ctx(prec_bits)
    plan = tame.plan_exponents(desc, prec=ctx.working_bits())
    ok = any(s.e >= 2 for s in plan.singularities)
    a = numeval.continue_dirichlet(desc, Fraction(5, 2), 1, ctx)
    b = numeval.direct_sum(desc, Fraction(5, 2), 1, ctx)
    tol = scaled_tol(1e-15, prec_bits)
    ok = ok and agree_within(a.mpc(), b.mpc(), tol)
    with mp.workprec(ctx.precision_bits + 64):
        dev = abs(a.mpc() - b.mpc())
    secs = time.time() - t_start
    return CriterionResult(6, "mod-7 multi-power path (e_i >= 2)", ok,
                           mpmath.nstr(dev, 4), "<=%.0e" % tol, secs)


def criterion_7(prec_bits: int) -> CriterionResult:
    """Reconstruction roundtrip reproduces the Laurent data exactly."""
    t_start = time.time()
    members = [
        catalog_descriptor("hurwitz"),
        catalog_descriptor("eta"),
        catalog_descriptor("barnes"),
        tame.RationalDescriptor((1, 2), (1, -2, 1)),
    ]
    ok = True
    detail = "exact"
    K = 22
    for desc in members:
        for t0 in (Fraction(1), Fraction(1, 2), Fraction(7, 3)):
            rep = continuation.analyze(desc, t0, K)
            data = reconstruct.ContinuationData(
                t0, rep.pole_set, tuple(rep.residues[n] for n in rep.pole_set), rep.special_values
            )
            laur, formal = reconstruct.dirichlet_from_data(data)
            truth = tame.laurent_at_one(desc, 20)
            avail = min(len(laur.phis) - 1, 20 - truth.nu)
            if not (
                formal
                and laur.nu == truth.nu
                and laur.ks == truth.ks
                and laur.phis[: avail + 1] == truth.phis[: avail + 1]
            ):
                ok = False
                detail = "roundtrip failed for %r at t0=%s" % (desc, t0)
    secs = time.time() - t_start
    return CriterionResult(7, "reconstruction roundtrip (order 20, exact)", ok and secs < 10.0,
                           detail, "exact, <10s", secs)


def criterion_8(prec_bits: int) -> CriterionResult:
    """Derivative recurrence, degree, and leading coefficient, n <= 30."""
    t_start = time.time()
    work = max(192, prec_bits + 64)
    ok = True
    detail = "exact"
    worst = mpmath.mpf(0)
    for label, desc in default_members():
        with mp.workprec(work):
            laur = tame.laurent_at_one(desc, 32, prec=work)
            td = bern.todd_series(laur, 31)
            polys = [bern.bernoulli_poly(td, n) for n in range(31)]
            lead = (-1) ** laur.nu * (laur.ks[-1] if laur.nu else laur.phis[0])
            for n, p in enumerate(polys):
                if p.degree != n:
                    ok, detail = False, "%s: deg B[%d] = %d" % (label, n, p.degree)
                    break
                if p.coeffs[-1] != lead:
                    ok, detail = False, "%s: leading coefficient of B[%d]" % (label, n)
                    break
                if n:
                    d = p.derivative()
                    e = polys[n - 1] * n
                    if laur.kind == "exact":
                        if d != e:
                            ok, detail = False, "%s: derivative recurrence at n=%d" % (label, n)
                            break
                    else:
                        dev = _max_dev(zip(d.coeffs, e.coeffs), work)
                        scale = max(abs(as_mpc(c, work)) for c in e.coeffs)
                        worst = max(worst, dev / max(scale, mpmath.mpf(1)))
                        if dev > mpmath.mpf(2) ** (-work // 2) * max(scale, mpmath.mpf(1)):
                            ok, detail = False, "%s: float derivative recurrence n=%d" % (label, n)
                            break
        if not ok:
            break
    secs = time.time() - t_start
    return CriterionResult(8, "derivative recurrence / degree / leading (n<=30)", ok,
                           detail if not ok else "exact (float dev %s)" % mpmath.nstr(worst, 3),
                           "exact", secs)


def criterion_9(prec_bits: int) -> CriterionResult:
    """Stirling-sum composition equals series composition, m <= 20, exact."""
    t_start = time.time()
    rng = random.Random(7)
    ok = True
    M = 20
    for trial in range(3):
        phis = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(M + 1)]
        # ordinary coefficients of phi(w) = sum phi_k w^k / k!
        outer = TruncSeries([phis[k] * Fraction(1, factorial(k)) for k in range(M + 1)], M)
        inner = TruncSeries([Fraction(0)] + [Fraction(1, factorial(n)) for n in range(1, M + 1)], M)
        comp = compose(outer, inner)
        for m_ in range(M + 1):
            psi_series = comp.coeffs[m_] * factorial(m_)
            psi_stirling = phis[0] if m_ == 0 else sum(
                bern.stirling2(m_, k) * phis[k] for k in range(1, m_ + 1)
            )
            if psi_series != psi_stirling:
                ok = False
                break
    secs = time.time() - t_start
    return CriterionResult(9, "Faa di Bruno cross-check (m<=20, exact)", ok,
                           "exact" if ok else "mismatch", "exact", secs)


def criterion_10(prec_bits: int) -> CriterionResult:
    """Incomplete-gamma method equals the continuation for the eta entry."""
    t_start = time.time()
    desc = catalog_descriptor("eta")
    ctx = _ctx(prec_bits)
    tol = scaled_tol(1e-15, prec_bits)
    worst = mpmath.mpf(0)
    ok = True
    for s in (mpmath.mpf("-0.5"), mpmath.mpf("0.25"), mpmath.mpf(2)):
        a = numeval.incgamma_eval(desc, s, 1, ctx)
        b = numeval.continue_dirichlet(desc, s, 1, ctx)
        with mp.workprec(ctx.precision_bits + 64):
            worst = max(worst, abs(a.mpc() - b.mpc()))
        if not agree_within(a.mpc(), b.mpc(), tol):
            ok = False
    secs = time.time() - t_start
    return CriterionResult(10, "incomplete-gamma vs continuation (eta)", ok,
                           mpmath.nstr(worst, 4), "<=%.0e" % tol, secs)


def criterion_11(prec_bits: int) -> CriterionResult:
    """Central binomial: pi^2/18 value and operator anchors at s = -m."""
    t_start = time.time()
    desc = catalog_descriptor("central-binomial")
    ctx = _ctx(prec_bits)
    tol_direct = scaled_tol(1e-12, prec_bits)
    tol_anchor = scaled_tol(1e-20, prec_bits)
    r = numeval.direct_sum(desc, 2, 1, ctx)
    work = ctx.precision_bits + 64
    with mp.workprec(work):
        ok = agree_within(r.mpc(), mpmath.pi**2 / 18, tol_direct)
        worst = abs(r.mpc() - mpmath.pi**2 / 18)
    with mp.workprec(work):
        laur = tame.laurent_at_one(desc, 10, prec=work)
        td = bern.todd_series(laur, 8)
        anchors = [bern.bernoulli_poly(td, m_)(mpmath.mpf(1)) for m_ in range(7)]
    for m_ in range(7):
        rr = numeval.continue_dirichlet(desc, -m_, 1, ctx)
        with mp.workprec(work):
            worst = max(worst, abs(rr.mpc() - anchors[m_]))
        if not agree_within(rr.mpc(), anchors[m_], tol_anchor):
            ok = False
    secs = time.time() - t_start
    return CriterionResult(11, "central binomial (pi^2/18 + operator anchors)", ok,
                           mpmath.nstr(worst, 4), "<=%.0e / <=%.0e" % (tol_direct, tol_anchor), secs)


def criterion_12(prec_bits: int) -> CriterionResult:
    """Even-zeta catalog entry: one simple pole at s=1 with residue 1/2."""
    t_start = time.time()
    desc = catalog_descriptor("zeta-even")
    work = max(160, prec_bits + 32)
    rep = continuation.analyze(desc, Fraction(1), 2, prec=work)
    tol = scaled_tol(1e-20, prec_bits)
    ok = rep.pole_set == (1,)
    with mp.workprec(work):
        dev = abs(as_mpc(rep.residues[1], work) - mpmath.mpf(1) / 2)
    ok = ok and dev <= mpmath.mpf(tol)
    secs = time.time() - t_start
    return CriterionResult(12, "even-zeta entry: simple pole at 1, residue 1/2", ok,
                           mpmath.nstr(dev, 4), "<=%.0e" % tol, secs)


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
]


def run_selftest(prec_bits: int = 128, skip_catalog: bool = False, out=None):
    """Run the acceptance criteria; returns (results, all_ok)."""
    import sys

    stream = out if out is not None else sys.stdout
    results = []
    if skip_catalog:
        print("selftest: catalog disabled, 0 checks run, all skipped", file=stream)
        return results, True
    all_ok = True
    for fn in CRITERIA:
        res = fn(prec_bits)
        results.append(res)
        all_ok = all_ok and res.ok
        print(
            "[%s] %2d. %-55s measured=%s limit=%s (%.2fs)"
            % ("PASS" if res.ok else "FAIL", res.index, res.name, res.measured, res.limit, res.seconds),
            file=stream,
        )
    return results, all_ok
