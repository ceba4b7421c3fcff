from fractions import Fraction as F
from math import factorial

import pytest

from tamezeta.bernoulli import bernoulli_number, bernoulli_poly, todd_series
from tamezeta.catalog import catalog_descriptor
from tamezeta.continuation import analyze
from tamezeta.reconstruct import (
    ContinuationData,
    dirichlet_from_data,
    laurent_from_polys,
    polys_from_values,
    principal_from_poles,
)
from tamezeta.scalar import falling_factorial
from tamezeta.series import Poly, recenter
from tamezeta.tame import RationalDescriptor, laurent_at_one

GEO = catalog_descriptor("hurwitz")
ETA = catalog_descriptor("eta")
BARNES = catalog_descriptor("barnes")


def test_principal_from_poles_examples():
    lp = principal_from_poles(F(1), (1,), (F(1),))
    assert lp.nu == 1 and lp.ks == (F(-1),)
    lp0 = principal_from_poles(F(1), (), ())
    assert lp0.nu == 0 and lp0.ks == ()
    # P={2}, r=1: nu=2, k_2=1, k_1 chosen so that p_1 = 0 at t0
    for t0 in (F(1), F(1, 2), F(5, 3)):
        lp2 = principal_from_poles(t0, (2,), (F(1),))
        assert lp2.nu == 2 and lp2.ks[1] == 1
        rep = analyze_from_principal(lp2, t0)
        assert rep.pole_set == (2,)


def analyze_from_principal(laur, t0):
    from tamezeta.continuation import analyze_split

    return analyze_split(laur, t0, 0)


def test_roundtrip_forward_data():
    # forward analysis of the geometric series gives exactly P={1}, r=1
    rep = analyze(GEO, F(1), 2)
    lp = principal_from_poles(F(1), rep.pole_set, tuple(rep.residues[n] for n in rep.pole_set))
    assert lp.ks == laurent_at_one(GEO, 2).ks


def test_polys_from_values_examples():
    # geometric at t0=1: values B_n(1)
    vals = [bernoulli_number(n) * F((-1) ** n) for n in range(7)]
    polys = polys_from_values(F(1), vals)
    assert polys[2].coeffs == (F(1, 6), F(-1), F(1))
    assert polys_from_values(F(1), [F(5)])[0] == Poly([F(5)])
    # eta values at t0=1: 1/2, 1/4 -> B[1;t] = t/2 - 1/4
    pe = polys_from_values(F(1), [F(1, 2), F(1, 4)])
    assert pe[1].coeffs == (F(-1, 4), F(1, 2))


def test_laurent_from_polys_catalog():
    for desc, nu in ((GEO, 1), (ETA, 0), (BARNES, 2)):
        laur = laurent_at_one(desc, 10)
        td = todd_series(laur, 8)
        polys = [bernoulli_poly(td, n) for n in range(7)]
        rec = laurent_from_polys(nu, polys)
        assert rec.nu == laur.nu and rec.ks == laur.ks
        avail = len(rec.phis)
        assert rec.phis[:avail] == laur.phis[:avail]


def test_laurent_from_polys_rejects_bad_degrees():
    with pytest.raises(ValueError):
        laurent_from_polys(1, [Poly([F(1)]), Poly([F(1)])])  # deg B[1] = 0


def test_eq13_identity():
    # B[nu-n; t0] = (n-1)!/( (nu-1) falling (n-1) ) p_n, exactly
    for desc in (BARNES, RationalDescriptor((1, 2), (1, -2, 1))):
        laur = laurent_at_one(desc, 8)
        nu = laur.nu
        td = todd_series(laur, 8)
        for t0 in (F(1), F(2, 5)):
            b_top = bernoulli_poly(td, nu - 1)
            centered = recenter(b_top, t0)
            for n in range(1, nu + 1):
                p_n = centered.coefficient(n - 1)
                lhs = bernoulli_poly(td, nu - n)(t0)
                assert lhs == F(factorial(n - 1)) / falling_factorial(nu - 1, n - 1) * p_n


def test_dirichlet_from_data_roundtrips():
    members = [GEO, ETA, BARNES, RationalDescriptor((1, 2), (1, -2, 1))]
    for desc in members:
        truth = laurent_at_one(desc, 20)
        for t0 in (F(1), F(1, 2), F(7, 3)):
            rep = analyze(desc, t0, 22)
            data = ContinuationData(
                t0, rep.pole_set, tuple(rep.residues[n] for n in rep.pole_set), rep.special_values
            )
            laur, formal = dirichlet_from_data(data)
            assert formal  # existence of a tame series is never certified
            assert laur.nu == truth.nu and laur.ks == truth.ks
            avail = min(len(laur.phis), 20 - truth.nu)
            assert laur.phis[:avail] == truth.phis[:avail]


def test_dirichlet_from_data_trivial():
    laur, formal = dirichlet_from_data(ContinuationData(F(1), (), (), (F(0),) * 6))
    assert formal and laur.nu == 0
    assert all(p == 0 for p in laur.phis)


def test_data_validation():
    with pytest.raises(ValueError):
        ContinuationData(F(1), (1,), (), ())
    with pytest.raises(ValueError):
        ContinuationData(F(1), (1,), (F(0),), ())
    with pytest.raises(ValueError):
        ContinuationData(F(1), (0,), (F(1),), ())


def test_values_only_dependence_on_nu():
    # reconstruction needs nu from the pole data; the eta case has nu = 0
    rep = analyze(ETA, F(1), 8)
    data = ContinuationData(F(1), (), (), rep.special_values)
    laur, _ = dirichlet_from_data(data)
    truth = laurent_at_one(ETA, 8)
    assert laur.nu == 0
    assert laur.phis[:8] == truth.phis[:8]


def test_dirichlet_from_data_pole_free_with_alpha_one_zero():
    # alpha(1) = 0 lowers every deg B[n] below n: the even real characters
    # and a rational form with a zero at z = 1
    members = [
        catalog_descriptor("dirichletL", modulus=5, chi=(1, -1, -1, 1, 0)),
        catalog_descriptor("dirichletL", modulus=8, chi=(1, 0, -1, 0, -1, 0, 1, 0)),
        catalog_descriptor("dirichletL", modulus=12, chi=(1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1, 0)),
        RationalDescriptor((1, -1), (1, 1, 1)),
    ]
    for desc in members:
        truth = laurent_at_one(desc, 12)
        for t0 in (F(1), F(1, 2)):
            rep = analyze(desc, t0, 12)
            data = ContinuationData(t0, rep.pole_set, (), rep.special_values)
            laur, _ = dirichlet_from_data(data)
            assert laur.nu == 0 and laur.ks == ()
            assert laur.phis == truth.phis[: len(laur.phis)]
