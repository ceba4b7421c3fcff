from fractions import Fraction as F
from itertools import combinations
from math import factorial

import pytest

from tamezeta.bernoulli import (
    bernoulli_number,
    bernoulli_poly,
    delta_apply,
    diff_apply_poly,
    stirling1_signed,
    stirling2,
    todd_apply,
    todd_series,
)
from tamezeta.catalog import CHI3_NONPRINCIPAL, CHI7_QUADRATIC, catalog_descriptor
from tamezeta.series import Poly, TruncSeries, compose
from tamezeta.tame import build_multipower, laurent_at_one


def _partitions_into(n, k):
    """Brute-force count of set partitions of {1..n} into k nonempty parts."""
    if n == 0:
        return 1 if k == 0 else 0
    # place element n into one of the k blocks of a partition of n-1 elements,
    # or as a new singleton block
    return k * _partitions_into(n - 1, k) + _partitions_into(n - 1, k - 1)


def test_stirling2_examples_and_oracle():
    assert stirling2(0, 0) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    for n in range(9):
        for k in range(n + 2):
            assert stirling2(n, k) == _partitions_into(n, k)


def test_stirling1_from_falling_factorial():
    # x(x-1)...(x-n+1) = sum_k s(n,k) x^k, expanded by brute polynomial product
    for n in range(9):
        poly = Poly([F(1)])
        for j in range(n):
            poly = poly * Poly([F(-j), F(1)])
        for k in range(n + 1):
            assert stirling1_signed(n, k) == poly.coefficient(k)
    assert stirling1_signed(1, 1) == 1
    assert stirling1_signed(3, 1) == 2


def test_stirling_rows_far_beyond_the_recursion_limit():
    assert stirling2(5000, 3) == (3**5000 - 3 * 2**5000 + 3) // 6
    assert stirling1_signed(5000, 1) == -factorial(4999)


def test_stirling_table_fills_alike_across_threads():
    # a table entry is written only from entries already there, always with
    # the same value, so threads filling one table in any order agree with a
    # lone fill
    import random
    import sys
    import threading

    from tamezeta.bernoulli import _triangle

    def weight(m, j):
        return j

    queries = [(n, k) for n in range(0, 160, 3) for k in range(0, n + 2, 4)]
    alone = {(0, 0): 1}
    want = {q: _triangle(alone, *q, weight) for q in queries}
    shared, wrong = {(0, 0): 1}, []

    def fill(seed):
        order = queries[:]
        random.Random(seed).shuffle(order)
        wrong.extend(q for q in order if _triangle(shared, *q, weight) != want[q])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fill, args=(seed,)) for seed in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not wrong
    assert shared == alone


def test_stirling_inversion_identity():
    for n in range(9):
        for m in range(9):
            total = sum(stirling1_signed(n, k) * stirling2(k, m) for k in range(n + 1))
            assert total == (1 if n == m else 0)


def test_todd_series_geometric_is_bernoulli_numbers():
    laur = laurent_at_one(catalog_descriptor("hurwitz"), 24)
    td = todd_series(laur, 20)
    # classical coefficients B_k/k! in the expansion, i.e. tau_k = B_k
    for k in range(21):
        assert td.taus[k] == bernoulli_number(k)


def test_todd_series_eta_constant():
    laur = laurent_at_one(catalog_descriptor("eta"), 10)
    td = todd_series(laur, 8)
    assert td.taus[0] == F(1, 2)


def test_todd_series_constant_alpha():
    from tamezeta.tame import RationalDescriptor

    laur = laurent_at_one(RationalDescriptor((1,), (1,)), 8)
    td = todd_series(laur, 6)
    assert td.taus == (F(1), 0, 0, 0, 0, 0, 0)


def test_bernoulli_poly_examples():
    geo = todd_series(laurent_at_one(catalog_descriptor("hurwitz"), 10), 8)
    assert bernoulli_poly(geo, 1).coeffs == (F(-1, 2), F(1))
    eta = todd_series(laurent_at_one(catalog_descriptor("eta"), 10), 8)
    assert bernoulli_poly(eta, 1).coeffs == (F(-1, 4), F(1, 2))
    barnes = todd_series(laurent_at_one(catalog_descriptor("barnes"), 10), 8)
    assert bernoulli_poly(barnes, 1).coeffs == (F(-1), F(1))


def test_todd_apply_examples():
    geo = todd_series(laurent_at_one(catalog_descriptor("hurwitz"), 10), 8)
    assert todd_apply(geo, Poly([F(1)])) == Poly([F(1)])
    assert todd_apply(geo, Poly([F(0), F(0), F(1)])) == Poly([F(1, 6), F(-1), F(1)])
    eta = todd_series(laurent_at_one(catalog_descriptor("eta"), 10), 8)
    assert todd_apply(eta, Poly([F(7)])) == Poly([F(7, 2)])  # tau_0 * c


def test_todd_apply_rejects_large_degree():
    geo = todd_series(laurent_at_one(catalog_descriptor("hurwitz"), 6), 4)
    with pytest.raises(ValueError):
        todd_apply(geo, Poly([F(0)] * 6 + [F(1)]))


def test_delta_apply():
    p = Poly([F(0), F(0), F(1)])
    assert delta_apply(p, 1) == Poly([F(1), F(2)])
    assert delta_apply(p, 2) == Poly([F(4), F(4)])


def test_diff_apply_examples():
    geo_mp = build_multipower(catalog_descriptor("hurwitz"), order=10)
    assert diff_apply_poly(geo_mp, Poly([F(0), F(1)])) == Poly([F(-1, 2), F(1)])
    assert diff_apply_poly(geo_mp, Poly()) == Poly()
    eta_mp = build_multipower(catalog_descriptor("eta"), order=10)
    assert diff_apply_poly(eta_mp, Poly([F(1)])) == Poly([F(1, 2)])


RATIONAL_CATALOG = [
    ("hurwitz", catalog_descriptor("hurwitz")),
    ("eta", catalog_descriptor("eta")),
    ("barnes", catalog_descriptor("barnes")),
    ("L3", catalog_descriptor("dirichletL", modulus=3, chi=CHI3_NONPRINCIPAL)),
    ("L7", catalog_descriptor("dirichletL", modulus=7, chi=CHI7_QUADRATIC)),
    ("ehrhart", catalog_descriptor("ehrhart")),
]


@pytest.mark.parametrize("label,desc", RATIONAL_CATALOG)
def test_operator_equals_todd_on_polynomials(label, desc):
    laur = laurent_at_one(desc, 16)
    td = todd_series(laur, 13)
    mpx = build_multipower(desc, order=13)
    for n in range(13):
        p = Poly([F(0)] * n + [F(1)])
        assert todd_apply(td, p) == diff_apply_poly(mpx, p)


@pytest.mark.parametrize("label,desc", RATIONAL_CATALOG)
def test_derivative_degree_leading(label, desc):
    laur = laurent_at_one(desc, 32)
    td = todd_series(laur, 30)
    polys = [bernoulli_poly(td, n) for n in range(31)]
    lead = F((-1) ** laur.nu) * (laur.ks[-1] if laur.nu else laur.phis[0])
    for n, p in enumerate(polys):
        assert p.degree == n
        assert p.leading == lead
        if n:
            assert p.derivative() == polys[n - 1] * n


def test_low_polynomials_depend_only_on_principal_part():
    # for n <= nu-1 the regular data does not enter B[n]
    desc = catalog_descriptor("barnes")  # nu = 2
    laur = laurent_at_one(desc, 8)
    td_full = todd_series(laur, 6)
    td_principal = todd_series(laur.principal_only(8), 6)
    for n in range(laur.nu):
        assert bernoulli_poly(td_full, n) == bernoulli_poly(td_principal, n)


def test_faa_di_bruno_cross_check():
    # psi from Stirling sums equals psi from series composition, exactly
    desc = catalog_descriptor("eta")
    laur = laurent_at_one(desc, 24)
    M = 20
    outer = TruncSeries([laur.phis[k] * F(1, factorial(k)) for k in range(M + 1)], M)
    inner = TruncSeries([F(0)] + [F(1, factorial(n)) for n in range(1, M + 1)], M)
    comp = compose(outer, inner)
    for m in range(M + 1):
        psi_series = comp.coeffs[m] * factorial(m)
        psi_stirling = laur.phis[0] if m == 0 else sum(
            stirling2(m, k) * laur.phis[k] for k in range(1, m + 1)
        )
        assert psi_series == psi_stirling
