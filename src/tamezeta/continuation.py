"""Continuation reports: poles, residues, special values, genericity.

For a generating series with pole order nu at z=1, the attached Dirichlet
series D(s,t0) = sum a_{n+1} (t0+n)^(-s) continues meromorphically with at
most simple poles at s = 1..nu.  Writing B[nu-1; t] = sum_n p_n (t-t0)^(n-1),
the pole set is {n : p_n != 0}, the residue at n is (-1)^(nu+n) p_n/(nu-1)!,
and the values at s = -n are (-1)^nu n!/(nu+n)! * B[nu+n; t0].
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath
from mpmath import mp

from .bernoulli import bernoulli_poly, todd_series
from .scalar import as_mpc
from .series import Poly, recenter
from .tame import LaurentAtOne, laurent_at_one

__all__ = [
    "ContinuationReport",
    "analyze",
    "analyze_from_laurent",
    "classify_argument",
    "analyze_split",
]


@dataclass(frozen=True)
class ContinuationReport:
    nu: int
    t0: object
    pole_set: tuple  # sorted subset of 1..nu
    residues: dict  # n -> scalar, nonzero exactly on pole_set
    special_values: tuple  # v_0..v_K, or () when not licensed
    values_licensed: bool
    genericity: str  # "generic" | "special"
    witness: tuple  # derivative indices i with B[nu-1]^(i)(t0) = 0
    removable: tuple  # (n, certificate string) for candidate poles that vanish
    warnings: tuple = ()
    bernoulli: tuple = ()  # B[0..] polynomials included for report emission

    def residue(self, n: int):
        return self.residues.get(n, 0)


def _is_zero(x, kind: str, prec: int, warnings: list, label: str) -> bool:
    if kind == "exact":
        return x == 0
    with mp.workprec(prec):
        mag = abs(as_mpc(x, prec))
        thresh = mpmath.mpf(2) ** (-(prec // 2))
        if mag == 0:
            return True
        if mag <= thresh:
            warnings.append(
                "float-zero-test: %s has magnitude %s below 2^-%d, classified zero"
                % (label, mpmath.nstr(mag, 5), prec // 2)
            )
            return True
        return False


def analyze(desc, t0, value_count: int, prec: int | None = None) -> ContinuationReport:
    """Full continuation report of D(s, t0) for a tame descriptor.

    ``value_count`` is the number of special values v_0..v_{K} requested.
    Exact over the rationals for rational descriptors and rational t0.
    """
    p = prec if prec is not None else mp.prec
    laur = laurent_at_one(desc, value_count + 2, prec=p)
    return analyze_from_laurent(laur, t0, value_count, prec=p)


def analyze_from_laurent(
    laur: LaurentAtOne, t0, value_count: int, prec: int | None = None, licensed: bool = True
) -> ContinuationReport:
    p = prec if prec is not None else mp.prec
    nu = laur.nu
    if isinstance(t0, float):
        t0 = Fraction(t0)
    if not (t0 > 0 if isinstance(t0, (int, Fraction)) else as_mpc(t0, p).real > 0):
        raise ValueError("t0 must be positive")
    # a floating t0 degrades exact data to threshold zero-testing: genuine
    # cancellations then leave rounding residue instead of exact zeros
    kind = laur.kind if isinstance(t0, (int, Fraction)) else "approx"
    order = nu + value_count
    with mp.workprec(p):
        td = todd_series(laur, order)
        warnings: list = []
        polys = tuple(bernoulli_poly(td, n) for n in range(order + 1))
        pole_set = []
        residues = {}
        removable = []
        genericity, witness = "generic", ()
        if nu:
            # p_n multiplies (t-t0)^(n-1)
            centered = recenter(polys[nu - 1], t0)
            fact = factorial(nu - 1)
            for n in range(1, nu + 1):
                pn = centered.coefficient(n - 1)
                if _is_zero(pn, kind, p, warnings, "p_%d" % n):
                    removable.append((n, "B[%d](t0) = 0; t0 is a critical point of B[%d]" % (nu - n, nu - n + 1)))
                    continue
                pole_set.append(n)
                residues[n] = pn * Fraction((-1) ** (nu + n), fact)
            genericity, witness = _classify(polys[nu - 1], nu, t0, kind, p, warnings)
        values = ()
        if licensed:
            sign = (-1) ** nu
            values = tuple(
                polys[nu + n](t0) * Fraction(sign * factorial(n), factorial(nu + n)) if nu else polys[n](t0)
                for n in range(value_count + 1)
            )
        return ContinuationReport(
            nu=nu,
            t0=t0,
            pole_set=tuple(pole_set),
            residues=residues,
            special_values=values,
            values_licensed=licensed,
            genericity=genericity,
            witness=witness,
            removable=tuple(removable),
            warnings=tuple(warnings),
            bernoulli=polys,
        )


def _classify(bpoly: Poly, nu: int, t0, kind: str, prec: int, warnings: list):
    """Generic iff B[nu-1] and its first nu-2 derivatives are nonzero at t0."""
    witness = []
    deriv = bpoly
    for i in range(0, max(0, nu - 1)):
        if _is_zero(deriv(t0), kind, prec, warnings, "d^%d B[%d](t0)" % (i, nu - 1)):
            witness.append(i)
        deriv = deriv.derivative()
    return ("special" if witness else "generic"), tuple(witness)


def classify_argument(desc, t0, prec: int | None = None):
    """Genericity of the argument t0 for D(s, t); nu = 0 is generic by fiat.

    Returns ("generic", ()) or ("special", witness) where witness lists the
    derivative orders of B[nu-1] vanishing at t0.
    """
    rep = analyze(desc, t0, 0, prec=prec)
    return rep.genericity, rep.witness


def analyze_split(laur: LaurentAtOne, t0, value_count: int, prec: int | None = None) -> ContinuationReport:
    """Pole/residue data for a merely-meromorphic-at-1 series.

    Poles and residues are inherited from the principal part alone; values
    at negative integers are not licensed by the principal part and are
    omitted from the report.
    """
    principal = laur.principal_only(value_count + laur.nu + 2)
    return analyze_from_laurent(principal, t0, value_count, prec=prec, licensed=False)
