"""Seeded inputs, operations and output checks of the benchmark workloads.

Inputs are drawn with ``random.Random`` from the workload name and the
seed; nothing here imports tamezeta.  A workload is:

* ``members(rng)``: the distinct series of a run, as (label, spec, t0),
  t0 being the point of evaluation a run fixes per series, if any;
* ``warmup(members)``: the untimed operations that pay each series' cold
  first value (see each workload for what that takes);
* ``rounds(rng, members, count)``: ``count`` rounds of operations.  Every
  round has the same make-up (the same operation kinds on the same
  members, in the same order); only the seeded points and t0 values are
  fresh;
* ``round_s``: the share of ``--seconds`` one round stands for; a run
  holds ``round(seconds / round_s)`` rounds, at least one
  (:func:`round_count`), set so that one run of every workload fits the
  time a benchmark run is given (see the README).

An operation is an :class:`Op`; ``run.py`` executes it against the program
and :func:`check` compares its output with :mod:`reference`.
"""
from __future__ import annotations

import cmath
from collections import namedtuple
from fractions import Fraction
from math import factorial

import reference as ref
from reference import spec

EPS = 1e-25
PRECISION_BITS = 128

Op = namedtuple("Op", "kind label spec s t tag")

# ---------------------------------------------------------------------------
# the catalog members (tamezeta.catalog.default_members(), as specs)
# ---------------------------------------------------------------------------

CHI3 = (1, -1, 0)
CHI4 = (1, 0, -1, 0)
CHI5 = (1, -1, -1, 1, 0)  # the only real nonprincipal character mod 5: even
CHI7 = (1, 1, -1, 1, -1, -1, 0)  # odd
CHI8_ODD = (1, 0, 1, 0, -1, 0, -1, 0)  # chi_-8, primitive
CHI12_ODD = ((1, 0, 0, 0, -1, 0, 1, 0, 0, 0, -1, 0), (1, 0, 0, 0, 1, 0, -1, 0, 0, 0, -1, 0))  # chi_-3, chi_-4 lifted

MEMBERS = (
    ("hurwitz", spec("hurwitz")),
    ("eta", spec("eta")),
    ("dirichletL-3", spec("character", modulus=3, values=CHI3, power=1)),
    ("dirichletL-7", spec("character", modulus=7, values=CHI7, power=1)),
    ("lerch-1/2", spec("lerch", w=Fraction(1, 2))),
    ("barnes-1,1", spec("barnes", a=(1, 1))),
    ("ehrhart", spec("ehrhart", g=(1,), p=1, d=1)),
    ("central-binomial", spec("central-binomial")),
    ("zeta-even", spec("zeta-even")),
)
# generic hasse-scan points per member and round: the median operation is a
# generic one, and its cost differs between members and points, so enough of
# them per member keep op_p50_ms from following one run's draws
GENERIC_PER_ROUND = 4
# members whose cold order-512 expansion builds in well under a second; the
# others take 2-10 s each, which would swamp the rest of a hasse-scan run
CHEAP_ORDER_512 = ("eta", "dirichletL-3", "lerch-1/2")
# direct_sum warm-up points of em-overlap, as offsets from nu: points of
# its region next to the abscissa of convergence
EM_EDGE_POINTS = (complex(0.5 + 1 / 1024, 8), complex(0.5 + 1 / 1024, -8), complex(0.5 + 1 / 1024, 0.5))
# the members with a purely cyclotomic denominator, where oracle_eval applies
CYCLOTOMIC = ("hurwitz", "eta", "dirichletL-3", "dirichletL-7", "barnes-1,1", "ehrhart")

T0_SMALL = (Fraction(1, 2), Fraction(1), Fraction(7, 3))
T0_EXACT = (
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(1),
    Fraction(5, 4),
    Fraction(3, 2),
    Fraction(2),
    Fraction(7, 3),
    Fraction(5, 2),
    Fraction(3),
)
EXACT_K = 12  # special values D(-n, t0) for n <= EXACT_K

# The operator route accepts its ladder relative to |H|, which far left is
# ~1e15 while D is ~1e-2: barnes-1,1 at s = -8+1.5i is off by 3e-24 (eps
# 1e-25) and reports a bound of 5e-13 without raising.  Members with a pole
# fail so at some points with Re s <= -7.75 (hurwitz) or -7 (nu = 2), the
# error peaking where the ladder stops at order 64 just below the height
# where it would go on to 128; so they draw their generic points from Re s >=
# -5.5 (see _left_edge), and every round evaluates this one fixed point,
# which fails every time.
HASSE_PROBE = ("barnes-1,1", complex(-8, 1.5), Fraction(1, 2))
FAULT_HASSE_ACCEPT = "hasse-error-above-eps"

# the even character at power 1: alpha(1) = 0 and reconstruction refuses
# the report (deg B[0] = -1); kept at fixed inputs so that every round
# fails the same one operation
EVEN_CHARACTER_OP = ("dirichletL-5-even", spec("character", modulus=5, values=CHI5, power=1), Fraction(1))
FAULT_RECONSTRUCT = "reconstruct-even-character"

# incgamma_eval on central-binomial at this point is off by 1.2e-27 (within
# eps) but reports a tail bound of 3.6e-30; every round evaluates it and it
# fails every time
INCGAMMA_PROBE = ("central-binomial", complex(-85 / 256, 1785 / 512), Fraction(1))
FAULT_INCGAMMA_BOUND = "incgamma-outside-own-bound"
# t of the seeded incgamma points on eta
INCGAMMA_T = Fraction(7, 3)


# ---------------------------------------------------------------------------
# point generation: real and imaginary parts on binary grids, imaginary
# parts never zero, so no point sits exactly on a pole
# ---------------------------------------------------------------------------


def _grid(rng, lo, hi, step=256):
    return rng.randint(int(lo * step), int(hi * step)) / step


def _imag(rng, lo, hi):
    """|Im s| in (lo, hi], odd multiples of 1/512, random sign."""
    k = rng.randrange(int((hi - lo) * 256))
    return rng.choice((-1, 1)) * (lo + (2 * k + 1) / 512)


def _near_pole(rng, band):
    """A point off the real axis at distance d from the pole candidate 1,
    with d drawn from (4^-(band+1), 4^-band]."""
    d = 4.0 ** -(band + (2 * rng.randrange(1024) + 1) / 2048)
    return 1 + d * cmath.exp(2j * cmath.pi * (2 * rng.randrange(256) + 1) / 512)


def _left_edge(nu):
    """Re s >= -8 for pole-free members, >= -5.5 for the others (see
    HASSE_PROBE): a scan at the three t0, |Im s| in steps of 0.1 up to 8,
    found their worst errors there 3.5e-27 (barnes-1,1, ehrhart), 1.4e-28
    (hurwitz) and 7e-32 (zeta-even), against 1.3e-26 to 2.7e-25 at Re s = -7."""
    return -5.5 if nu else -8


def _strata(lo, hi, count):
    """[lo, hi] cut into ``count`` equal intervals."""
    width = (hi - lo) / count
    return [(lo + i * width, lo + (i + 1) * width) for i in range(count)]


def _generic(rng, nu, count, im_lo=0, im_hi=8):
    """``count`` points with Re s in [left edge, nu+3], |Im s| in (im_lo,
    im_hi], distance >= 1 from the poles 1..nu.  Both ranges are cut into
    ``count`` strata; each point takes its own real stratum and, in a
    seeded order, its own imaginary one (a Latin hypercube).  The cost of a
    point follows its place, and with uniform draws a run's op_p50_ms
    followed where its few points per member happened to fall."""
    ims = _strata(im_lo, im_hi, count)
    rng.shuffle(ims)
    out = []
    for (re_lo, re_hi), (lo, hi) in zip(_strata(_left_edge(nu), nu + 3, count), ims):
        while True:
            s = complex(_grid(rng, re_lo, re_hi), _imag(rng, lo, hi))
            if all(abs(s - n) >= 1 for n in range(1, nu + 1)):
                out.append(s)
                break
    return out


def deep_points(nu):
    """Points where the operator ladder climbs to the highest rungs the
    generic region needs: a scan of Re s in [-8, nu+3] at t0 in {1/2, 1,
    7/3} found the catalog's top rungs at Im s = 8 on its left edge
    (hurwitz, zeta-even, dirichletL-7: 128), near Re s = -1 (dirichletL-3:
    128) and near Re s = 1.5 (barnes-1,1, ehrhart: 256).  The generic
    points of the members with a pole start at -5.5 (see _left_edge); these
    warm-up points stay where they were: their values, checked like every
    output, are within 1.2e-31 (relative) of the references at all three
    t0."""
    return (complex(-6 if nu >= 2 else -8, 8), complex(-1, 8), complex(1.5, 8))


# the same for the order-512 path (16 < |Im s| <= 24)
DEEP_POINTS_512 = (complex(-8, 24), complex(-1, 24), complex(3, 24))


def round_count(work, seconds):
    """Rounds in a run of ``seconds``: fixed in advance, so the work of a
    run does not depend on the speed of the machine."""
    return max(1, round(seconds / work.round_s))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class HasseScan:
    """The operator route over the catalog.

    A round evaluates, per member: GENERIC_PER_ROUND generic points (|Im s|
    <= 8, distance >= 1 from the poles 1..nu); for three members one point with
    16 < |Im s| <= 24, the order-512 path; on barnes-1,1, the fixed fault
    probe; and, closing the round, for each of the four members with a pole
    one fresh point within distance 1 of the pole candidate 1.  A member's
    near-pole distances in a run of R rounds fall one each into the bands
    (4^-(k+1), 4^-k], k < R, in a seeded order.  continue_dirichlet raises
    its working precision by about two bits per halving of the distance,
    so each band gives the shift weights a new cache key: every near-pole
    operation pays their rebuild, in every run alike.

    The warm-up is each member's cold first value (its multi-power
    expansions) at the points where its operator ladder climbs highest
    (:func:`deep_points`, and DEEP_POINTS_512 for the order-512 path), so
    that no generic operation builds a rung lazily.  The weight cache then
    holds the same entries after every warm-up, the near-pole operations
    are the only ones that add entries, and the cache empties itself (past
    64 entries) at the same near-pole operation of every run.  At
    ``--seconds 10`` (three rounds) that is one of the last round's
    near-pole operations, which close the round, so no generic operation
    pays a rebuild after it.
    """

    name = "hasse-scan"
    why = "continue_dirichlet on the catalog: operator route only (multi-power, shift weights, accumulator)"
    round_s = 3.0

    def members(self, rng):
        # each t0 goes to three of the nine members; the probe's member
        # takes the probe's t0
        t0s = list(T0_SMALL) * 3
        t0s.remove(HASSE_PROBE[2])
        rng.shuffle(t0s)
        return [
            (label, sp, HASSE_PROBE[2] if label == HASSE_PROBE[0] else t0s.pop()) for label, sp in MEMBERS
        ]

    def warmup(self, members):
        ops = []
        for label, sp, t0 in members:
            points = (complex(-1, 4),) + deep_points(ref.pole_order(sp))
            if label in CHEAP_ORDER_512:
                points += DEEP_POINTS_512
            ops.extend(Op("continue", label, sp, s, t0, "warmup") for s in points)
        return ops

    def rounds(self, rng, members, count):
        bands = {label: rng.sample(range(count), count) for label, sp, _t0 in members if ref.pole_order(sp)}
        out = []
        for i in range(count):
            ops, near = [], []
            for label, sp, t0 in members:
                nu = ref.pole_order(sp)
                ops.extend(Op("continue", label, sp, s, t0, "generic") for s in _generic(rng, nu, GENERIC_PER_ROUND))
                if label in CHEAP_ORDER_512:
                    ops.append(Op("continue", label, sp, _generic(rng, nu, 1, 16, 24)[0], t0, "im>16"))
                if label == HASSE_PROBE[0]:
                    ops.append(Op("continue", label, sp, HASSE_PROBE[1], HASSE_PROBE[2], "fault-probe"))
                if nu:
                    near.append(Op("continue", label, sp, _near_pole(rng, bands[label][i]), t0, "near-pole"))
            out.append(ops + near)
        return out


class EmOverlap:
    """Direct summation and the Hurwitz oracle where the series converges.

    Each round takes two fresh points per member with nu + 1/2 < Re s <=
    nu + 3 and |Im s| <= 8, one in each half of the real range and one in
    each half of the imaginary range, each with its own seeded t0 (so that
    no run holds a member at one t0 throughout), evaluates both by
    direct_sum and, for the six members with a cyclotomic denominator, the
    first (the one nearer the abscissa) by oracle_eval as well: 24
    operations.  Their times fall into three groups (oracle_eval
    and the two geometric members near 10-25 ms, 5 operations near 35-55
    ms, the rest above 60 ms at the time of writing), and with two direct
    points the median operation falls inside the middle group rather than
    on the gap below it.  The warm-up evaluates each member by direct_sum
    at three points of that region next to the abscissa of convergence,
    where the heads are longest, and the cyclotomic members by oracle_eval
    at the first of them.
    """

    name = "em-overlap"
    why = "direct_sum and oracle_eval where the series converges: Euler-Maclaurin tails, no operator code"
    round_s = 2.0

    def members(self, rng):
        return [(label, sp, None) for label, sp in MEMBERS]

    def warmup(self, members):
        ops = []
        for label, sp, _t0 in members:
            nu = ref.pole_order(sp)
            for s, t0 in zip(EM_EDGE_POINTS, T0_SMALL):
                ops.append(Op("direct", label, sp, nu + s, t0, "warmup"))
            if label in CYCLOTOMIC:
                ops.append(Op("oracle", label, sp, nu + EM_EDGE_POINTS[0], T0_SMALL[0], "warmup"))
        return ops

    def rounds(self, rng, members, count):
        out = []
        for _ in range(count):
            ops = []
            for label, sp, _t0 in members:
                nu = ref.pole_order(sp)
                # Re s - nu - 1/2 in (0, 1.25] and (1.25, 2.5], |Im s| in
                # (0, 4] and (4, 8] in a seeded pairing (as in _generic)
                ims = [(0, 4), (4, 8)]
                rng.shuffle(ims)
                points = [
                    (complex(nu + 0.5 + (2 * rng.randrange(640 * i, 640 * (i + 1)) + 1) / 1024, _imag(rng, *im)), rng.choice(T0_SMALL))
                    for i, im in enumerate(ims)
                ]
                ops.extend(Op("direct", label, sp, s, t0, "em") for s, t0 in points)
                if label in CYCLOTOMIC:
                    ops.append(Op("oracle", label, sp, points[0][0], points[0][1], "em"))
            out.append(ops)
        return out


class IncGamma:
    """The incomplete-gamma route.

    A round is two eta operations at fresh points (Re s in [-3, 3], |Im s|
    <= 4) and the fixed central-binomial fault probe: three operations, one
    for each block of a run (see run.py).  Only eta gets seeded
    points: on the other pole-free members incgamma_eval returns values
    outside their own tail bound at some points and not at others (see
    FAULT_INCGAMMA_BOUND), which would make the failed share depend on the
    seed.  The eta points are taken at t = INCGAMMA_T, where an operation
    costs about the same wherever s falls: in one stretch of the machine
    3.7-4.0 s at four points against 4.8-8.3 s at six points at t = 1.
    The warm-up is one eta operation at s = 0.5+i.
    """

    name = "incgamma"
    why = "incgamma_eval on eta and a central-binomial probe: integrand partial sums, tanh-sinh, gamma-star head"
    round_s = 10.0

    def members(self, rng):
        return [(label, sp, INCGAMMA_T) for label, sp in MEMBERS if label in ("eta", INCGAMMA_PROBE[0])]

    def warmup(self, members):
        return [Op("incgamma", label, sp, complex(0.5, 1), t0, "warmup") for label, sp, t0 in members if label == "eta"]

    def rounds(self, rng, members, count):
        out = []
        for _ in range(count):
            ops = []
            for label, sp, t0 in members:
                if label == INCGAMMA_PROBE[0]:
                    ops.append(Op("incgamma", label, sp, INCGAMMA_PROBE[1], INCGAMMA_PROBE[2], "fault-probe"))
                else:
                    ops.extend(
                        Op("incgamma", label, sp, complex(_grid(rng, -3, 3), _imag(rng, 0, 4)), t0, "incgamma")
                        for _ in range(2)
                    )
            out.append(ops)
        return out


class ExactFamily:
    """The exact layers on a family of descriptors.

    The family is the same in every run but for seeded parameters that move
    its cost little (one Barnes tuple, one Ehrhart g/p/d, the cyclotomic
    rational's denominator and numerator).  Every round takes each
    descriptor once at a fresh seeded t0, plus the one even-character
    operation that always fails.  The 15 operations of a round fall into
    three groups of five by cost (at EXACT_K = 12: below 0.19 s, 0.19-0.37 s,
    above 0.5 s), so the median operation sits inside the middle group and
    op_p50_ms does not jump between groups from seed to seed.  A round takes
    them one from each group in turn, so that the three blocks of a run
    (see run.py) have the same mix.
    """

    name = "exact-family"
    why = "exact layers: analyze, exact operator route for D(-n, t0), reconstruction, on a seeded family"
    round_s = 10.0

    def members(self, rng):
        barnes = rng.choice(((1, 2), (1, 1, 1)))
        p, d = rng.choice(((1, 2), (2, 1)))
        g = (1, rng.randint(0, 3))
        den = rng.choice(((1, 1, 1), (1, -1, 1, -1)))
        num = (rng.randint(1, 3), rng.randint(-2, 2))
        if den == (1, 1, 1) and sum(num) == 0:
            # alpha(1) = 0: reconstruction fails as for the even character
            # (see EVEN_CHARACTER_OP), which already counts that fault
            num = (num[0], num[1] + 1)

        def char(k, values, q):
            return spec("character", modulus=k, values=values, power=q)

        cheap = [  # below 0.19 s
            ("barnes-" + ",".join(map(str, barnes)), spec("barnes", a=barnes)),
            ("ehrhart-p%d-d%d" % (p, d), spec("ehrhart", g=g, p=p, d=d)),
            ("dirichletL-3", char(3, CHI3, 1)),
            ("dirichletL-4", char(4, CHI4, 1)),
            ("rational-num/%s" % (den,), spec("rational", num=num, den=den)),
        ]
        middle = [  # 0.19-0.37 s, with the even-character operation
            ("barnes-1,2,3", spec("barnes", a=(1, 2, 3))),
            ("ehrhart-p3-d1", spec("ehrhart", g=(1,), p=3, d=1)),
            ("dirichletL-3^2", char(3, CHI3, 2)),
            ("dirichletL-4^2", char(4, CHI4, 2)),
        ]
        costly = [  # above 0.5 s
            ("dirichletL-5-even^2", char(5, CHI5, 2)),
            ("dirichletL-7", char(7, CHI7, 1)),
            ("dirichletL-8-odd", char(8, CHI8_ODD, 1)),
            ("dirichletL-12-odd-a", char(12, CHI12_ODD[0], 1)),
            ("dirichletL-12-odd-b", char(12, CHI12_ODD[1], 1)),
        ]
        cheap, middle, costly = ([(label, sp, None) for label, sp in g] for g in (cheap, middle, costly))
        middle.append(EVEN_CHARACTER_OP)
        return [member for triple in zip(cheap, middle, costly) for member in triple]

    def warmup(self, members):
        return [Op("exact", label, sp, None, t0 or Fraction(1, 2), "warmup") for label, sp, t0 in members]

    def rounds(self, rng, members, count):
        return [
            [
                Op("exact", label, sp, None, t0, "even-character")
                if t0
                else Op("exact", label, sp, None, rng.choice(T0_EXACT), "exact")
                for label, sp, t0 in members
            ]
            for _ in range(count)
        ]


WORKLOADS = {w.name: w for w in (HasseScan(), EmOverlap(), IncGamma(), ExactFamily())}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


class Check:
    """Outcome of one operation: ``fault`` names a known program fault the
    operation hit (it counts as failed); ``wrong`` describes an output that
    disagrees with the reference."""

    __slots__ = ("fault", "wrong")

    def __init__(self, fault=None, wrong=None):
        self.fault = fault
        self.wrong = wrong


def check(op, out, error):
    """Check one operation's output (or the exception it raised)."""
    if op.kind == "exact":
        return _check_exact(op, out, error)
    if error is not None:
        return Check(wrong="%s raised %r" % (op.kind, error))
    import mpmath

    with mpmath.mp.workprec(ref.REF_BITS):
        want = ref.value(op.spec, op.s, op.t)
        got = out.value.to_mpc()
        err = abs(got - want)
        if err > EPS * max(1, abs(want)):
            if op.tag == "fault-probe":
                return Check(fault=FAULT_HASSE_ACCEPT)
            return Check(wrong="%s %s s=%r t=%s: error %s above eps" % (op.kind, op.label, op.s, op.t, mpmath.nstr(err, 3)))
        rounding = mpmath.mpf(2) ** (2 - PRECISION_BITS) * max(1, abs(got))
        bound = ref.mp_number(out.tail_bound).real
        if err > bound + rounding:
            if op.kind == "incgamma" and op.tag == "fault-probe":
                return Check(fault=FAULT_INCGAMMA_BOUND)
            return Check(
                wrong="%s %s s=%r t=%s: error %s above its own bound %s"
                % (op.kind, op.label, op.s, op.t, mpmath.nstr(err, 3), mpmath.nstr(bound, 3))
            )
    return Check()


def _check_exact(op, out, error):
    if error is not None:
        return Check(wrong="exact %s raised %r" % (op.label, error))
    report, hasse_values, recon, laurent = out
    K, t0, nu = EXACT_K, op.t, ref.pole_order(op.spec)
    if report.nu != nu:
        return Check(wrong="exact %s: nu %d, expected %d" % (op.label, report.nu, nu))
    want_values = tuple(ref.special_value(op.spec, n, t0) for n in range(K + 1))
    if tuple(report.special_values) != want_values:
        return Check(wrong="exact %s t0=%s: special values differ from the Hurwitz decomposition" % (op.label, t0))
    scaled = tuple(v * Fraction((-1) ** nu * factorial(n), factorial(nu + n)) for n, v in enumerate(hasse_values))
    if scaled != want_values:
        return Check(wrong="exact %s t0=%s: operator-route values differ" % (op.label, t0))
    res = ref.residues(op.spec, t0)
    if tuple(report.pole_set) != tuple(n for n in sorted(res) if res[n] != 0):
        return Check(wrong="exact %s t0=%s: pole set %r" % (op.label, t0, report.pole_set))
    if any(report.residues[n] != res[n] for n in report.pole_set):
        return Check(wrong="exact %s t0=%s: residues differ" % (op.label, t0))
    if isinstance(recon, ValueError):
        if "deg B[0] = -1" in str(recon):
            return Check(fault=FAULT_RECONSTRUCT)
        return Check(wrong="exact %s t0=%s: reconstruction raised %r" % (op.label, t0, recon))
    n_phi = len(recon.phis)
    if (recon.nu, tuple(recon.ks), tuple(recon.phis)) != (laurent.nu, tuple(laurent.ks), tuple(laurent.phis[:n_phi])):
        return Check(wrong="exact %s t0=%s: reconstructed Laurent data differ from laurent_at_one" % (op.label, t0))
    return Check()
