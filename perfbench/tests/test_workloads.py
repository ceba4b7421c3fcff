"""Input generation: seeded, alike from round to round, inside its region."""
import random

import pytest

import reference as ref
import workloads as wl


def planned(name, seed, seconds=10):
    work = wl.WORKLOADS[name]
    rng = random.Random("%s:%d" % (name, seed))
    members = work.members(rng)
    return members, work.rounds(rng, members, wl.round_count(work, seconds))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs_and_every_round_alike(name):
    assert planned(name, 7) == planned(name, 7)
    _members, rounds = planned(name, 7)
    shapes = {tuple((op.kind, op.label, op.tag) for op in r) for r in rounds}
    assert len(shapes) == 1


@pytest.mark.parametrize("seed", range(5))
def test_generic_points_cover_their_strata(seed):
    rng = random.Random(seed)
    for _label, sp in wl.MEMBERS:
        nu = ref.pole_order(sp)
        lo, hi = wl._left_edge(nu), nu + 3
        points = wl._generic(rng, nu, 4)
        for s in points:
            assert lo <= s.real <= hi and 0 < abs(s.imag) < 8
            assert all(abs(s - n) >= 1 for n in range(1, nu + 1))
        for s, (re_lo, re_hi) in zip(points, wl._strata(lo, hi, 4)):
            assert re_lo <= s.real <= re_hi
        assert sorted(int(abs(s.imag) // 2) for s in points) == [0, 1, 2, 3]
