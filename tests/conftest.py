import pytest
from mpmath import mp


@pytest.fixture(autouse=True)
def mp_precision_unchanged():
    """Fail a test that leaves mpmath's process-wide precision changed: a
    result must not depend on what ran before it."""
    before = mp.prec
    yield
    after = mp.prec
    if after != before:
        mp.prec = before
        pytest.fail("mp.prec left at %d (was %d)" % (after, before))
