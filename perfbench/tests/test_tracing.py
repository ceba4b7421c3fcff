"""The trace harness sees calls through every binding of a layer function."""
from fractions import Fraction

import tamezeta
from tamezeta import numeval, tame

from tracing import Tracer


def test_traced_continue_dirichlet_records_hasse_and_multipower():
    ctx = tamezeta.ApproxContext(precision_bits=64, target_eps=1e-12)
    desc = tamezeta.LerchDescriptor(Fraction(1, 3))  # not yet in any cache
    tracer = Tracer().install()
    try:
        tamezeta.continue_dirichlet(desc, 0.5 + 2j, Fraction(1, 2), ctx)
    finally:
        tracer.uninstall()
    assert tracer.calls["numeval.continue_dirichlet"] == 1
    assert tracer.calls["numeval.hasse_eval"] == 1
    assert tracer.calls["tame.build_shifted_multipower"] == 1
    assert tracer.pows["numeval.hasse_eval"] > 0
    assert tracer.truncation["numeval.hasse_eval"] > 0
    assert tracer.calls["numeval.direct_sum"] == 0
    total = sum(tracer.self_s.values())
    assert 0 < total and all(v >= 0 for v in tracer.self_s.values())


def test_function_local_imports_are_traced():
    # continue_dirichlet imports analyze inside its body; analyze reaches
    # todd_series through continuation's own module-level binding
    ctx = tamezeta.ApproxContext(precision_bits=64, target_eps=1e-12)
    tracer = Tracer().install()
    try:
        tamezeta.continue_dirichlet(tamezeta.catalog_descriptor("hurwitz"), 3 + 1j, 1, ctx)
    finally:
        tracer.uninstall()
    assert tracer.calls["continuation.analyze"] == 1
    assert tracer.calls["bernoulli.todd_series"] >= 1


def test_uninstall_restores_every_binding():
    originals = (numeval.hasse_eval, tame.coeffs, numeval.coeffs, tamezeta.analyze)
    tracer = Tracer().install()
    assert numeval.hasse_eval is not originals[0] and numeval.coeffs is tame.coeffs
    tracer.uninstall()
    assert (numeval.hasse_eval, tame.coeffs, numeval.coeffs, tamezeta.analyze) == originals


def test_reset_forgets_the_warm_up():
    ctx = tamezeta.ApproxContext(precision_bits=64, target_eps=1e-12)
    desc = tamezeta.catalog_descriptor("eta")
    tracer = Tracer().install()
    try:
        tamezeta.continue_dirichlet(desc, 1 + 1j, 1, ctx)
        tracer.reset()
        tamezeta.continue_dirichlet(desc, 2 + 1j, 1, ctx)
    finally:
        tracer.uninstall()
    assert tracer.calls["numeval.continue_dirichlet"] == 1
    assert tracer.calls["tame.build_shifted_multipower"] == 0  # built before the reset
