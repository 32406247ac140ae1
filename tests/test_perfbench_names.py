"""Every trajsel name that the benchmark's tracer patches must exist.

The benchmark in perfbench/ is not collected by this suite, and its tracer
swaps trajsel's module and class attributes at run time. Removing one of
those names would pass every other test here and only break a traced
benchmark run; this test installs and uninstalls the tracer to catch it.
"""

import os

import pytest

from trajsel import diffcore

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    return tracing


def test_tape_primitives_exist(tracing):
    missing = [op for op in tracing.TAPE_PRIMITIVES if op not in diffcore.Tape.__dict__]
    assert not missing


def test_tracer_installs_and_uninstalls(tracing):
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._saved)
    finally:
        tracer.uninstall()
    assert len(patched) > len(tracing.TAPE_PRIMITIVES)
    originals = {}
    for owner, attr, value in patched:  # a name patched twice saved a wrapper second
        originals.setdefault((owner, attr), value)
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, attr
