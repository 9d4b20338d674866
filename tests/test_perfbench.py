"""The benchmark's traced mode against the current package.

``perfbench/tracing.py`` patches semolab functions by name and
``perfbench/micro.py`` calls them, so a name removed from the package
breaks the traced benchmark without breaking any other test.
"""

import sys
from pathlib import Path

import pytest

from semolab import experiments
from semolab.benchmarks import BenchmarkSpec, Kind
from semolab.engine import AlgorithmSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MICRO_KEYS = {f"micro.{name}.ns_per_call" for name in (
    "evaluate", "insert", "measure", "select_parent_uniform",
    "select_parent_slot", "standard_flip_mask")}


@pytest.fixture
def perfbench(monkeypatch):
    """``tracing`` and ``micro`` imported from the checkout, writing no
    bytecode into it, and dropped again after the test."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import micro
    import tracing
    yield tracing, micro
    for name in ("speed", "tracing", "micro"):
        sys.modules.pop(name, None)


def test_traced_round_and_micro_replay(perfbench):
    tracing, micro = perfbench
    spec = BenchmarkSpec(Kind.COCZ, 16)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = experiments.run_until_cover(spec, AlgorithmSpec.gsemo(), 1)
    finally:
        tracer.uninstall()
    assert not result.censored
    assert [s.name for s in tracer.spans] == ["engine.run_until_cover"]
    assert tracer.streams[spec]
    metrics = micro.replay(tracer.streams)
    assert set(metrics) == MICRO_KEYS


def test_traced_offspring_budget(perfbench):
    # the budget path under both of the benchmark's probes: the trial clock
    # and the tracer's span read the same counters as the returned state,
    # and the run never reaches step
    tracing, _ = perfbench
    import speed
    clock = tracing.TrialClock(speed.SpeedProbe())
    tracer = tracing.Tracer()
    clock.install()
    tracer.install()
    try:
        state = experiments.run_offspring_budget(
            BenchmarkSpec(Kind.COCZ, 8), AlgorithmSpec.gsemo(modified=True),
            1, 30)
    finally:
        tracer.uninstall()
        clock.uninstall()
    [span] = tracer.spans
    assert span.name == "engine.run_offspring_budget"
    assert span.attrs["iterations"] == state.t == clock.iterations[0] > 30
    assert span.attrs["offspring"] == 30 == state.evaluations - 1
    assert "engine.init_state" in span.agg
    assert "engine.step" not in span.agg
