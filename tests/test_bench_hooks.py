"""The package names that the benchmark's span tracer patches must keep existing.

``stochbench/tracer.py`` wraps package attributes by name; a renamed or removed
one makes every traced benchmark run and the harness self-test crash.
"""

import importlib.util
from pathlib import Path

import stochflow

TRACER = Path(__file__).resolve().parents[1] / "stochbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("stochbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves_on_the_package():
    tracer = _load_tracer()
    named = [(m, a) for m, a, _ in tracer.RUN_SPANS + tracer.SETUP_SPANS] + list(tracer.CHUNK_COUNTERS)
    missing = [f"{m}.{a}" for m, a in named if not callable(getattr(getattr(stochflow, m, None), a, None))]
    assert not missing
    assert callable(stochflow.brownian.BrownianDriver.increments_block)


def test_tracer_installs_and_restores_every_patch():
    tracer = _load_tracer()
    originals = {(m, a): getattr(getattr(stochflow, m), a) for m, a, _ in tracer.RUN_SPANS}
    with tracer.Tracer() as t:
        t.install_setup(stochflow)
        t.install_run(stochflow)
        assert stochflow.engine.eval_batch is not originals[("engine", "eval_batch")]
    for (m, a), original in originals.items():
        assert getattr(getattr(stochflow, m), a) is original
