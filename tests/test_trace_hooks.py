"""Guard for the benchmark's traced run.

perfbench/tracing.py wraps gapsieve functions by name and reads the shape of
their results.  These tests install and remove those wrappers and run one
small traced pipeline, so renaming or deleting a wrapped name, or changing a
captured result's shape, fails here instead of in the benchmark.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing as module

    yield module
    sys.modules.pop("tracing", None)


def gapsieve_namespaces():
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if mod is not None and (name == "gapsieve" or name.startswith("gapsieve."))
    }


def test_layer_spans_install_and_uninstall(tracing):
    import gapsieve.cli  # noqa: F401  (loads every layer the tracer wraps)

    before = gapsieve_namespaces()
    patches = tracing.install_layer_spans(tracing.Tracer())
    patches.uninstall()
    after = gapsieve_namespaces()
    for name, namespace in before.items():
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


def test_traced_pipeline_yields_layer_metrics(tracing):
    import gapsieve.pipeline as pipeline

    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        report, _ = pipeline.run_pipeline(pipeline.StagedConfig(x=500, seed=1))
    metrics, spans = tracing.layer_metrics(tracer, 1, {})
    assert spans["pipeline.run_pipeline"][0] == 1
    assert spans["nibble.nibble_round"][0] >= 1
    assert metrics["pipeline.edge_atoms"] > 0
    assert metrics["nibble.round_us_per_index"] > 0
    assert report.stage3_indices > 0


def test_traced_sieve_pipeline_builds_one_weight_system(tracing):
    import gapsieve.pipeline as pipeline

    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        report, _ = pipeline.run_pipeline(
            pipeline.StagedConfig(x=500, seed=2, weights="sieve")
        )
    metrics, spans = tracing.layer_metrics(tracer, 1, {})
    assert report.stage3_indices > 0
    assert spans["weights.system_build"][0] == 1
    # one array pass covers every sieving prime: no weight is evaluated per
    # prime, and none per anchor
    assert spans["weights.sum_over_support"][0] == 0
    assert spans["weights.weight"][0] == 0
    assert metrics["weights.systems_built"] == 1
    assert metrics["weights.weight_calls"] == 0


def test_traced_pipeline_proves_moduli_without_miller_rabin(tracing):
    import gapsieve.pipeline as pipeline

    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        pipeline.run_pipeline(pipeline.StagedConfig(x=5000, stage3_method="none", seed=1))
    metrics, spans = tracing.layer_metrics(tracer, 1, {})
    assert spans["residues.system_init"][0] >= 4
    assert spans["primes.is_prime"][0] == 0
    assert metrics["primes.is_prime_calls"] == 0
