"""perfbench/layers.py wraps airfed functions by module and name, and counts
their work from their arguments.  A renamed or deleted function drops its
metrics from the benchmark's output; these runs catch that here."""

import importlib.util
from dataclasses import replace
from pathlib import Path

from airfed import bounds, channel, cli, learner, protocol, rng, topology

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_tracer_finds_and_counts_every_wrapped_function():
    layers = _layers()
    modules = {"bounds": bounds, "channel": channel, "cli": cli,
               "learner": learner, "protocol": protocol, "rng": rng,
               "topology": topology}
    cfg = protocol.ScenarioConfig(
        scenario="hotafl", C=2, M=2, K=4, T=2, sigma_z2=1.0, feature_dim=9,
        num_classes=4, train_samples=400, test_samples=100, batch_size=20,
        seed=3)
    tracer = layers.layer_tracer(modules)
    try:
        assert tracer.missing == []
        protocol.run_scenario(cfg)                 # K >= M: Bartlett factor
        assert tracer.calls["channel.draw"] == 0
        tracer.reset()
        protocol.run_scenario(replace(cfg, K=1))   # K < M: full tensor
        # C * I * T aggregations, each counted from its arguments
        assert tracer.calls["channel.draw"] == 4
        assert tracer.calls["channel.noise"] == 4
        assert tracer.calls["channel.combine"] == 4
        assert tracer.counts["channel.normals"] > 0
        assert tracer.uncounted == set()
    finally:
        tracer.restore()
    assert channel.draw_noise.__module__ == "airfed.channel"
