"""perfbench/layers.py wraps airfed functions by module and name, and counts
their work from their arguments.  A renamed or deleted function drops its
metrics from the benchmark's output; these runs catch that here."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from airfed import bounds, channel, cli, learner, protocol, rng, topology

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
MODULES = {"bounds": bounds, "channel": channel, "cli": cli,
           "learner": learner, "protocol": protocol, "rng": rng,
           "topology": topology}


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_tracer_finds_and_counts_every_wrapped_function():
    layers = _layers()
    cfg = protocol.ScenarioConfig(
        scenario="hotafl", C=2, M=2, K=4, T=2, sigma_z2=1.0, feature_dim=9,
        num_classes=4, train_samples=400, test_samples=100, batch_size=20,
        seed=3)
    tracer = layers.layer_tracer(MODULES)
    try:
        assert tracer.missing == []
        protocol.run_scenario(cfg)                 # K >= M
        assert tracer.calls["channel.draw"] == 0
        tracer.reset()
        protocol.run_scenario(replace(cfg, K=1))   # K < M: the same draw
        assert tracer.calls["channel.draw"] == 0
        tracer.reset()
        # runs never call the full-tensor reference chain; one direct call
        # is counted from its arguments: (M, K, N) = (2, 3, 4)
        h = channel.draw_channels_from_betas(np.ones(2), 3, 4, 1.0,
                                             rng.substream(3, rng.CHANNEL))
        z = channel.draw_noise(3, 4, 1.0, rng.substream(3, rng.NOISE))
        channel.uplink_and_combine(np.ones((2, 4), dtype=complex), h, 1.0, z)
        for group in ("channel.draw", "channel.noise", "channel.combine"):
            assert tracer.calls[group] == 1
        assert tracer.counts["channel.normals"] == 2 * 2 * 3 * 4 + 2 * 3 * 4
        assert tracer.counts["channel.tensor_bytes"] == 2 * 3 * 4 * 16
        assert tracer.uncounted == set()
    finally:
        tracer.restore()
    assert channel.draw_noise.__module__ == "airfed.channel"


def test_clock_points_hold_on_a_pooled_run(monkeypatch):
    # perfbench/run.py's _run raises ClockError unless each setup point is
    # called once and learner.evaluate T times, and times the iterations as
    # the gaps between evaluate's returns, which the pool runs
    layers = _layers()
    monkeypatch.setattr(learner, "_cpu_count", lambda: 2)
    cfg = protocol.ScenarioConfig(
        scenario="hotafl", C=2, M=2, K=8, T=4, feature_dim=256,
        batch_size=400, train_samples=2000, test_samples=500, seed=4)
    tracer = layers.clock_tracer(MODULES)
    try:
        protocol.run_scenario(cfg)
    finally:
        tracer.restore()
    assert tracer.calls["learner.evaluate"] == cfg.T
    returns = tracer.returns["learner.evaluate"]
    assert all(a < b for a, b in zip(returns, returns[1:]))
    for _, _, group in layers.SETUP_POINTS:
        assert tracer.calls[group] == 1, group
