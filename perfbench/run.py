"""End-to-end and per-layer benchmark of airfed at the paper's shape.

Usage (from the repository root):

    python3 perfbench/run.py --workload hotafl_paper --seed 1 --seconds 30 --trace 0

Each workload runs ``protocol.run_scenario`` repeatedly on one seed for about
``--seconds`` seconds, on the synthetic 784-feature stand-in with C=4
clusters, M=5 users, K=100 antennas and a 7850-parameter model.  Every run is
checked (finite rows, schedule columns, bit-identical checksum on repeats,
a test-accuracy floor on the ideal workload).  ``--trace 0`` reports the
end-to-end metrics of every run but the first, which warms up.  ``--trace 1``
makes two untraced runs (warm-up, then a timed reference) and then traced
runs, whose wrappers time each layer (see ``layers.py``) and whose
aggregation error is checked against ``bounds.lemma_variance_oracle``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# All load comes from this one process; cap BLAS at nproc threads before
# numpy starts its thread pool.
NPROC = len(os.sched_getaffinity(0))
os.environ.setdefault("OPENBLAS_NUM_THREADS", str(NPROC))

import numpy as np  # noqa: E402  (after the thread cap)

import layers  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The paper's reference shape and schedules (configs/mnist_iid_hotafl.cfg,
# with the synthetic stand-in for MNIST).
PAPER = dict(C=4, M=5, K=100, I=1, sigma_h2=1.0, sigma_z2=10.0,
             power_base=1.0, power_slope=0.01,
             flat_power_base=1.5, flat_power_slope=0.01,
             lr_base=0.05, lr_slope=2e-5, dataset="synthetic",
             batch_size=500, feature_dim=784, num_classes=10,
             path_loss_exp=4.0, target_alpha=0.4, alpha_tolerance=0.02)

# T is the number of global iterations per run_scenario call.
WORKLOADS = {
    "hotafl_paper": dict(scenario="hotafl", partition="iid", tau=1, T=11),
    "flat_paper": dict(scenario="flat_ota", partition="iid", tau=1, T=11),
    "ideal_noniid_tau3": dict(scenario="ideal_hier", partition="noniid",
                              tau=3, T=10),
}
# iter_s.tail is this percentile of the iteration samples; runs continue
# until at least ten samples lie beyond it.  p90 of the ideal workload's
# 0.12 s iterations spread 17% between seeds on a shared 2-core machine.
TAIL_PERCENTILE = 75

# Final test accuracy the ideal workload must reach after its T=10
# iterations (0.980 measured at seed 1).
IDEAL_ACC_FLOOR = 0.90
# Per-iteration measured/oracle aggregation-error energy must lie within
# this band; the measured energy is a sum over 7850 coordinates, so one
# realization sits within a few percent of its expectation.
AGG_ERR_BAND = (0.85, 1.15)

# Bound parameter set of configs/bound_fig4_hotafl_I5.cfg, timed through
# cli.parse_config and bounds.bound_trajectory.
BOUND_I5 = """\
L = 10
mu = 1
G2 = 1
Gamma = 1
init_dist = 1000
N = 3925
tau = 1
I = 5
T = 200
M = 5
C = 4
K = 100
sigma_z2 = 10
sigma_h2 = 1
beta = 3
lr_base = 0.05
lr_slope = 2e-5
power_base = 1.0
power_slope = 0.01
label = hotafl_I5_bound
"""

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "iter_s.p50": "s",
                    "iter_s.tail": "s", "iter_per_s": "1/s",
                    "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "channel.draw.calls": "count", "channel.normals": "count",
    "channel.normals_per_s": "1/s", "channel.tensor_mb": "MB",
    "channel.agg_err_ratio": "ratio", "learner.grad.calls": "count",
    "learner.sgd_samples_per_s": "1/s", "rng.substream.calls": "count",
}   # every other per-layer metric is a time in seconds


def _import_airfed():
    """Import airfed from this checkout's src/, never from elsewhere."""
    if not (SRC / "airfed" / "__init__.py").is_file():
        raise FileNotFoundError(f"no airfed package under {SRC}")
    sys.path.insert(0, str(SRC))
    import airfed
    if not Path(airfed.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"airfed imported from {airfed.__file__}, "
                          f"not from {SRC}")
    return {name: importlib.import_module(f"airfed.{name}")
            for name in ("bounds", "channel", "cli", "learner", "protocol",
                         "rng", "topology")}


def _kernels_backend():
    try:
        return importlib.import_module("airfed._kernels").backend()
    except (ImportError, AttributeError):
        return "numpy (no airfed._kernels.backend)"


def _environment(mods, seed, workload):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    gen = mods["rng"].substream(seed, 0)
    return {"workload": workload, "seed": seed, "nproc": NPROC,
            "python": platform.python_version(), "numpy": np.__version__,
            "kernels_backend": _kernels_backend(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "bit_generator": type(gen.bit_generator).__name__}


# ---------------------------------------------------------------------------
# one run and its checks

def _run(mods, cfg, tracer, **kw):
    """One run_scenario call: (metrics, timings) read from the clock points."""
    tracer.reset()
    t0 = time.perf_counter()
    m = mods["protocol"].run_scenario(cfg, **kw)
    run_s = time.perf_counter() - t0
    expected = {"protocol.load_run_data": 1, "protocol.partition_for_run": 1,
                "protocol.build_topology":
                    0 if cfg.scenario == "ideal_hier" else 1,
                "learner.evaluate": cfg.T}
    for group, n in expected.items():
        if tracer.calls[group] != n:
            raise layers.ClockError(
                f"clock point airfed.{group} was called "
                f"{tracer.calls[group]} times in one run, expected {n}")
    setup_s = sum(tracer.total_s[g] for g in expected
                  if g.startswith("protocol."))
    evals = tracer.returns["learner.evaluate"]
    gaps = [b - a for a, b in zip(evals, evals[1:])]
    return m, {"run_s": run_s, "setup_s": setup_s, "gaps": gaps,
               "iter_per_s": cfg.T / (run_s - setup_s)}


def _power_schedule(cfg):
    if cfg.scenario == "flat_ota":
        return cfg.flat_power_base, cfg.flat_power_slope
    return cfg.power_base, cfg.power_slope


def _check_run(mods, cfg, m, reference_checksum):
    """Failure messages for one run's outputs (empty when it passes)."""
    protocol = mods["protocol"]
    bad = []
    rows = np.stack([m.train_loss, m.test_acc, m.avg_tx_power, m.eta, m.power])
    if not np.isfinite(rows).all() or not np.isfinite(m.final_model).all():
        bad.append("non-finite metrics row or final model")
    pb, ps = _power_schedule(cfg)
    eta = [protocol.lr_schedule(t, cfg.lr_base, cfg.lr_slope)
           for t in range(cfg.T)]
    power = [protocol.power_schedule(t, pb, ps) for t in range(cfg.T)]
    if list(m.eta) != eta or list(m.power) != power:
        bad.append("eta/power columns differ from the schedules")
    if reference_checksum not in (None, m.final_checksum):
        bad.append("final_checksum differs from the first run on this seed")
    if cfg.scenario == "ideal_hier" and not m.test_acc[-1] >= IDEAL_ACC_FLOOR:
        bad.append(f"final test_acc {m.test_acc[-1]:.4f} below "
                   f"{IDEAL_ACC_FLOOR}")
    return bad


def _agg_err_ratios(mods, cfg, m):
    """Measured over predicted aggregation-error energy, per iteration.

    Measured: ||theta_PS(t) - theta_PS(t-1) - mean of user diffs||^2.
    Predicted: the three lemma_variance_oracle components with the recorded
    diffs, at 0-based a = t so that P(a) is the engine's power schedule.
    """
    bounds = mods["bounds"]
    topo = mods["protocol"].build_topology(cfg)
    betas = topo.beta if cfg.scenario == "hotafl" else \
        topo.ps_beta.reshape(1, -1)
    pb, ps = _power_schedule(cfg)
    p = bounds.BoundParams(L=1.0, mu=1.0, G2=1.0, Gamma=0.0, init_dist=1.0,
                           N=m.final_model.size // 2, tau=cfg.tau, I=cfg.I,
                           T=cfg.T, K=cfg.K, sigma_z2=cfg.sigma_z2,
                           sigma_h2=cfg.sigma_h2, betas=betas,
                           lr_base=cfg.lr_base, lr_slope=cfg.lr_slope,
                           power_base=pb, power_slope=ps)
    prev = np.zeros_like(m.final_model)
    ratios = []
    for t in range(cfg.T):
        diffs = m.user_diffs[t]
        err = m.models[t] - prev - diffs.mean(axis=(0, 1, 2))
        predicted = sum(bounds.lemma_variance_oracle(w, p, a=t, diffs=diffs)
                        for w in ("signal_distortion", "interference",
                                  "noise"))
        ratios.append(float(err @ err) / predicted)
        prev = m.models[t]
    return ratios


# ---------------------------------------------------------------------------
# the two modes

def _enough(runs, started, seconds):
    """True once another run would overrun the time and the tail percentile
    has at least ten iteration samples beyond it."""
    samples = sum(len(r["gaps"]) for r in runs)
    if len(runs) < 2 or samples * (100 - TAIL_PERCENTILE) < 1000:
        return False
    typical = statistics.median(r["run_s"] for r in runs)
    return time.perf_counter() - started + typical > seconds


def _last_line():
    return traceback.format_exc().strip().splitlines()[-1]


def measure(mods, cfg, seconds, log):
    """Untraced runs: end-to-end metrics plus (attempted, failed)."""
    tracer = layers.clock_tracer(mods)
    runs, attempted, failed, reference, rss_mb = [], 0, 0, None, None
    started = time.perf_counter()
    try:
        while attempted < 50 and not _enough(runs, started, seconds):
            attempted += 1
            try:
                m, timing = _run(mods, cfg, tracer)
            except layers.ClockError:
                raise
            except Exception:
                failed += 1
                log("run raised: " + _last_line())
                continue
            problems = _check_run(mods, cfg, m, reference)
            if problems:
                failed += 1
                log("run failed: " + "; ".join(problems))
            if reference is None:
                # The first run fills caches and the heap: it is checked but
                # not timed.  Peak memory after it is what one CLI run pays;
                # later runs reuse freed heap in ways that differ per process.
                reference = m.final_checksum
                rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            else:
                runs.append(timing)
    finally:
        tracer.restore()
    if not runs:
        return {}, attempted, failed
    gaps = [g for r in runs for g in r["gaps"]]
    log(f"iter_s.tail = p{TAIL_PERCENTILE} of {len(gaps)} iteration samples "
        f"from {len(runs)} runs of T={cfg.T} after a warm-up run")
    metrics = {
        "run_s": statistics.median(r["run_s"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "iter_s.p50": statistics.median(gaps),
        "iter_s.tail": float(np.percentile(gaps, TAIL_PERCENTILE)),
        "iter_per_s": statistics.median(r["iter_per_s"] for r in runs),
        "peak_rss_mb": rss_mb,
    }
    return metrics, attempted, failed


def _layer_metrics(tracer, cfg, timing):
    """Per-layer numbers of one traced run (absent where a hook is gone)."""
    s, calls = tracer.self_s, tracer.calls
    out = {}

    def put(name, group, value):
        if group in tracer.installed:
            out[name] = value

    for name in ("channel.draw", "channel.noise", "channel.combine",
                 "channel.pack_recover", "learner.sgd", "learner.grad",
                 "learner.evaluate", "learner.make_synthetic",
                 "learner.partition", "topology.place_users",
                 "rng.substream"):
        put(name + ".s", name, s[name])
    put("channel.draw.calls", "channel.draw", calls["channel.draw"])
    put("learner.grad.calls", "learner.grad", calls["learner.grad"])
    put("rng.substream.calls", "rng.substream", calls["rng.substream"])
    if not tracer.uncounted and {"channel.draw", "channel.noise"} \
            <= tracer.installed:
        normals = tracer.counts["channel.normals"]
        busy = s["channel.draw"] + s["channel.noise"]
        out["channel.normals"] = normals
        out["channel.normals_per_s"] = normals / busy if busy else 0.0
        out["channel.tensor_mb"] = tracer.maxima["channel.tensor_bytes"] / 1e6
    sgd_busy = tracer.total_s["learner.sgd"]
    put("learner.sgd_samples_per_s", "learner.sgd",
        calls["learner.sgd"] * cfg.tau * cfg.batch_size / sgd_busy
        if sgd_busy else 0.0)
    out["protocol.engine_self.s"] = timing["run_s"] - sum(s.values())
    return out


def _traced_run(mods, cfg, tracer, reference):
    """One traced run: (metrics, layer numbers, gaps, ratios, problems)."""
    m, timing = _run(mods, cfg, tracer, record_models=True,
                     collect_diffs=True)
    layer = _layer_metrics(tracer, cfg, timing)
    problems = _check_run(mods, cfg, m, reference)
    ratios = []
    if cfg.scenario == "ideal_hier":
        layer["channel.agg_err_ratio"] = 0.0
        layer["bounds.oracle.s"] = 0.0
    else:
        before = tracer.self_s["bounds.oracle"]
        ratios = _agg_err_ratios(mods, cfg, m)
        layer["bounds.oracle.s"] = tracer.self_s["bounds.oracle"] - before
        layer["channel.agg_err_ratio"] = statistics.median(ratios)
        lo, hi = AGG_ERR_BAND
        off = [f"t={t}: {x:.3f}" for t, x in enumerate(ratios)
               if not lo <= x <= hi]
        if off:
            problems.append(f"aggregation error outside [{lo}, {hi}] of "
                            "the oracle: " + ", ".join(off))
    return m, layer, timing["gaps"], ratios, problems


def trace(mods, cfg, seconds, log):
    """Untraced warm-up and timed runs, then traced runs: per-layer metrics."""
    started = time.perf_counter()
    clock = layers.clock_tracer(mods)
    try:
        ref, _ = _run(mods, cfg, clock)
        again, ref_timing = _run(mods, cfg, clock)
    finally:
        clock.restore()
    attempted, failed = 2, 0
    for m in (ref, again):
        problems = _check_run(mods, cfg, m, ref.final_checksum)
        if problems:
            failed += 1
            log("untraced run failed: " + "; ".join(problems))

    tracer = layers.layer_tracer(mods)
    for name in tracer.missing:
        log(f"absent: airfed.{name} not found, its metrics are not reported")
    per_run, gaps, ratios, last = [], [], [], None
    try:
        while attempted < 50 and (attempted == 2 or (
                time.perf_counter() - started + ref_timing["run_s"]
                <= seconds)):
            attempted += 1
            try:
                m, layer, g, r, problems = _traced_run(mods, cfg, tracer,
                                                       ref.final_checksum)
            except layers.ClockError:
                raise
            except Exception:
                failed += 1
                log("traced run raised: " + _last_line())
                continue
            if problems:
                failed += 1
                log("traced run failed: " + "; ".join(problems))
            per_run.append(layer)
            gaps.extend(g)
            ratios.extend(r)
            last = m
    finally:
        tracer.restore()
    if not per_run:
        return {}, attempted, failed

    metrics = {k: statistics.median(r[k] for r in per_run)
               for k in per_run[0]}
    small, problems = _cli_and_bound_timings(mods, cfg, last)
    metrics.update(small)
    if problems:
        failed += 1
        log("cli/bounds check failed: " + "; ".join(problems))
    metrics["trace.overhead_s"] = (statistics.median(gaps)
                                   - statistics.median(ref_timing["gaps"]))
    if ratios:
        log(f"channel.agg_err_ratio over {len(ratios)} iterations: "
            f"min {min(ratios):.4f}, median {statistics.median(ratios):.4f}, "
            f"max {max(ratios):.4f}")
    return metrics, attempted, failed


def _cli_and_bound_timings(mods, cfg, m):
    """Time cli config parsing, CSV output and the bound trajectory."""
    cli, bounds = mods["cli"], mods["bounds"]
    out, problems = {}, []
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as work:
        run_cfg = os.path.join(work, "run.cfg")
        with open(run_cfg, "w", encoding="utf-8") as fh:
            for key, val in cfg.as_dict().items():
                if val is not None:
                    fh.write(f"{key} = {val}\n")
        bound_cfg = os.path.join(work, "bound.cfg")
        with open(bound_cfg, "w", encoding="utf-8") as fh:
            fh.write(BOUND_I5)
        t0 = time.perf_counter()
        parsed = cli.parse_config(run_cfg)
        bp = cli.parse_config(bound_cfg)
        out["cli.parse_config.s"] = time.perf_counter() - t0
        if parsed != cfg:
            problems.append("cli.parse_config did not round-trip the config")
        csv = os.path.join(work, "run.csv")
        t0 = time.perf_counter()
        m.to_csv(csv)
        out["cli.write_csv.s"] = time.perf_counter() - t0
        with open(csv, encoding="utf-8") as fh:
            if sum(1 for _ in fh) != cfg.T + 1:
                problems.append("run CSV does not have T rows")
    t0 = time.perf_counter()
    traj = bounds.bound_trajectory(bp)
    out["bounds.bound_trajectory.s"] = time.perf_counter() - t0
    if traj.shape != (bp.T,) or not np.isfinite(traj).all():
        problems.append("bound trajectory is not finite")
    return out, problems


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    def log(msg):
        print(f"# {msg}", flush=True)

    try:
        mods = _import_airfed()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    cfg = mods["protocol"].ScenarioConfig(
        **PAPER, **WORKLOADS[args.workload], seed=args.seed)
    cfg.validate()
    log("env " + json.dumps(_environment(mods, args.seed, args.workload)))

    try:
        if args.trace:
            metrics, attempted, failed = trace(mods, cfg, args.seconds, log)
            units = PER_LAYER_UNITS
        else:
            metrics, attempted, failed = measure(mods, cfg, args.seconds, log)
            units = END_TO_END_UNITS
    except layers.ClockError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    out = {k: {"value": v, "unit": units.get(k, "s")}
           for k, v in metrics.items()}
    for k, v in out.items():
        log(f"{k} = {v['value']:.6g} {v['unit']}")
    log(f"failed_share = {failed / attempted:.6g} ratio "
        f"({failed} of {attempted} runs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
