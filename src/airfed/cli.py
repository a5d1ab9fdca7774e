"""Experiment harness: config files, scenario/bound runs, manifests, summaries.

Config files are flat ``key = value`` text with ``#`` comments.  A file with
a ``scenario`` key describes a simulation run; otherwise it describes a
bound sweep.  Unknown keys are hard errors.  Every ``run``/``bound``
invocation writes a manifest.json next to its outputs; passing that
manifest back as --config reproduces the outputs byte for byte.
"""

import argparse
import json
import os
import sys
import time
import typing
from dataclasses import replace

import numpy as np

from . import __version__, bounds, protocol, topology

SCENARIO_ALIASES = {
    "ideal": "ideal_hier", "ideal_hier": "ideal_hier",
    "hotafl": "hotafl",
    "flat": "flat_ota", "flat_ota": "flat_ota",
}


def _field_type(hint):
    """str, int or float of a ScenarioConfig annotation, Optional unwrapped."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    return args[0] if typing.get_origin(hint) is typing.Union else hint


_SCENARIO_FIELDS = {name: _field_type(hint) for name, hint in
                    typing.get_type_hints(protocol.ScenarioConfig).items()}

_BOUND_REQUIRED = ("L", "mu", "G2", "Gamma", "init_dist", "N", "tau", "I",
                   "T", "M", "C", "K", "sigma_z2", "sigma_h2", "beta",
                   "lr_base")
_BOUND_OPTIONAL = ("lr_slope", "power_base", "power_slope", "label")
_BOUND_INT = {"N", "tau", "I", "T", "M", "C", "K"}


class ConfigError(ValueError):
    pass


def _read_kv(path):
    """Ordered {key: (raw value, line number)} from a key=value file."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                                  f"got {raw.strip()!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key in out:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = (val, lineno)
    return out


def _scenario_from_dict(kv, path="<config>"):
    args = {}
    for key, item in kv.items():
        val, lineno = item if isinstance(item, tuple) else (item, 0)
        where = f"{path}:{lineno}"
        if key not in _SCENARIO_FIELDS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if val is None:                # optional field from a manifest
            args[key] = None
            continue
        kind = _SCENARIO_FIELDS[key]
        try:
            if kind is int and isinstance(val, float) \
                    and not val.is_integer():
                raise ValueError(val)     # int() would truncate it
            args[key] = kind(val)
        except (TypeError, ValueError):
            raise ConfigError(f"{where}: bad value for {key!r}: {val!r}")
    if "scenario" in args:
        args["scenario"] = SCENARIO_ALIASES.get(args["scenario"],
                                                args["scenario"])
    try:
        return protocol.ScenarioConfig(**args).validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}")


def _bound_from_dict(kv, path="<config>"):
    args = {}
    for key, item in kv.items():
        val, lineno = item if isinstance(item, tuple) else (item, 0)
        where = f"{path}:{lineno}"
        if key == "betas":           # manifest round trip: explicit matrix
            args["betas"] = np.asarray(val, dtype=np.float64)
            continue
        if key not in _BOUND_REQUIRED and key not in _BOUND_OPTIONAL:
            raise ConfigError(f"{where}: unknown key {key!r}")
        try:
            if key == "label":
                args[key] = str(val)
            elif key in _BOUND_INT:
                args[key] = int(val)
            else:
                args[key] = float(val)
        except (TypeError, ValueError):
            raise ConfigError(f"{where}: bad value for {key!r}: {val!r}")
    missing = [k for k in _BOUND_REQUIRED if k not in args
               and not (k in ("beta", "M", "C") and "betas" in args)]
    if missing:
        raise ConfigError(f"{path}: missing required keys {missing}")
    if "betas" not in args:
        beta = args.pop("beta")
        if beta <= 0:
            raise ConfigError(f"{path}: beta must be positive")
        args["betas"] = np.full((args["C"], args["M"]), beta)
    else:
        args.pop("beta", None)
    args.pop("M", None)
    args.pop("C", None)
    try:
        return bounds.BoundParams(**args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}")


def parse_config(path):
    """ScenarioConfig or BoundParams from a key=value file or a manifest."""
    if path.endswith(".json"):
        raise ConfigError(f"{path}: manifests are handled by the run/bound "
                          "commands directly")
    kv = _read_kv(path)
    if "scenario" in kv:
        return _scenario_from_dict(kv, path)
    return _bound_from_dict(kv, path)


def _bound_params_dict(p: bounds.BoundParams):
    return {"L": p.L, "mu": p.mu, "G2": p.G2, "Gamma": p.Gamma,
            "init_dist": p.init_dist, "N": p.N, "tau": p.tau, "I": p.I,
            "T": p.T, "K": p.K, "sigma_z2": p.sigma_z2,
            "sigma_h2": p.sigma_h2, "betas": p.betas.tolist(),
            "lr_base": p.lr_base, "lr_slope": p.lr_slope,
            "power_base": p.power_base, "power_slope": p.power_slope,
            "label": p.label}


def _write_manifest(out_dir, payload):
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _load_manifest(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def summarize(csv_paths, out_path):
    """Per-scenario final-accuracy stats plus the scenario-ordering flag."""
    if not csv_paths:
        raise ConfigError("summarize needs at least one input CSV")
    finals = {}
    for path in csv_paths:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            try:
                si = header.index("scenario")
                ai = header.index("test_acc")
            except ValueError:
                raise ConfigError(f"{path}: missing scenario/test_acc columns")
            last = None
            for line in fh:
                if line.strip():
                    last = line.strip().split(",")
            if last is None:
                raise ConfigError(f"{path}: no data rows")
            finals.setdefault(last[si], []).append(float(last[ai]))

    means = {s: float(np.mean(v)) for s, v in finals.items()}
    chain = [s for s in ("ideal_hier", "hotafl", "flat_ota") if s in means]
    ordering_ok = all(means[chain[i]] >= means[chain[i + 1]]
                      for i in range(len(chain) - 1))
    order = {"ideal_hier": 0, "hotafl": 1, "flat_ota": 2}
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("scenario,n_seeds,mean_final_acc,min_final_acc,"
                 "max_final_acc,ordering_ok\n")
        for s in sorted(finals, key=lambda x: (order.get(x, 99), x)):
            v = finals[s]
            fh.write("%s,%d,%.10g,%.10g,%.10g,%s\n" % (
                s, len(v), means[s], min(v), max(v),
                "true" if ordering_ok else "false"))


def _cmd_run(args):
    start = time.time()
    os.makedirs(args.out, exist_ok=True)
    if args.config.endswith(".json"):
        man = _load_manifest(args.config)
        if man.get("kind") != "run":
            raise ConfigError(f"{args.config}: not a run manifest")
        cfg = _scenario_from_dict(man["config"], args.config)
        seeds = man["seeds"] if args.seeds is None else \
            [cfg.seed + k for k in range(args.seeds)]
        scenarios = man["scenarios"] if args.scenarios is None else \
            _parse_scenarios(args.scenarios)
    else:
        cfg = parse_config(args.config)
        if not isinstance(cfg, protocol.ScenarioConfig):
            raise ConfigError(f"{args.config}: not a scenario config "
                              "(use the bound command)")
        seeds = [cfg.seed + k for k in range(args.seeds or 1)]
        scenarios = _parse_scenarios(args.scenarios or "ideal,hotafl,flat")

    outputs = []
    run_csvs = []
    for seed in seeds:
        for scen in scenarios:
            run_cfg = replace(cfg, scenario=scen, seed=seed)
            metrics = protocol.run_scenario(run_cfg)
            name = f"{scen}_seed{seed}.csv"
            metrics.to_csv(os.path.join(args.out, name))
            outputs.append(name)
            run_csvs.append(os.path.join(args.out, name))
    if len(run_csvs) > 1:
        summarize(run_csvs, os.path.join(args.out, "summary.csv"))
        outputs.append("summary.csv")

    _write_manifest(args.out, {
        "kind": "run", "tool_version": __version__, "seed": seeds[0],
        "seeds": seeds, "scenarios": scenarios, "config": cfg.as_dict(),
        "outputs": outputs, "runtime_seconds": round(time.time() - start, 3)})
    return 0


def _cmd_bound(args):
    start = time.time()
    os.makedirs(args.out, exist_ok=True)
    if args.config.endswith(".json"):
        man = _load_manifest(args.config)
        if man.get("kind") != "bound":
            raise ConfigError(f"{args.config}: not a bound manifest")
        params = _bound_from_dict(man["config"], args.config)
    else:
        params = parse_config(args.config)
        if not isinstance(params, bounds.BoundParams):
            raise ConfigError(f"{args.config}: not a bound config "
                              "(use the run command)")
    name = f"{params.label or 'bound'}.csv"
    bounds.bound_to_csv(params, os.path.join(args.out, name))
    _write_manifest(args.out, {
        "kind": "bound", "tool_version": __version__, "seed": 0,
        "config": _bound_params_dict(params), "outputs": [name],
        "runtime_seconds": round(time.time() - start, 3)})
    return 0


def _cmd_summarize(args):
    summarize(args.csvs, args.out)
    return 0


def _parse_scenarios(arg):
    if isinstance(arg, (list, tuple)):
        names = list(arg)
    else:
        names = [s.strip() for s in arg.split(",") if s.strip()]
    out = []
    for n in names:
        if n not in SCENARIO_ALIASES:
            raise ConfigError(f"unknown scenario {n!r} (choose from "
                              f"{sorted(set(SCENARIO_ALIASES))})")
        out.append(SCENARIO_ALIASES[n])
    if not out:
        raise ConfigError("empty scenario list")
    return out


def build_parser():
    ap = argparse.ArgumentParser(
        prog="airfed",
        description="Hierarchical over-the-air FL simulator and bound toolkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run simulation scenarios")
    run.add_argument("--config", required=True,
                     help="scenario config file or a run manifest.json")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seeds", type=int, default=None,
                     help="number of seeds (base seed from the config)")
    run.add_argument("--scenarios", default=None,
                     help="comma list from ideal,hotafl,flat")
    run.set_defaults(func=_cmd_run)

    bnd = sub.add_parser("bound", help="evaluate a convergence-bound sweep")
    bnd.add_argument("--config", required=True)
    bnd.add_argument("--out", required=True)
    bnd.set_defaults(func=_cmd_bound)

    summ = sub.add_parser("summarize", help="aggregate run CSVs")
    summ.add_argument("csvs", nargs="+")
    summ.add_argument("--out", required=True)
    summ.set_defaults(func=_cmd_summarize)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError,
            topology.PlacementError) as exc:
        print(f"airfed: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
