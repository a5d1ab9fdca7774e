"""Experiment harness: config files, scenario/bound runs, manifests, summaries.

Config files are flat ``key = value`` text with ``#`` comments.  A file with
a ``scenario`` key describes a simulation run; otherwise it describes a
bound sweep.  The keys, their types and which of them are required come
from the ``ScenarioConfig`` and ``BoundParams`` dataclasses; unknown keys
are hard errors.  Every ``run``/``bound`` invocation writes a manifest.json
next to its outputs; passing that manifest back as --config reproduces the
outputs byte for byte under the same ``tool_version``.  ``_load_config`` is
the one reader of config files and manifests, ``_write_manifest`` the one
manifest writer.
"""

import argparse
import json
import os
import sys
import time
import typing
from dataclasses import MISSING, fields, replace

import numpy as np

from . import __version__, bounds, protocol

SCENARIO_ALIASES = {
    "ideal": "ideal_hier", "ideal_hier": "ideal_hier",
    "hotafl": "hotafl",
    "flat": "flat_ota", "flat_ota": "flat_ota",
}


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


def _typed(hint, key, item, path):
    """A (value, line) item as the type of its dataclass annotation.

    Optional is unwrapped (None stays None), np.ndarray means a 2-D float64
    array, a number or array entry is never a JSON boolean, and an int takes
    only integral values (int() would truncate).
    """
    val, lineno = item
    if typing.get_origin(hint) is typing.Union:
        if val is None:
            return None
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    try:
        if hint is np.ndarray:
            arr = np.asarray(val, dtype=np.float64)
            entries = np.asarray(val, dtype=object).ravel()
            if arr.ndim == 2 and not any(isinstance(v, bool) for v in entries):
                return arr
        elif not (val is None
                  or hint in (int, float) and isinstance(val, bool)
                  or hint is int and isinstance(val, float)
                  and not val.is_integer()):
            return hint(val)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {val!r}")


def _from_fields(cls, kv, path):
    """A cls instance from {key: (value, line)}, keyed by cls's init fields."""
    hints = typing.get_type_hints(cls)
    init = {f.name: f for f in fields(cls) if f.init}
    args = {}
    for key, item in kv.items():
        if key not in init:
            raise ConfigError(f"{path}:{item[1]}: unknown key {key!r}")
        args[key] = _typed(hints[key], key, item, path)
    missing = [name for name, f in init.items() if name not in args
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{path}: missing required keys {missing}")
    try:
        return cls(**args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}")


def _scenario_from_dict(kv, path):
    """ScenarioConfig with scenario aliases resolved."""
    if "scenario" in kv:
        name, lineno = kv["scenario"]
        kv = {**kv, "scenario": (SCENARIO_ALIASES.get(str(name), name),
                                 lineno)}
    return _from_fields(protocol.ScenarioConfig, kv, path)


def _bound_from_dict(kv, path):
    """BoundParams; beta, C and M together stand for a C x M betas of beta."""
    short = [k for k in ("beta", "C", "M") if k in kv]
    if short:
        if "betas" in kv:
            raise ConfigError(f"{path}:{kv['betas'][1]}: betas cannot be "
                              f"combined with {short}")
        missing = [k for k in ("beta", "C", "M") if k not in kv]
        if missing:
            raise ConfigError(f"{path}: missing required keys {missing}")
        beta = _typed(float, "beta", kv["beta"], path)
        C = _typed(int, "C", kv["C"], path)
        M = _typed(int, "M", kv["M"], path)
        if beta <= 0 or C < 1 or M < 1:
            raise ConfigError(f"{path}: beta, C and M must be positive")
        betas = (np.full((C, M), beta), kv["beta"][1])
        kv = {k: v for k, v in kv.items() if k not in short}
        kv["betas"] = betas
    return _from_fields(bounds.BoundParams, kv, path)


def _load_config(path, command=None):
    """(config, manifest or None) from a key=value file or a manifest.json.

    A file with a ``scenario`` key is a run config, any other a bound
    config.  With command ("run" or "bound") a config of the other kind is
    refused and a manifest.json written by that command is read as well.
    """
    if not path.endswith(".json"):
        kv, man = _read_kv(path), None
        kind = "run" if "scenario" in kv else "bound"
        if command not in (None, kind):
            raise ConfigError(f"{path}: not a {command} config")
    elif command is None:
        raise ConfigError(f"{path}: manifests are handled by the run/bound "
                          "commands directly")
    else:
        with open(path, encoding="utf-8") as fh:
            man = json.load(fh)
        if not (isinstance(man, dict) and man.get("kind") == command
                and isinstance(man.get("config"), dict)):
            raise ConfigError(f"{path}: not a {command} manifest")
        kv = {key: (val, 0) for key, val in man["config"].items()}
        kind = command
    from_dict = _scenario_from_dict if kind == "run" else _bound_from_dict
    return from_dict(kv, path), man


def parse_config(path):
    """ScenarioConfig or BoundParams from a key=value file."""
    return _load_config(path)[0]


def _write_manifest(out_dir, kind, cfg, outputs, start, **runs):
    """manifest.json: cfg's init fields, outputs, runtime since start and,
    for a run, its seeds and scenarios."""
    config = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.init}
    payload = {"kind": kind, "tool_version": __version__, "config": config,
               "outputs": outputs,
               "runtime_seconds": round(time.time() - start, 3), **runs}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        # a bound's betas array is written as nested lists
        json.dump(payload, fh, indent=2, sort_keys=True,
                  default=np.ndarray.tolist)
        fh.write("\n")


def summarize(csv_paths, out_path):
    """Per-scenario final-accuracy stats plus the scenario-ordering flag."""
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
            if len(last) != len(header):
                raise ConfigError(f"{path}: last row has {len(last)} "
                                  f"fields, header has {len(header)}")
            try:
                acc = float(last[ai])
            except ValueError:
                raise ConfigError(f"{path}: last row's test_acc "
                                  f"{last[ai]!r} is not a number")
            if not np.isfinite(acc):
                raise ConfigError(f"{path}: last row's test_acc "
                                  f"{last[ai]!r} is not finite")
            finals.setdefault(last[si], []).append(acc)

    means = {s: float(np.mean(v)) for s, v in finals.items()}
    chain = [s for s in protocol.SCENARIOS if s in means]
    ordering_ok = all(means[chain[i]] >= means[chain[i + 1]]
                      for i in range(len(chain) - 1))
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("scenario,n_seeds,mean_final_acc,min_final_acc,"
                 "max_final_acc,ordering_ok\n")
        for s in chain + sorted(set(finals) - set(chain)):
            v = finals[s]
            fh.write("%s,%d,%.10g,%.10g,%.10g,%s\n" % (
                s, len(v), means[s], min(v), max(v),
                "true" if ordering_ok else "false"))


def _cmd_run(args):
    start = time.time()
    if args.seeds is not None and args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    cfg, man = _load_config(args.config, "run")
    man = man or {}
    seeds = [cfg.seed + k for k in range(args.seeds)] \
        if args.seeds is not None else man.get("seeds", [cfg.seed])
    if not (isinstance(seeds, list) and seeds
            and all(type(s) is int and s >= 0 for s in seeds)):
        raise ConfigError(f"{args.config}: seeds must be a non-empty list "
                          f"of nonnegative integers, got {seeds!r}")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{args.config}: seeds must not repeat, "
                          f"got {seeds!r}")
    scenarios = _parse_scenarios(
        args.scenarios or man.get("scenarios", protocol.SCENARIOS),
        "" if args.scenarios else f"{args.config}: ")
    try:
        runs = [replace(cfg, scenario=scen, seed=seed)
                for seed in seeds for scen in scenarios]
    except ValueError as exc:
        raise ConfigError(f"{args.config}: {exc}")
    os.makedirs(args.out, exist_ok=True)

    outputs = []
    run_csvs = []
    for run_cfg in runs:
        try:
            metrics = protocol.run_scenario(run_cfg)
        except ValueError as exc:
            raise ConfigError(f"{args.config}: {run_cfg.scenario} seed "
                              f"{run_cfg.seed}: {exc}")
        name = f"{run_cfg.scenario}_seed{run_cfg.seed}.csv"
        metrics.to_csv(os.path.join(args.out, name))
        outputs.append(name)
        run_csvs.append(os.path.join(args.out, name))
    if len(run_csvs) > 1:
        summarize(run_csvs, os.path.join(args.out, "summary.csv"))
        outputs.append("summary.csv")

    _write_manifest(args.out, "run", cfg, outputs, start, seeds=seeds,
                    scenarios=scenarios)
    return 0


def _cmd_bound(args):
    start = time.time()
    params, _ = _load_config(args.config, "bound")
    os.makedirs(args.out, exist_ok=True)
    name = f"{params.label or 'bound'}.csv"
    bounds.bound_to_csv(params, os.path.join(args.out, name))
    _write_manifest(args.out, "bound", params, [name], start)
    return 0


def _cmd_summarize(args):
    summarize(args.csvs, args.out)
    return 0


def _parse_scenarios(arg, where=""):
    """Canonical names from a comma string or a list; where prefixes errors."""
    if isinstance(arg, str):
        arg = [s.strip() for s in arg.split(",") if s.strip()]
    if not isinstance(arg, (list, tuple)):
        raise ConfigError(f"{where}scenarios must be a list or a comma "
                          f"string of names, got {arg!r}")
    out = []
    for n in arg:
        if not isinstance(n, str) or n not in SCENARIO_ALIASES:
            raise ConfigError(f"{where}unknown scenario {n!r} (choose from "
                              f"{sorted(set(SCENARIO_ALIASES))})")
        if SCENARIO_ALIASES[n] in out:
            raise ConfigError(f"{where}scenarios name "
                              f"{SCENARIO_ALIASES[n]!r} twice")
        out.append(SCENARIO_ALIASES[n])
    if not out:
        raise ConfigError(f"{where}empty scenario list")
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
    except (OSError, ValueError, MemoryError) as exc:
        print(f"airfed: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
