"""Experiment harness: config files, scenario/bound runs, manifests, summaries.

Config files are flat ``key = value`` text with ``#`` comments.  A file with
a ``scenario`` key describes a simulation run; otherwise it describes a
bound sweep.  The keys, their types and which of them are required come
from the ``ScenarioConfig`` and ``BoundParams`` dataclasses; unknown keys
are hard errors.  Every ``run``/``bound`` invocation writes a manifest.json
next to its outputs; passing that manifest back as --config reproduces the
outputs byte for byte under the same ``tool_version``.  ``_read`` reads
all input text, ``_load_config`` parses config files and manifests, and
``_write_manifest`` writes manifests.
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

SCENARIO_ALIASES = {**{s: s for s in protocol.SCENARIOS},
                    "ideal": "ideal_hier", "flat": "flat_ota"}


class ConfigError(ValueError):
    pass


def _read(path, parse=str):
    """parse of the UTF-8 text, a leading BOM dropped, of a config, manifest
    or CSV file; text that does not decode or parse fails naming path."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return parse(fh.read())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}")


def _read_kv(path):
    """Ordered {key: (raw value, "path:line")} from a key=value file."""
    out = {}
    for lineno, raw in enumerate(_read(path).split("\n"), 1):
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
        out[key] = (val, f"{path}:{lineno}")
    return out


def _typed(hint, key, item):
    """A (value, where) item's value, text read by its field's annotation
    hint: a number for an int or float field (Optional unwrapped), a bad
    value for betas, text for any other.  A value that is not text, such as
    a manifest's JSON number, passes as it is, for the config to check."""
    val, where = item
    if typing.get_origin(hint) is typing.Union:     # Optional[X]
        hint = typing.get_args(hint)[0]
    if not isinstance(val, str) or hint not in (int, float, np.ndarray):
        return val
    try:
        if hint is not np.ndarray:
            return hint(val)
    except ValueError:
        pass
    raise ConfigError(f"{where}: bad value for {key!r}: {val!r}")


def _from_fields(cls, kv, path):
    """A cls instance from {key: (value, where)}, keyed by cls's fields."""
    known = {f.name: f for f in fields(cls)}
    args = {}
    for key, item in kv.items():
        if key not in known:
            raise ConfigError(f"{item[1]}: unknown key {key!r}")
        args[key] = _typed(known[key].type, key, item)
    missing = [name for name, f in known.items() if name not in args
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
        name, where = kv["scenario"]
        kv = {**kv, "scenario": (SCENARIO_ALIASES.get(str(name), name),
                                 where)}
    return _from_fields(protocol.ScenarioConfig, kv, path)


def _bound_from_dict(kv, path):
    """BoundParams; beta, C and M together stand for a C x M betas of beta."""
    short = [k for k in ("beta", "C", "M") if k in kv]
    if short:
        if "betas" in kv:
            raise ConfigError(f"{kv['betas'][1]}: betas cannot be combined "
                              f"with {short}")
        missing = [k for k in ("beta", "C", "M") if k not in kv]
        if missing:
            raise ConfigError(f"{path}: missing required keys {missing}")
        beta, C, M = (_typed(hint, k, kv[k]) for k, hint in
                      (("beta", float), ("C", int), ("M", int)))
        # BoundParams checks beta in every entry; [x] * True would be [x]
        if not all(type(n) is int and n >= 1 for n in (C, M)):
            raise ConfigError(f"{path}: C and M must be positive integers, "
                              f"got {C!r} and {M!r}")
        kv = {**{k: v for k, v in kv.items() if k not in short},
              "betas": ([[beta] * M] * C, kv["beta"][1])}
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
        man = _read(path, json.loads)
        if not (isinstance(man, dict) and man.get("kind") == command
                and isinstance(man.get("config"), dict)):
            raise ConfigError(f"{path}: not a {command} manifest")
        kv = {key: (val, path) for key, val in man["config"].items()}
        kind = command
    from_dict = _scenario_from_dict if kind == "run" else _bound_from_dict
    return from_dict(kv, path), man


def parse_config(path):
    """ScenarioConfig or BoundParams from a key=value file."""
    return _load_config(path)[0]


def _write_manifest(out_dir, kind, cfg, outputs, start, **runs):
    """manifest.json: cfg, outputs, runtime and a run's seeds and scenarios."""
    config = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    payload = {"kind": kind, "tool_version": __version__, "config": config,
               "outputs": outputs,
               "runtime_seconds": round(time.time() - start, 3), **runs}
    # a bound's betas array is written as nested lists
    protocol.write_text(os.path.join(out_dir, "manifest.json"), json.dumps(
        payload, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n")


def summarize(csv_paths, out_path):
    """Per-scenario final-accuracy stats plus the scenario-ordering flag."""
    finals = {}
    for path in csv_paths:
        header, *rows = _read(path).split("\n")
        header = header.strip().split(",")
        try:
            si = header.index("scenario")
            ai = header.index("test_acc")
        except ValueError:
            raise ConfigError(f"{path}: missing scenario/test_acc columns")
        rows = [row.strip() for row in rows if row.strip()]
        if not rows:
            raise ConfigError(f"{path}: no data rows")
        last = rows[-1].split(",")
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
    flag = "true" if ordering_ok else "false"
    protocol.write_csv(
        out_path, "scenario,n_seeds,mean_final_acc,min_final_acc,"
        "max_final_acc,ordering_ok",
        [(s, len(finals[s]), means[s], min(finals[s]), max(finals[s]), flag)
         for s in chain + sorted(set(finals) - set(chain))])


def _cmd_run(args):
    start = time.time()
    if args.seeds is not None and args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    cfg, man = _load_config(args.config, "run")
    man = man or {}
    seeds = [cfg.seed + k for k in range(args.seeds)] \
        if args.seeds is not None else man.get("seeds", [cfg.seed])
    scenarios = [s.strip() for s in args.scenarios.split(",") if s.strip()] \
        if args.scenarios is not None \
        else man.get("scenarios", list(protocol.SCENARIOS))
    for key, value in (("seeds", seeds), ("scenarios", scenarios)):
        if not (isinstance(value, list) and value):
            raise ConfigError(f"{args.config}: {key} must be a non-empty "
                              f"list, got {value!r}")
    # the configs judge each seed and name; a name is looked up by its text,
    # so that an unhashable entry such as [1] reaches their check
    scenarios = [SCENARIO_ALIASES.get(str(s), s) for s in scenarios]
    try:
        runs = [replace(cfg, seed=seed, scenario=s)
                for seed in seeds for s in scenarios]
    except ValueError as exc:
        raise ConfigError(f"{args.config}: {exc}")
    keys = [(r.scenario, r.seed) for r in runs]
    for i, (scenario, seed) in enumerate(keys):
        if (scenario, seed) in keys[:i]:
            raise ConfigError(f"{args.config}: the run list names "
                              f"{scenario} seed {seed} twice")
    os.makedirs(args.out, exist_ok=True)

    outputs = []
    for run_cfg in runs:
        try:
            metrics = protocol.run_scenario(run_cfg)
        except ValueError as exc:
            raise ConfigError(f"{args.config}: {run_cfg.scenario} seed "
                              f"{run_cfg.seed}: {exc}")
        name = f"{run_cfg.scenario}_seed{run_cfg.seed}.csv"
        metrics.to_csv(os.path.join(args.out, name))
        outputs.append(name)
    if len(outputs) > 1:
        summarize([os.path.join(args.out, name) for name in outputs],
                  os.path.join(args.out, "summary.csv"))
        outputs.append("summary.csv")

    _write_manifest(args.out, "run", cfg, outputs, start, seeds=seeds,
                    scenarios=scenarios)
    return 0


def _cmd_bound(args):
    start = time.time()
    params, _ = _load_config(args.config, "bound")
    label = params.label or "bound"
    try:
        traj = bounds.bound_trajectory(params)
    except ValueError as exc:
        raise ConfigError(f"{args.config}: {exc}")
    os.makedirs(args.out, exist_ok=True)
    protocol.write_csv(os.path.join(args.out, f"{label}.csv"),
                       "t,bound_value,config_label",
                       [(t, v, label) for t, v in enumerate(traj, 1)])
    _write_manifest(args.out, "bound", params, [f"{label}.csv"], start)
    return 0


def _cmd_summarize(args):
    summarize(args.csvs, args.out)
    return 0


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
