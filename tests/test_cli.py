import dataclasses
import hashlib
import json
import os
import re
import warnings
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from airfed import bounds, cli, learner, protocol
from test_learner import _write_idx

SMOKE = """\
scenario = hotafl
C = 2
M = 2
K = 8
T = 4
sigma_z2 = 1
dataset = synthetic
feature_dim = 9
num_classes = 4
train_samples = 300
test_samples = 60
batch_size = 20
seed = 5
"""


BOUND = """\
L = 10
mu = 1
G2 = 1
Gamma = 1
init_dist = 1000
N = 3925
tau = 1
I = 1
T = 20
M = 5
C = 4
K = 100
beta = 3
sigma_z2 = 10
sigma_h2 = 1
lr_base = 0.05
label = b
"""


def _write(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_minimal_scenario_config(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, "scenario = hotafl\n"))
    assert isinstance(cfg, protocol.ScenarioConfig)
    assert cfg.C == 4 and cfg.M == 5 and cfg.K == 100
    assert cfg.T == 200 and cfg.batch_size == 500


def test_parse_rejects_bad_tau(tmp_path):
    with pytest.raises(cli.ConfigError, match="tau"):
        cli.parse_config(_write(tmp_path, "scenario = hotafl\ntau = 0\n"))
    # each error names its key
    for line in ("seed = -1", "data_seed = -3", "path_loss_exp = -2",
                 "sigma_z2 = nan", "power_base = nan", "lr_base = nan",
                 "lr_slope = nan", "l2_reg = nan", "sigma_h2 = inf",
                 "alpha_tolerance = nan"):
        key = line.split(" ")[0]
        with pytest.raises(cli.ConfigError, match=rf"cfg.txt: {key} must"):
            cli.parse_config(_write(tmp_path, f"scenario = hotafl\n{line}\n"))


def test_parse_rejects_unknown_key_with_line(tmp_path):
    path = _write(tmp_path, "scenario = hotafl\nwhatever = 3\n")
    with pytest.raises(cli.ConfigError, match=r"cfg.txt:2.*whatever"):
        cli.parse_config(path)


def test_parse_field_types_follow_scenario_config(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, "scenario = hotafl\n"
                                  "data_seed = 3\nsigma_z2 = 2\n"))
    assert cfg.data_seed == 3 and type(cfg.data_seed) is int
    assert cfg.sigma_z2 == 2.0 and type(cfg.sigma_z2) is float
    path = _write(tmp_path, "scenario = hotafl\ndata_seed = 3.5\n")
    with pytest.raises(cli.ConfigError, match=r"cfg.txt:2.*data_seed"):
        cli.parse_config(path)


def test_parse_rejects_malformed_and_duplicate_lines(tmp_path):
    with pytest.raises(cli.ConfigError, match="key = value"):
        cli.parse_config(_write(tmp_path, "scenario hotafl\n"))
    with pytest.raises(cli.ConfigError, match="duplicate"):
        cli.parse_config(_write(tmp_path, "scenario = hotafl\nC = 1\nC = 2\n"))
    with pytest.raises(cli.ConfigError, match="manifests are handled by the "
                       "run/bound commands directly$"):
        cli.parse_config(_write(tmp_path, "{}", "manifest.json"))


def test_parse_reference_config():
    here = os.path.join(os.path.dirname(__file__), "..", "configs")
    cfg = cli.parse_config(os.path.join(here, "mnist_iid_hotafl.cfg"))
    assert (cfg.C, cfg.M, cfg.K, cfg.T) == (4, 5, 100, 200)
    assert cfg.batch_size == 500
    assert cfg.sigma_h2 == 1.0 and cfg.sigma_z2 == 10.0
    assert cfg.path_loss_exp == 4.0
    assert cfg.power_base == 1.0 and cfg.power_slope == 0.01
    assert cfg.flat_power_base == 1.5
    assert cfg.lr_base == 0.05 and cfg.lr_slope == 2e-5
    assert cfg.dataset == "mnist" and cfg.partition == "iid"


def test_parse_bound_config():
    here = os.path.join(os.path.dirname(__file__), "..", "configs")
    p = cli.parse_config(os.path.join(here, "bound_fig4_hotafl.cfg"))
    assert isinstance(p, bounds.BoundParams)
    assert (p.C, p.M, p.K, p.T, p.N) == (4, 5, 100, 200, 3925)
    assert np.all(p.betas == 3.0)
    assert p.label == "hotafl_bound"


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).parent.parent / "configs").glob("*.cfg")),
    ids=lambda path: path.stem)
def test_committed_config_parses(path):
    # the bound parameter sets are the bound_* files, the rest run configs
    want = (bounds.BoundParams if path.stem.startswith("bound_")
            else protocol.ScenarioConfig)
    assert type(cli.parse_config(str(path))) is want


def test_byte_order_mark_is_dropped(tmp_path):
    # a UTF-8 byte-order mark is not part of the first key or line of a
    # run config, a bound config or a manifest
    bom = b"\xef\xbb\xbf"
    plain = _write(tmp_path, SMOKE)
    marked = tmp_path / "bom.cfg"
    marked.write_bytes(bom + SMOKE.encode())
    assert cli.parse_config(str(marked)) == cli.parse_config(plain)
    out = str(tmp_path / "o")
    assert cli.main(["run", "--config", str(marked), "--out", out]) == 0
    committed = Path(__file__).parent.parent / "configs/bound_fig4_hotafl.cfg"
    marked = tmp_path / "bomb.cfg"
    marked.write_bytes(bom + committed.read_bytes())
    assert np.array_equal(
        bounds.bound_trajectory(cli.parse_config(str(marked))),
        bounds.bound_trajectory(cli.parse_config(str(committed))))
    manifest = Path(out) / "manifest.json"
    marked = tmp_path / "bom.json"
    marked.write_bytes(bom + manifest.read_bytes())
    assert cli._load_config(str(marked), "run") == \
        cli._load_config(str(manifest), "run")


def test_parse_bound_missing_key(tmp_path):
    with pytest.raises(cli.ConfigError, match="missing required"):
        cli.parse_config(_write(tmp_path, "L = 1\nmu = 0.5\n"))
    with pytest.raises(cli.ConfigError, match=r"missing required keys \['M'\]"):
        cli.parse_config(_write(tmp_path, BOUND.replace("M = 5\n", "")))


def test_parse_bound_rejects_bad_values(tmp_path):
    # betas cannot be written in a text file, nor mixed with beta/C/M
    text = BOUND.replace("beta = 3", "betas = 3")
    with pytest.raises(cli.ConfigError, match=r"cfg.txt:13: .*betas"):
        cli.parse_config(_write(tmp_path, text))
    text = text.replace("M = 5\nC = 4\n", "")
    with pytest.raises(cli.ConfigError, match=r"cfg.txt:11: bad value.*betas"):
        cli.parse_config(_write(tmp_path, text))
    with pytest.raises(cli.ConfigError, match=r"cfg.txt:6: bad value.*'N'"):
        cli.parse_config(_write(tmp_path, BOUND.replace("N = 3925",
                                                        "N = 3925.7")))
    # non-finite floats are rejected, naming the key
    for old, new in (("G2 = 1", "G2 = nan"), ("init_dist = 1000",
                                               "init_dist = inf"),
                     ("sigma_z2 = 10", "sigma_z2 = inf"),
                     ("lr_base = 0.05", "lr_base = nan")):
        key = new.split(" ")[0]
        with pytest.raises(cli.ConfigError, match=rf"cfg.txt: {key} must"):
            cli.parse_config(_write(tmp_path, BOUND.replace(old, new)))
    with pytest.raises(cli.ConfigError, match=r"cfg.txt: betas must"):
        cli.parse_config(_write(tmp_path, BOUND.replace("beta = 3",
                                                        "beta = inf")))
    with pytest.raises(cli.ConfigError, match=r"cfg.txt: C and M must be "
                       r"positive integers, got -1 and 5$"):
        cli.parse_config(_write(tmp_path, BOUND.replace("C = 4", "C = -1")))
    # a manifest float is not truncated into an int field
    out = str(tmp_path / "a")
    assert cli.main(["bound", "--config", _write(tmp_path, BOUND),
                     "--out", out]) == 0
    man_path = os.path.join(out, "manifest.json")
    man = json.loads(Path(man_path).read_text())
    man["config"]["N"] = 3925.7
    Path(man_path).write_text(json.dumps(man))
    with pytest.raises(cli.ConfigError,
                       match=r"manifest.json: N must be an integer, "
                       r"got 3925.7$"):
        cli._load_config(man_path, "bound")
    for bad in ([1], {"kind": "bound", "config": [1]}, {"kind": "run"}):
        Path(man_path).write_text(json.dumps(bad))
        with pytest.raises(cli.ConfigError, match="not a bound manifest"):
            cli._load_config(man_path, "bound")


# (kind, key, value) for the config checks no other test reaches
_CONFIG_CHECKS = [
    ("run", "sigma_h2", "0"), ("run", "sigma_z2", "-1"),
    ("run", "dataset", "cifar"), ("run", "partition", "dirichlet"),
    ("run", "target_alpha", "0"), ("run", "target_alpha", "1"),
    ("run", "alpha_tolerance", "0"), ("run", "l2_reg", "-0.1"),
    ("bound", "L", "0"), ("bound", "mu", "0"), ("bound", "G2", "0"),
    ("bound", "init_dist", "0"), ("bound", "sigma_h2", "0"),
    ("bound", "Gamma", "-1"), ("bound", "sigma_z2", "-1"),
    ("bound", "N", "0"), ("bound", "tau", "0"), ("bound", "I", "0"),
    ("bound", "T", "0"), ("bound", "K", "0")]


@pytest.mark.parametrize("kind,key,val", _CONFIG_CHECKS,
                         ids=[f"{k}-{key}={v}" for k, key, v in _CONFIG_CHECKS])
def test_parse_rejects_out_of_range_value(tmp_path, kind, key, val):
    if kind == "run":
        text = f"scenario = hotafl\n{key} = {val}\n"
    else:
        text = re.sub(rf"^{key} = .*$", f"{key} = {val}", BOUND, flags=re.M)
    with pytest.raises(cli.ConfigError, match=rf"cfg.txt: {key} must"):
        cli.parse_config(_write(tmp_path, text))


@pytest.mark.parametrize("label", ("../escaped", "a,b", ".hidden", "a/b"))
def test_bound_label_must_be_a_file_stem(tmp_path, capsys, label):
    # the label names the output CSV and fills its last column, so it
    # cannot leave --out or add a column
    out = str(tmp_path / "sub" / "o")
    text = BOUND.replace("label = b", f"label = {label}")
    cfg = _write(tmp_path, text)
    assert cli.main(["bound", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"airfed: error: {cfg}: label must be a plain "
                          "file stem") and err.count("\n") == 1
    assert not os.path.exists(tmp_path / "sub")


def test_out_naming_a_file_is_one_line_error(tmp_path, capsys):
    taken = _write(tmp_path, "", "taken")
    for command, text in (("run", SMOKE), ("bound", BOUND)):
        assert cli.main([command, "--config", _write(tmp_path, text),
                         "--out", taken]) == 1
        err = capsys.readouterr().err
        assert err.startswith("airfed: error: ") and err.count("\n") == 1


def test_run_command_three_scenarios(tmp_path):
    cfg = _write(tmp_path, SMOKE)
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", cfg, "--out", out]) == 0
    csvs = sorted(f for f in os.listdir(out) if f.endswith(".csv"))
    assert csvs == ["flat_ota_seed5.csv", "hotafl_seed5.csv",
                    "ideal_hier_seed5.csv", "summary.csv"]
    cols = []
    for name in csvs[:3]:
        with open(os.path.join(out, name)) as fh:
            rows = [l.split(",")[0] for l in fh.read().splitlines()[1:]]
        cols.append(rows)
    assert cols[0] == cols[1] == cols[2] == ["1", "2", "3", "4"]
    man = json.loads(Path(out, "manifest.json").read_text())
    assert man["kind"] == "run" and man["tool_version"]
    assert man["seeds"] == [5]


def test_run_seeds_and_scenarios_cardinality(tmp_path):
    cfg = _write(tmp_path, SMOKE)
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", cfg, "--out", out,
                     "--seeds", "2", "--scenarios", "ideal,hotafl,flat"]) == 0
    csvs = [f for f in os.listdir(out) if f.endswith(".csv")
            and f != "summary.csv"]
    assert len(csvs) == 6
    assert os.path.exists(os.path.join(out, "summary.csv"))


@pytest.mark.parametrize("pin, seeds, draws", [
    ("", [], 1), ("", ["--seeds", "2"], 2),
    ("data_seed = 5\n", ["--seeds", "2"], 1),
], ids=["one_seed", "two_seeds", "two_seeds_pinned_data"])
def test_run_draws_each_data_key_once(tmp_path, monkeypatch, pin, seeds,
                                      draws):
    # the sweep runs seed-major over all three scenarios, and the runs on
    # one data seed share one synthetic draw
    calls = []
    draw = learner.make_synthetic

    def counted(*args, **kw):
        calls.append(args)
        return draw(*args, **kw)

    monkeypatch.setattr(learner, "make_synthetic", counted)
    protocol._RUN_DATA.clear()
    cfg = _write(tmp_path, SMOKE + pin)
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", cfg, "--out", out, *seeds]) == 0
    assert len(calls) == draws


def test_run_rejects_nonpositive_seeds(tmp_path, capsys):
    cfg = _write(tmp_path, SMOKE)
    first = str(tmp_path / "first")
    assert cli.main(["run", "--config", cfg, "--out", first,
                     "--scenarios", "ideal"]) == 0
    manifest = os.path.join(first, "manifest.json")
    for config in (cfg, manifest):
        for n in ("0", "-1"):
            out = str(tmp_path / f"out{n}")
            assert cli.main(["run", "--config", config, "--out", out,
                             "--seeds", n, "--scenarios", "ideal"]) == 1
            err = capsys.readouterr().err
            assert err == f"airfed: error: --seeds must be at least 1, " \
                          f"got {n}\n"
            assert not os.path.exists(out)


_LIST = "must be a non-empty list, got "
_BOOL_BETAS = [[True] + [3.0] * 4] + [[3.0] * 5] * 3


# A bad entry at the top level of a manifest or in its config: (command,
# place, key, value, what stderr says after the manifest path).  Each ends
# in that one line and leaves no --out.  The run list's seeds and names are
# judged by the configs built from them.
@pytest.mark.parametrize("command, place, key, val, reason", [
    pytest.param("run", "top", "seeds", [], f": seeds {_LIST}[]", id="empty"),
    pytest.param("run", "top", "seeds", "ab", f": seeds {_LIST}'ab'",
                 id="string"),
    pytest.param("run", "top", "seeds", [1.5],
                 ": seed must be an integer, got 1.5", id="float"),
    pytest.param("run", "top", "seeds", [True],
                 ": seed must be an integer, got True", id="bool"),
    pytest.param("run", "top", "seeds", [[1]],
                 ": seed must be an integer, got [1]", id="seeds-list"),
    pytest.param("run", "top", "seeds", [-1], ": seed must be nonnegative",
                 id="seeds-negative"),
    pytest.param("run", "top", "scenarios", 5, f": scenarios {_LIST}5",
                 id="scenarios-int"),
    # a manifest's scenarios is a list, as every manifest writes it
    pytest.param("run", "top", "scenarios", "hotafl",
                 f": scenarios {_LIST}'hotafl'", id="scenarios-string"),
    pytest.param("run", "top", "scenarios", [["ideal"]],
                 f": scenario must be one of {protocol.SCENARIOS}, "
                 "got ['ideal']",
                 id="scenarios-list"),
    pytest.param("run", "top", "seeds", [3, 3],
                 ": the run list names ideal_hier seed 3 twice",
                 id="seeds-repeat"),
    pytest.param("run", "top", "scenarios", ["flat", "flat_ota"],
                 ": the run list names flat_ota seed 5 twice",
                 id="scenarios-repeat"),
    pytest.param("run", "config", "T", True,
                 ": T must be an integer, got True", id="T-bool"),
    pytest.param("run", "config", "sigma_z2", False,
                 ": sigma_z2 must be a real number, got False",
                 id="sigma_z2-bool"),
    # an int too large for a float, in a float field and an int field
    pytest.param("run", "config", "sigma_z2", 10**400,
                 ": sigma_z2 must be finite", id="sigma_z2-huge"),
    pytest.param("run", "config", "T", 10**400, ": T must be finite",
                 id="T-huge"),
    pytest.param("bound", "config", "betas", [[]],
                 ": betas must be non-empty, positive and finite",
                 id="betas-empty"),
    pytest.param("bound", "config", "betas", _BOOL_BETAS,
                 f": betas must be real numbers, got {_BOOL_BETAS!r}",
                 id="betas-bool"),
    # a text config refuses T = 4.0, and so does a manifest
    pytest.param("run", "config", "T", 4.0,
                 ": T must be an integer, got 4.0", id="T-float"),
    # beta, C and M in place of betas, C not an integer
    pytest.param("bound", "shorthand", None, {"beta": 3, "C": 2.5, "M": 5},
                 ": C and M must be positive integers, got 2.5 and 5",
                 id="shorthand-C-float"),
    # beta is one gain, not a row to broadcast
    pytest.param("bound", "shorthand", None, {"beta": [3, 3], "C": 1, "M": 2},
                 ": betas must be 2-D (C, M), got (1, 2, 2)",
                 id="shorthand-beta-list"),
    pytest.param("bound", "config", "beta", 3,
                 ": betas cannot be combined with ['beta']",
                 id="shorthand-with-betas"),
    # options retired by 0.2.0, which 0.1.x manifests carry at their default
    pytest.param("run", "config", "optimizer", "sgd",
                 ": unknown key 'optimizer'", id="retired-optimizer"),
    pytest.param("run", "config", "eval_train_samples", 2000,
                 ": unknown key 'eval_train_samples'",
                 id="retired-eval_train_samples"),
    # the label names the output CSV: a manifest's label is a plain file
    # stem, and a JSON string, since str() of a boolean or number would
    # name the CSV True.csv or 12.5.csv
    pytest.param("bound", "config", "label", "../escaped",
                 ": label must be a plain file stem (letters, digits, '_', "
                 "'-', '.', no leading '.'), got '../escaped'", id="label"),
    pytest.param("bound", "config", "label", True,
                 ": label must be a string, got True", id="label-bool"),
    pytest.param("bound", "config", "label", 12.5,
                 ": label must be a string, got 12.5", id="label-float"),
])
def test_manifest_rejects_bad_seeds_and_scenarios(tmp_path, capsys, command,
                                                  place, key, val, reason):
    text, only = (SMOKE, ["--scenarios", "ideal"]) if command == "run" \
        else (BOUND, [])
    first = str(tmp_path / "first")
    assert cli.main([command, "--config", _write(tmp_path, text),
                     "--out", first, *only]) == 0
    manifest = os.path.join(first, "manifest.json")
    man = json.loads(Path(manifest).read_text())
    if place == "shorthand":
        del man["config"]["betas"]
        man["config"].update(val)
    else:
        (man if place == "top" else man["config"])[key] = val
    Path(manifest).write_text(json.dumps(man))
    out = str(tmp_path / "o")
    assert cli.main([command, "--config", manifest, "--out", out]) == 1
    assert capsys.readouterr().err == f"airfed: error: {manifest}{reason}\n"
    assert not os.path.exists(out)


def test_allocation_failure_is_one_line_error(tmp_path, capsys):
    # 10**15 samples ask for petabytes, more than the address space holds,
    # so the allocation fails at once whatever the overcommit setting
    cfg = _write(tmp_path, SMOKE.replace("train_samples = 300",
                                         "train_samples = 1000000000000000"))
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--scenarios", "ideal"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("airfed: error: Unable to allocate ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("feature_dim, num_classes, test_side, reason", [
    (16, 10, 4, None),
    (19, 10, 4, "train set under {} has feature_dim 16, the config has "
                "feature_dim = 19"),
    (16, 4, 4, "train set under {} has num_classes 10, the config has "
               "num_classes = 4"),
    (16, 10, 3, "test set under {} has feature_dim 9, the config has "
                "feature_dim = 16"),
], ids=["match", "feature_dim", "num_classes", "test-feature_dim"])
def test_mnist_shape_must_match_config(tmp_path, capsys, monkeypatch,
                                       feature_dim, num_classes, test_side,
                                       reason):
    # 4x4 train images and test_side x test_side test images, labels 0..9
    for prefix, n, side in (("train", 20, 4), ("t10k", 10, test_side)):
        _write_idx(tmp_path / f"{prefix}-images-idx3-ubyte", 0x803,
                   np.arange(n * side * side) % 256, (n, side, side))
        _write_idx(tmp_path / f"{prefix}-labels-idx1-ubyte", 0x801,
                   np.arange(n) % 10, (n,))
    monkeypatch.setenv(protocol.MNIST_DIR_ENV, str(tmp_path))
    cfg = _write(tmp_path, "scenario = ideal\nC = 1\nM = 2\nT = 1\n"
                           "dataset = mnist\nbatch_size = 5\n"
                           f"feature_dim = {feature_dim}\n"
                           f"num_classes = {num_classes}\n")
    out = tmp_path / "o"
    status = cli.main(["run", "--config", cfg, "--out", str(out),
                       "--scenarios", "ideal,hotafl,flat"])
    if reason is not None:
        assert status == 1
        assert capsys.readouterr().err == f"airfed: error: {cfg}: " \
            f"ideal_hier seed 0: MNIST {reason.format(tmp_path)}\n"
        return
    # matching shapes: every scenario writes one row of finite numbers
    assert status == 0
    for scenario in protocol.SCENARIOS:
        rows = (out / f"{scenario}_seed0.csv").read_text().splitlines()[1:]
        assert len(rows) == 1
        values = rows[0].split(",")
        assert values[1] == scenario
        assert np.isfinite([float(v) for v in values[2:]]).all()


def test_failed_config_leaves_no_output_dir(tmp_path, capsys):
    bad = _write(tmp_path, "scenario = hotafl\nC = two\n", "bad.cfg")
    # text that is not UTF-8 and a manifest that is not JSON: the error
    # names the file
    named = {str(tmp_path / "latin1.cfg"): (
                 b"scenario = hotafl\n\xff\n", "'utf-8' codec can't decode "
                 "byte 0xff in position 18: invalid start byte"),
             str(tmp_path / "cut.json"): (
                 b'{"kind": "run", ', "Expecting property name enclosed "
                 "in double quotes: line 1 column 17 (char 16)")}
    for path, (text, _) in named.items():
        Path(path).write_bytes(text)
    for command in ("run", "bound"):
        # a missing file, a directory, a bad value
        for config in (str(tmp_path / "missing.cfg"), str(tmp_path), bad,
                       *named):
            out = str(tmp_path / "o")
            assert cli.main([command, "--config", config, "--out", out]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            if config in named:
                assert err == f"airfed: error: {config}: {named[config][1]}\n"
            assert not os.path.exists(out)


def test_repeated_scenario_or_seed_leaves_no_output_dir(tmp_path, capsys):
    cfg = _write(tmp_path, SMOKE)
    out = str(tmp_path / "o")
    for arg, reason in (("ideal,ideal_hier",
                         "the run list names ideal_hier seed 5 twice"),
                        ("hotafl,flat,flat_ota",
                         "the run list names flat_ota seed 5 twice"),
                        (",", "scenarios must be a non-empty list, got []"),
                        ("", "scenarios must be a non-empty list, got []")):
        assert cli.main(["run", "--config", cfg, "--out", out,
                         "--scenarios", arg]) == 1
        assert capsys.readouterr().err == f"airfed: error: {cfg}: {reason}\n"
        assert not os.path.exists(out)
    # names are stripped of spaces
    assert cli.main(["run", "--config", cfg, "--out", out,
                     "--scenarios", " ideal , hotafl"]) == 0
    assert sorted(os.listdir(out)) == [
        "hotafl_seed5.csv", "ideal_hier_seed5.csv", "manifest.json",
        "summary.csv"]


def test_bad_run_list_or_bound_schedule_leaves_no_output_dir(tmp_path,
                                                             capsys):
    # each error depends on more than one key: a scenario the run list
    # adds, an iteration the bound recursion reaches, or a non-i.i.d. split
    # into fewer label groups than classes; or it is a negative lr_base,
    # whose every eta(t) would clamp to 0, a run that never trains
    here = os.path.join(os.path.dirname(__file__), "..", "configs")
    text = Path(here, "bound_fig4_hotafl.cfg").read_text()
    cases = [
        (["run", "--scenarios", "ideal,hotafl"],
         "scenario = ideal\nfeature_dim = 8\nnum_classes = 3\n",
         "model dimension 27 must be even: its halves are the real and "
         "imaginary parts of the over-the-air symbols"),
        (["bound"], text.replace("power_base = 1.0", "power_base = -1.0"),
         "power schedule non-positive at t=1: -0.99"),
        (["bound"], text.replace("lr_base = 0.05", "lr_base = 2"),
         "eta=1.99998 outside [0, 1.0] where the contraction factor is "
         "valid"),
        (["run"], "scenario = hotafl\nC = 1\nM = 1\npartition = noniid\n",
         "5 label groups (5*C*M) cannot cover 10 classes"),
        (["run"], "scenario = hotafl\nlr_base = -0.05\n",
         "lr_base must be nonnegative"),
        (["bound"], text.replace("lr_base = 0.05", "lr_base = -0.05"),
         "lr_base must be nonnegative")]
    for args, cfg_text, reason in cases:
        cfg = _write(tmp_path, cfg_text)
        out = str(tmp_path / "o")
        assert cli.main([*args, "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == f"airfed: error: {cfg}: {reason}\n"
        assert not os.path.exists(out)


def test_manifest_top_level_keys(tmp_path):
    common = {"kind", "tool_version", "config", "outputs", "runtime_seconds"}
    for command, text, extra in (("run", SMOKE, {"seeds", "scenarios"}),
                                 ("bound", BOUND, set())):
        out = str(tmp_path / command)
        assert cli.main([command, "--config", _write(tmp_path, text),
                         "--out", out]) == 0
        man = json.loads(Path(out, "manifest.json").read_text())
        assert set(man) == common | extra


def test_manifest_rerun_byte_identical(tmp_path):
    cfg = _write(tmp_path, SMOKE)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["run", "--config", cfg, "--out", out1,
                     "--scenarios", "hotafl,flat"]) == 0
    manifest = os.path.join(out1, "manifest.json")
    assert cli.main(["run", "--config", manifest, "--out", out2]) == 0
    for name in os.listdir(out1):
        if name.endswith(".csv"):
            a = Path(out1, name).read_bytes()
            b = Path(out2, name).read_bytes()
            assert a == b, name


def test_manifest_json_integers_keep_the_bits(tmp_path):
    # a JSON 1 in a float field reaches the run as the int 1, not 1.0, and
    # the run writes the same bytes
    smoke = Path(__file__).parent.parent / "configs" / "synthetic_smoke.cfg"
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(smoke), "--out", str(out1)]) == 0
    manifest = out1 / "manifest.json"
    man = json.loads(manifest.read_text())
    whole = [key for key, val in man["config"].items()
             if type(val) is float and val.is_integer()]
    assert {"sigma_h2", "sigma_z2", "power_base"} <= set(whole)
    man["config"].update({key: int(man["config"][key]) for key in whole})
    manifest.write_text(json.dumps(man))
    cfg, _ = cli._load_config(str(manifest), "run")
    assert all(type(getattr(cfg, key)) is int for key in whole)
    assert cli.main(["run", "--config", str(manifest),
                     "--out", str(out2)]) == 0
    csvs = sorted(p.name for p in out1.glob("*.csv"))
    assert len(csvs) == 4
    for name in csvs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_bound_command_and_rerun(tmp_path):
    here = os.path.join(os.path.dirname(__file__), "..", "configs")
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    cfgp = os.path.join(here, "bound_fig4_hotafl.cfg")
    assert cli.main(["bound", "--config", cfgp, "--out", out1]) == 0
    csv_path = os.path.join(out1, "hotafl_bound.csv")
    with open(csv_path) as fh:
        header = fh.readline().strip()
        rows = fh.read().splitlines()
    assert header == "t,bound_value,config_label"
    assert len(rows) == 200
    assert rows[0].split(",")[2] == "hotafl_bound"
    man = json.loads(Path(out1, "manifest.json").read_text())
    assert sorted(man["config"]) == sorted(
        f.name for f in dataclasses.fields(bounds.BoundParams))
    assert cli.main(["bound", "--config", os.path.join(out1, "manifest.json"),
                     "--out", out2]) == 0
    assert Path(csv_path).read_bytes() == \
        Path(out2, "hotafl_bound.csv").read_bytes()


# sha256 of each shipped Figure-4 bound's CSV.  The bound takes no BLAS
# product, so its bits do not depend on OpenBLAS's kernel.
_FIG4_BOUND_SHA256 = {
    "hotafl":
        "d37783572139d4caca45dc80bf2a2bc5102b060d941b97ef92ef8600ec28b226",
    "hotafl_I5":
        "4d7ab582cd1c6bb6138b29ebd7f9ba0e08554529aff067324252c5f43c0fd9f3",
    "flat":
        "d36889c3cefcc039f8c55c35cc76bafe3e615517733bd5b152fbd4679d86158f",
}


@pytest.mark.parametrize("name", _FIG4_BOUND_SHA256)
def test_fig4_bound_csvs_are_pinned(tmp_path, name):
    cfg = Path(__file__).parent.parent / "configs" / f"bound_fig4_{name}.cfg"
    assert cli.main(["bound", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
    csv = (tmp_path / f"{name}_bound.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == _FIG4_BOUND_SHA256[name]


def _shipped(tmp_path, name, changes, stem="cfg"):
    """configs/<name> written under tmp_path with each key of changes set
    to its value (appended when the file lacks the key): its path."""
    text = (Path(__file__).parent.parent / "configs" / name).read_text()
    for key, val in changes.items():
        text, found = re.subn(rf"^{key} = .*$", f"{key} = {val}", text,
                              flags=re.M)
        if not found:
            text += f"{key} = {val}\n"
    return _write(tmp_path, text, f"{stem}.txt")


@pytest.mark.parametrize("changes, t", (
    ({"sigma_z2": "1e308"}, 2),                   # the noise term overflows
    ({"init_dist": "1e308", "L": "1e10"}, 1),     # (L/2) * dist overflows
    ({"power_base": "1e-200", "power_slope": "0"}, 2)),  # P(a)^2 underflows
    ids=("noise", "init_dist", "power"))
def test_bound_non_finite_is_one_line_error(tmp_path, capsys, changes, t):
    # ends before --out is made, with no numpy warning (tier-1 turns a
    # RuntimeWarning into an error)
    cfg = _shipped(tmp_path, "bound_fig4_hotafl.cfg", changes)
    out = str(tmp_path / "o")
    assert cli.main(["bound", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == \
        f"airfed: error: {cfg}: bound is not finite at t={t}\n"
    assert not os.path.exists(out)


def test_bound_power_overflow_drops_the_noise(tmp_path):
    # P(a)^2 overflows to inf, so the noise term is 0 and the bound is the
    # sigma_z2 = 0 one, bit for bit
    loud = _shipped(tmp_path, "bound_fig4_hotafl.cfg", {"power_base": "1e200"},
                    "loud")
    assert cli.main(["bound", "--config", loud,
                     "--out", str(tmp_path / "o")]) == 0
    quiet = _shipped(tmp_path, "bound_fig4_hotafl.cfg", {"sigma_z2": "0"},
                     "quiet")
    assert np.array_equal(bounds.bound_trajectory(cli.parse_config(loud)),
                          bounds.bound_trajectory(cli.parse_config(quiet)))


def test_noiseless_bound_does_not_read_the_power(tmp_path):
    # at sigma_z2 = 0 the noise term is 0 even where P(a)^2 underflows
    csvs = []
    for stem, power in (("low", "1e-200"), ("unit", "1")):
        cfg = _shipped(tmp_path, "bound_fig4_hotafl.cfg",
                       {"sigma_z2": "0", "power_base": power,
                        "power_slope": "0"}, stem)
        out = tmp_path / stem
        assert cli.main(["bound", "--config", cfg, "--out", str(out)]) == 0
        csvs.append((out / "hotafl_bound.csv").read_bytes())
    assert csvs[0] == csvs[1]


def _float_fields(cls):
    return [f.name for f in dataclasses.fields(cls)
            if f.type in (float, Optional[float])]


@pytest.mark.parametrize("command, name, fields", (
    ("run", "synthetic_smoke.cfg", _float_fields(protocol.ScenarioConfig)),
    ("bound", "bound_fig4_hotafl.cfg", _float_fields(bounds.BoundParams))),
    ids=("run", "bound"))
def test_extreme_values_end_cleanly(tmp_path, capsys, command, name, fields):
    # every float field at +-1e300 and 1e-300 (the run at T = 3, all three
    # scenarios): the command succeeds or ends in one error line, and no
    # warning is raised in any thread
    bad = []
    for field in fields:
        for val in ("1e300", "1e-300", "-1e300"):
            changes = {field: val, **({"T": "3"} if command == "run" else {})}
            cfg = _shipped(tmp_path, name, changes)
            out = str(tmp_path / f"{field}{val}")
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = cli.main([command, "--config", cfg, "--out", out])
            except Exception as exc:    # a warning or a traceback
                code = repr(exc)
            err = capsys.readouterr().err
            if not (code == 0 and err == "" or code == 1
                    and re.fullmatch(r"airfed: error: [^\n]*\n", err)):
                bad.append((field, val, code, err))
    assert not bad


def _fake_run_csv(path, scenario, acc):
    with open(path, "w", newline="\n") as fh:
        fh.write("t,scenario,train_loss,test_acc,avg_tx_power,eta,power\n")
        fh.write(f"1,{scenario},1.0,0.1,0.0,0.05,1\n")
        fh.write(f"2,{scenario},0.5,{acc},0.0,0.05,1\n")


def test_summarize_identity_and_mean(tmp_path, capsys):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    _fake_run_csv(a, "hotafl", 0.8)
    _fake_run_csv(b, "hotafl", 0.9)
    out = str(tmp_path / "s.csv")
    assert cli.main(["summarize", a, "--out", out]) == 0
    line = Path(out).read_text().splitlines()[1].split(",")
    assert line[:3] == ["hotafl", "1", "0.8"]
    assert cli.main(["summarize", a, b, "--out", out]) == 0
    line = Path(out).read_text().splitlines()[1].split(",")
    assert float(line[2]) == pytest.approx(0.85)
    assert line[3] == "0.8" and line[4] == "0.9"
    # a file named twice, under any spelling, would count its run twice
    again = os.path.join(tmp_path, ".", "a.csv")
    twice = str(tmp_path / "twice.csv")
    assert cli.main(["summarize", a, b, again, "--out", twice]) == 1
    assert capsys.readouterr().err == (
        f"airfed: error: {again}: names the same file as {a}\n")
    assert not os.path.exists(twice)


def test_summarize_ordering_flag(tmp_path):
    hot = str(tmp_path / "h.csv")
    flat = str(tmp_path / "f.csv")
    _fake_run_csv(hot, "hotafl", 0.7)
    _fake_run_csv(flat, "flat_ota", 0.9)   # flat beats hotafl -> flag false
    out = str(tmp_path / "s.csv")
    assert cli.main(["summarize", hot, flat, "--out", out]) == 0
    rows = Path(out).read_text().splitlines()[1:]
    assert all(r.endswith(",false") for r in rows)
    assert rows[0].startswith("hotafl,") and rows[1].startswith("flat_ota,")


def test_summarize_malformed_csv(tmp_path, capsys):
    bad = str(tmp_path / "bad.csv")
    for text, reason in (
            ("nope\n1,2\n", "missing scenario/test_acc columns"),
            ("scenario,test_acc\nhotafl,0.5\nflat_ota\n",
             "last row has 1 fields, header has 2"),
            ("scenario,test_acc\nhotafl,abc\n",
             "last row's test_acc 'abc' is not a number"),
            # a diverged run: no NaN row in the summary or ordering flag
            ("scenario,test_acc\nhotafl,0.5\nhotafl,nan\n",
             "last row's test_acc 'nan' is not finite"),
            ("scenario,test_acc\nhotafl,inf\n",
             "last row's test_acc 'inf' is not finite"),
            ("scenario,test_acc\n", "no data rows"),
            (b"scenario,test_acc\nhotafl,0.5\xff\n", "'utf-8' codec can't "
             "decode byte 0xff in position 28: invalid start byte")):
        Path(bad).write_bytes(text if isinstance(text, bytes)
                              else text.encode())
        assert cli.main(["summarize", bad,
                         "--out", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr().err == f"airfed: error: {bad}: {reason}\n"


def test_unknown_scenario_name_errors(tmp_path, capsys):
    cfg = _write(tmp_path, SMOKE)
    out = str(tmp_path / "o")
    assert cli.main(["run", "--config", cfg, "--out", out,
                     "--scenarios", "bogus"]) == 1
    assert capsys.readouterr().err == (
        f"airfed: error: {cfg}: scenario must be one of "
        f"{protocol.SCENARIOS}, got 'bogus'\n")
    assert not os.path.exists(out)


def test_run_non_finite_is_one_line_error(tmp_path, capsys):
    # P_t = 1e-6 against sigma_z2 = 100: the recovered update swamps the
    # model and the loss overflows; 1e-310 overflows the update itself;
    # 1e200 overflows the transmit energy p_t^2 * sum |x|^2
    for power, msg in (("1e-6", "train loss is not finite at t=1"),
                       ("1e-310", "cluster 0 update is not finite at t=1"),
                       ("1e200", "transmit power is not finite at t=1")):
        cfg = _write(tmp_path, SMOKE.replace("sigma_z2 = 1\n",
                                             "sigma_z2 = 100\n")
                     + f"power_base = {power}\npower_slope = 0\n")
        assert cli.main(["run", "--config", cfg, "--out",
                         str(tmp_path / "o"), "--scenarios", "hotafl"]) == 1
        assert capsys.readouterr().err == \
            f"airfed: error: {cfg}: hotafl seed 5: {msg}\n"


@pytest.mark.parametrize("scenario", ("hotafl", "flat"))
def test_run_path_loss_overflow_is_one_line_error(tmp_path, capsys, scenario):
    # a user within 0.70 of its server has a gain d**-2000 above the
    # largest float: the run names path_loss_exp, not the update
    cfg = _shipped(tmp_path, "synthetic_smoke.cfg",
                   {"T": "3", "path_loss_exp": "2000"})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--scenarios", scenario]) == 1
    assert capsys.readouterr().err == (
        f"airfed: error: {cfg}: {cli.SCENARIO_ALIASES[scenario]} seed 7: "
        "path_loss_exp = 2000 gives a path-loss gain d**-p that is not "
        "finite\n")


def test_run_error_names_config_and_run(tmp_path, capsys):
    # 600 rows over C*M = 6 users leave 100-row shards, fewer than a batch;
    # 19 rows cannot fill the 5*C*M = 20 label groups of a non-iid split;
    # --out is made before the first run and keeps what was written
    for text, reason in (
            (SMOKE.replace("M = 2", "M = 3")
             .replace("train_samples = 300", "train_samples = 600")
             .replace("batch_size = 20", "batch_size = 200"),
             "batch_size 200 not in [1, 100]"),
            (SMOKE.replace("train_samples = 300", "train_samples = 19")
             + "partition = noniid\n", "fewer samples than groups")):
        cfg = _write(tmp_path, text.replace("seed = 5", "seed = 7"))
        out = str(tmp_path / "o")
        assert cli.main(["run", "--config", cfg, "--out", out,
                         "--scenarios", "hotafl"]) == 1
        assert capsys.readouterr().err == \
            f"airfed: error: {cfg}: hotafl seed 7: {reason}\n"
        assert os.listdir(out) == []
