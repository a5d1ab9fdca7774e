import contextlib
import dataclasses
import hashlib
import io
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

CONFIGS = Path(__file__).parent.parent / "configs"

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


_EITHER = object()      # the _airfed error of a call that may succeed or fail


def _airfed(*argv, error=None, status=1, out_made=False):
    """Run `airfed argv` (Paths as text) and check the CLI's contract.

    error None: exit 0, no stderr, and a run or bound --out holds what it
    held plus exactly the manifest's outputs and manifest.json; returns
    the manifest.  Otherwise exit status and one line, "airfed: error: "
    and error (an re.Pattern where the OS supplies the words); status 2 is
    argparse's, after its usage and naming the subcommand.  A failure
    writes no manifest.json and leaves --out as it was, unless out_made:
    the error may come after --out is made.  _EITHER takes either outcome.
    """
    argv = [str(arg) for arg in argv]
    out = argv[argv.index("--out") + 1]
    existed, manifest = os.path.exists(out), Path(out, "manifest.json")
    listed = set(os.listdir(out)) if os.path.isdir(out) else set()
    had_manifest = manifest.exists()
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse's usage error
            code = exc.code
    err = stderr.getvalue()
    if error is _EITHER:
        error = None if code == 0 else re.compile(".*")
    if error is None:
        assert (code, err) == (0, "") and os.path.exists(out), argv
        if argv[0] == "summarize":
            return None
        man = json.loads(manifest.read_text())
        assert set(os.listdir(out)) == listed | {*man["outputs"],
                                                 manifest.name}
        return man
    what = error.pattern if isinstance(error, re.Pattern) else re.escape(error)
    name = "airfed" if status == 1 else \
        rf"usage: airfed {argv[0]} .*\n(?: .*\n)*airfed {argv[0]}"
    assert code == status, (argv, err)
    assert re.fullmatch(rf"{name}: error: {what}\n", err), err
    assert manifest.exists() == had_manifest
    assert out_made or os.path.exists(out) == existed


def _os_error(path):
    """An OSError's line on path, whose words the OS supplies."""
    return re.compile(rf"\[Errno \d+\] .+: {re.escape(repr(path))}")


def test_parse_minimal_scenario_config(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, "scenario = hotafl\n"))
    assert isinstance(cfg, protocol.ScenarioConfig)
    assert cfg.C == 4 and cfg.M == 5 and cfg.K == 100
    assert cfg.T == 200 and cfg.batch_size == 500


def test_parse_rejects_bad_tau(tmp_path):
    # the config judges the value (test_protocol.py pins each such rule);
    # the file layer prefixes the config's error with the file
    path = _write(tmp_path, "scenario = hotafl\ntau = 0\n")
    with pytest.raises(cli.ConfigError, match=rf"^{re.escape(path)}: tau must "
                       "be a positive integer$"):
        cli.parse_config(path)


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
    # nan is a float, which the config refuses
    path = _write(tmp_path, "scenario = hotafl\nsigma_z2 = nan\n")
    with pytest.raises(cli.ConfigError,
                       match=rf"^{re.escape(path)}: sigma_z2 must be finite$"):
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
    cfg = cli.parse_config(str(CONFIGS / "mnist_iid_hotafl.cfg"))
    assert (cfg.C, cfg.M, cfg.K, cfg.T) == (4, 5, 100, 200)
    assert cfg.batch_size == 500
    assert cfg.sigma_h2 == 1.0 and cfg.sigma_z2 == 10.0
    assert cfg.path_loss_exp == 4.0
    assert cfg.power_base == 1.0 and cfg.power_slope == 0.01
    assert cfg.flat_power_base == 1.5
    assert cfg.lr_base == 0.05 and cfg.lr_slope == 2e-5
    assert cfg.dataset == "mnist" and cfg.partition == "iid"


def test_parse_bound_config():
    p = cli.parse_config(str(CONFIGS / "bound_fig4_hotafl.cfg"))
    assert isinstance(p, bounds.BoundParams)
    assert (p.C, p.M, p.K, p.T, p.N) == (4, 5, 100, 200, 3925)
    assert np.all(p.betas == 3.0)
    assert p.label == "hotafl_bound"


@pytest.mark.parametrize(
    "path", sorted(CONFIGS.glob("*.cfg")),
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
    _airfed("run", "--config", marked, "--out", out)
    committed = CONFIGS / "bound_fig4_hotafl.cfg"
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
    path = _write(tmp_path, BOUND.replace("G2 = 1", "G2 = nan"))
    with pytest.raises(cli.ConfigError,
                       match=rf"^{re.escape(path)}: G2 must be finite$"):
        cli.parse_config(path)
    with pytest.raises(cli.ConfigError, match=r"cfg.txt: betas must"):
        cli.parse_config(_write(tmp_path, BOUND.replace("beta = 3",
                                                        "beta = inf")))
    with pytest.raises(cli.ConfigError, match=r"cfg.txt: C and M must be "
                       r"positive integers, got -1 and 5$"):
        cli.parse_config(_write(tmp_path, BOUND.replace("C = 4", "C = -1")))
    # a manifest float is not truncated into an int field
    out = str(tmp_path / "a")
    man = _airfed("bound", "--config", _write(tmp_path, BOUND), "--out", out)
    man_path = os.path.join(out, "manifest.json")
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


_STEM = ("label must be a plain file stem (letters, digits, '_', '-', '.', "
         "no leading '.'), got ")


@pytest.mark.parametrize("label", ("../escaped", "a,b", ".hidden", "a/b"))
def test_bound_label_must_be_a_file_stem(tmp_path, label):
    # the label names the output CSV and fills its last column, so it
    # cannot leave --out or add a column
    cfg = _write(tmp_path, BOUND.replace("label = b", f"label = {label}"))
    _airfed("bound", "--config", cfg, "--out", tmp_path / "sub" / "o",
            error=f"{cfg}: {_STEM}{label!r}")
    assert not os.path.exists(tmp_path / "sub")


def test_out_naming_a_file_is_one_line_error(tmp_path):
    taken = _write(tmp_path, "", "taken")
    for command, text in (("run", SMOKE), ("bound", BOUND)):
        _airfed(command, "--config", _write(tmp_path, text), "--out", taken,
                error=_os_error(taken))


def test_run_command_three_scenarios(tmp_path):
    out = str(tmp_path / "out")
    man = _airfed("run", "--config", _write(tmp_path, SMOKE), "--out", out)
    csvs = sorted(man["outputs"])
    assert csvs == ["flat_ota_seed5.csv", "hotafl_seed5.csv",
                    "ideal_hier_seed5.csv", "summary.csv"]
    for name in csvs[:3]:
        rows = Path(out, name).read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1", "2", "3", "4"]
    assert man["kind"] == "run" and man["tool_version"]
    assert man["seeds"] == [5]


def test_run_seeds_and_scenarios_cardinality(tmp_path):
    man = _airfed("run", "--config", _write(tmp_path, SMOKE), "--out",
                  tmp_path / "out", "--seeds", "2", "--scenarios",
                  "ideal,hotafl,flat")
    assert len(man["outputs"]) == 7 and man["outputs"][-1] == "summary.csv"


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
    _airfed("run", "--config", cfg, "--out", tmp_path / "out", *seeds)
    assert len(calls) == draws


def test_run_rejects_nonpositive_seeds(tmp_path):
    cfg = _write(tmp_path, SMOKE)
    first = str(tmp_path / "first")
    _airfed("run", "--config", cfg, "--out", first, "--scenarios", "ideal")
    manifest = os.path.join(first, "manifest.json")
    for config in (cfg, manifest):
        for n in ("0", "-1"):
            _airfed("run", "--config", config, "--out", tmp_path / f"out{n}",
                    "--seeds", n, "--scenarios", "ideal",
                    error=f"--seeds must be at least 1, got {n}")


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
                 f": {_STEM}'../escaped'", id="label"),
    pytest.param("bound", "config", "label", True,
                 ": label must be a string, got True", id="label-bool"),
    pytest.param("bound", "config", "label", 12.5,
                 ": label must be a string, got 12.5", id="label-float"),
])
def test_manifest_rejects_bad_seeds_and_scenarios(tmp_path, command, place,
                                                  key, val, reason):
    text, only = (SMOKE, ["--scenarios", "ideal"]) if command == "run" \
        else (BOUND, [])
    first = str(tmp_path / "first")
    man = _airfed(command, "--config", _write(tmp_path, text), "--out", first,
                  *only)
    manifest = os.path.join(first, "manifest.json")
    if place == "shorthand":
        del man["config"]["betas"]
        man["config"].update(val)
    else:
        (man if place == "top" else man["config"])[key] = val
    Path(manifest).write_text(json.dumps(man))
    _airfed(command, "--config", manifest, "--out", tmp_path / "o",
            error=f"{manifest}{reason}")


def test_allocation_failure_is_one_line_error(tmp_path):
    # 10**15 samples ask for petabytes, more than the address space holds,
    # so the allocation fails at once whatever the overcommit setting
    cfg = _write(tmp_path, SMOKE.replace("train_samples = 300",
                                         "train_samples = 1000000000000000"))
    _airfed("run", "--config", cfg, "--out", tmp_path / "o",
            "--scenarios", "ideal", out_made=True,
            error=re.compile("Unable to allocate .*"))


@pytest.mark.parametrize("feature_dim, num_classes, test_side, reason", [
    (16, 10, 4, None),
    (19, 10, 4, "train set under {} has feature_dim 16, the config has "
                "feature_dim = 19"),
    (16, 4, 4, "train set under {} has num_classes 10, the config has "
               "num_classes = 4"),
    (16, 10, 3, "test set under {} has feature_dim 9, the config has "
                "feature_dim = 16"),
], ids=["match", "feature_dim", "num_classes", "test-feature_dim"])
def test_mnist_shape_must_match_config(tmp_path, monkeypatch, feature_dim,
                                       num_classes, test_side, reason):
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
    _airfed("run", "--config", cfg, "--out", out, "--scenarios",
            "ideal,hotafl,flat", out_made=True, error=reason and
            f"{cfg}: ideal_hier seed 0: MNIST {reason.format(tmp_path)}")
    if reason is None:      # every scenario writes one row of finite numbers
        for scenario in protocol.SCENARIOS:
            rows = (out / f"{scenario}_seed0.csv").read_text().splitlines()
            assert len(rows) == 2
            values = rows[1].split(",")
            assert values[1] == scenario
            assert np.isfinite([float(v) for v in values[2:]]).all()


def test_failed_config_leaves_no_output_dir(tmp_path):
    # a missing file, a directory, a bad value, text that is not UTF-8 and
    # a manifest that is not JSON: the error names the file
    bad = _write(tmp_path, "scenario = hotafl\nC = two\n", "bad.cfg")
    missing, cut = str(tmp_path / "missing.cfg"), str(tmp_path / "cut.json")
    latin1 = str(tmp_path / "latin1.cfg")
    Path(latin1).write_bytes(b"scenario = hotafl\n\xff\n")
    Path(cut).write_bytes(b'{"kind": "run", ')
    for command in ("run", "bound"):
        for config, error in (
                (missing, _os_error(missing)),
                (str(tmp_path), _os_error(str(tmp_path))),
                (bad, f"{bad}:2: bad value for 'C': 'two'" if command == "run"
                 else f"{bad}: not a bound config"),
                (latin1, f"{latin1}: 'utf-8' codec can't decode byte 0xff in "
                 "position 18: invalid start byte"),
                (cut, f"{cut}: Expecting property name enclosed in double "
                 "quotes: line 1 column 17 (char 16)")):
            _airfed(command, "--config", config, "--out", tmp_path / "o",
                    error=error)


def test_repeated_scenario_or_seed_leaves_no_output_dir(tmp_path):
    cfg = _write(tmp_path, SMOKE)
    out = str(tmp_path / "o")
    for arg, reason in (("ideal,ideal_hier",
                         "the run list names ideal_hier seed 5 twice"),
                        ("hotafl,flat,flat_ota",
                         "the run list names flat_ota seed 5 twice"),
                        (",", "scenarios must be a non-empty list, got []"),
                        ("", "scenarios must be a non-empty list, got []")):
        _airfed("run", "--config", cfg, "--out", out, "--scenarios", arg,
                error=f"{cfg}: {reason}")
    # names are stripped of spaces
    man = _airfed("run", "--config", cfg, "--out", out, "--scenarios",
                  " ideal , hotafl")
    assert sorted(man["outputs"]) == [
        "hotafl_seed5.csv", "ideal_hier_seed5.csv", "summary.csv"]


def test_bad_run_list_or_bound_schedule_leaves_no_output_dir(tmp_path):
    # each error depends on more than one key: a scenario the run list
    # adds, an iteration the bound recursion reaches, or a non-i.i.d. split
    # into fewer label groups than classes; or it is a negative lr_base,
    # whose every eta(t) would clamp to 0, a run that never trains
    text = (CONFIGS / "bound_fig4_hotafl.cfg").read_text()
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
        _airfed(*args, "--config", cfg, "--out", tmp_path / "o",
                error=f"{cfg}: {reason}")


def test_manifest_top_level_keys(tmp_path):
    common = {"kind", "tool_version", "config", "outputs", "runtime_seconds"}
    for command, text, extra in (("run", SMOKE, {"seeds", "scenarios"}),
                                 ("bound", BOUND, set())):
        man = _airfed(command, "--config", _write(tmp_path, text),
                      "--out", tmp_path / command)
        assert set(man) == common | extra


def test_manifest_rerun_byte_identical(tmp_path):
    cfg = _write(tmp_path, SMOKE)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    man = _airfed("run", "--config", cfg, "--out", out1,
                  "--scenarios", "hotafl,flat")
    _airfed("run", "--config", os.path.join(out1, "manifest.json"),
            "--out", out2)
    for name in man["outputs"]:
        assert Path(out1, name).read_bytes() == Path(out2, name).read_bytes()


def test_manifest_json_integers_keep_the_bits(tmp_path):
    # a JSON 1 in a float field reaches the run as the int 1, not 1.0, and
    # the run writes the same bytes
    out1, out2 = tmp_path / "a", tmp_path / "b"
    man = _airfed("run", "--config", CONFIGS / "synthetic_smoke.cfg",
                  "--out", out1)
    manifest = out1 / "manifest.json"
    whole = [key for key, val in man["config"].items()
             if type(val) is float and val.is_integer()]
    assert {"sigma_h2", "sigma_z2", "power_base"} <= set(whole)
    man["config"].update({key: int(man["config"][key]) for key in whole})
    manifest.write_text(json.dumps(man))
    cfg, _ = cli._load_config(str(manifest), "run")
    assert all(type(getattr(cfg, key)) is int for key in whole)
    _airfed("run", "--config", manifest, "--out", out2)
    assert len(man["outputs"]) == 4
    for name in man["outputs"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_bound_command_and_rerun(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    man = _airfed("bound", "--config", CONFIGS / "bound_fig4_hotafl.cfg",
                  "--out", out1)
    csv_path = os.path.join(out1, "hotafl_bound.csv")
    header, *rows = Path(csv_path).read_text().splitlines()
    assert header == "t,bound_value,config_label"
    assert len(rows) == 200
    assert rows[0].split(",")[2] == "hotafl_bound"
    assert sorted(man["config"]) == sorted(
        f.name for f in dataclasses.fields(bounds.BoundParams))
    _airfed("bound", "--config", os.path.join(out1, "manifest.json"),
            "--out", out2)
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
    _airfed("bound", "--config", CONFIGS / f"bound_fig4_{name}.cfg",
            "--out", tmp_path)
    csv = (tmp_path / f"{name}_bound.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == _FIG4_BOUND_SHA256[name]


def _shipped(tmp_path, name, changes, stem="cfg"):
    """configs/<name> written under tmp_path with each key of changes set
    to its value (appended when the file lacks the key): its path."""
    text = (CONFIGS / name).read_text()
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
def test_bound_non_finite_is_one_line_error(tmp_path, changes, t):
    # ends before --out is made, with no numpy warning (tier-1 turns a
    # RuntimeWarning into an error)
    cfg = _shipped(tmp_path, "bound_fig4_hotafl.cfg", changes)
    _airfed("bound", "--config", cfg, "--out", tmp_path / "o",
            error=f"{cfg}: bound is not finite at t={t}")


def test_bound_power_overflow_drops_the_noise(tmp_path):
    # P(a)^2 overflows to inf, so the noise term is 0 and the bound is the
    # sigma_z2 = 0 one, bit for bit
    loud = _shipped(tmp_path, "bound_fig4_hotafl.cfg", {"power_base": "1e200"},
                    "loud")
    _airfed("bound", "--config", loud, "--out", tmp_path / "o")
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
        _airfed("bound", "--config", cfg, "--out", tmp_path / stem)
        csvs.append((tmp_path / stem / "hotafl_bound.csv").read_bytes())
    assert csvs[0] == csvs[1]


def _float_fields(cls):
    return [f.name for f in dataclasses.fields(cls)
            if f.type in (float, Optional[float])]


@pytest.mark.parametrize("command, name, fields", (
    ("run", "synthetic_smoke.cfg", _float_fields(protocol.ScenarioConfig)),
    ("bound", "bound_fig4_hotafl.cfg", _float_fields(bounds.BoundParams))),
    ids=("run", "bound"))
def test_extreme_values_end_cleanly(tmp_path, command, name, fields):
    # every float field at +-1e300 and 1e-300 (the run at T = 3, all three
    # scenarios): the command succeeds or ends in one error line, and no
    # warning is raised in any thread; a run may stop after --out is made
    for field in fields:
        for val in ("1e300", "1e-300", "-1e300"):
            changes = {field: val, **({"T": "3"} if command == "run" else {})}
            cfg = _shipped(tmp_path, name, changes)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _airfed(command, "--config", cfg, "--out",
                        tmp_path / f"{field}{val}", error=_EITHER,
                        out_made=command == "run")


def _fake_run_csv(path, scenario, acc):
    with open(path, "w", newline="\n") as fh:
        fh.write("t,scenario,train_loss,test_acc,avg_tx_power,eta,power\n")
        fh.write(f"1,{scenario},1.0,0.1,0.0,0.05,1\n")
        fh.write(f"2,{scenario},0.5,{acc},0.0,0.05,1\n")


def test_summarize_identity_and_mean(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    _fake_run_csv(a, "hotafl", 0.8)
    _fake_run_csv(b, "hotafl", 0.9)
    out = str(tmp_path / "s.csv")
    _airfed("summarize", a, "--out", out)
    line = Path(out).read_text().splitlines()[1].split(",")
    assert line[:3] == ["hotafl", "1", "0.8"]
    _airfed("summarize", a, b, "--out", out)
    line = Path(out).read_text().splitlines()[1].split(",")
    assert float(line[2]) == pytest.approx(0.85)
    assert line[3] == "0.8" and line[4] == "0.9"
    # a file named twice, under any spelling, would count its run twice
    again = os.path.join(tmp_path, ".", "a.csv")
    _airfed("summarize", a, b, again, "--out", tmp_path / "twice.csv",
            error=f"{again}: names the same file as {a}")
    # and a summary written over an input would replace the run it reads
    run = Path(a).read_bytes()
    _airfed("summarize", a, b, "--out", again,
            error=f"--out {again} names the same file as the input {a}")
    assert Path(a).read_bytes() == run


def test_summarize_ordering_flag(tmp_path):
    hot, flat = str(tmp_path / "h.csv"), str(tmp_path / "f.csv")
    _fake_run_csv(hot, "hotafl", 0.7)
    _fake_run_csv(flat, "flat_ota", 0.9)   # flat beats hotafl -> flag false
    out = str(tmp_path / "s.csv")
    _airfed("summarize", hot, flat, "--out", out)
    rows = Path(out).read_text().splitlines()[1:]
    assert all(r.endswith(",false") for r in rows)
    assert rows[0].startswith("hotafl,") and rows[1].startswith("flat_ota,")


def test_summarize_malformed_csv(tmp_path):
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
        _airfed("summarize", bad, "--out", tmp_path / "s.csv",
                error=f"{bad}: {reason}")


def test_unknown_scenario_name_errors(tmp_path):
    cfg = _write(tmp_path, SMOKE)
    _airfed("run", "--config", cfg, "--out", tmp_path / "o", "--scenarios",
            "bogus", error=f"{cfg}: scenario must be one of "
            f"{protocol.SCENARIOS}, got 'bogus'")


def test_run_non_finite_is_one_line_error(tmp_path):
    # P_t = 1e-6 against sigma_z2 = 100: the recovered update swamps the
    # model and the loss overflows; 1e-310 overflows the update itself;
    # 1e200 overflows the transmit energy p_t^2 * sum |x|^2
    for power, msg in (("1e-6", "train loss is not finite at t=1"),
                       ("1e-310", "cluster 0 update is not finite at t=1"),
                       ("1e200", "transmit power is not finite at t=1")):
        cfg = _write(tmp_path, SMOKE.replace("sigma_z2 = 1\n",
                                             "sigma_z2 = 100\n")
                     + f"power_base = {power}\npower_slope = 0\n")
        _airfed("run", "--config", cfg, "--out", tmp_path / "o",
                "--scenarios", "hotafl", out_made=True,
                error=f"{cfg}: hotafl seed 5: {msg}")


@pytest.mark.parametrize("scenario", ("hotafl", "flat"))
def test_run_path_loss_overflow_is_one_line_error(tmp_path, scenario):
    # a user within 0.70 of its server has a gain d**-2000 above the
    # largest float: the run names path_loss_exp, not the update
    cfg = _shipped(tmp_path, "synthetic_smoke.cfg",
                   {"T": "3", "path_loss_exp": "2000"})
    _airfed("run", "--config", cfg, "--out", tmp_path / "o", "--scenarios",
            scenario, out_made=True,
            error=f"{cfg}: {cli.SCENARIO_ALIASES[scenario]} seed 7: "
            "path_loss_exp = 2000 gives a path-loss gain d**-p that is not "
            "finite")


def test_run_error_names_config_and_run(tmp_path, monkeypatch):
    # 600 rows over C*M = 6 users leave 100-row shards, fewer than a batch;
    # 19 rows cannot fill the 5*C*M = 20 label groups of a non-iid split;
    # an OSError too, such as MNIST without its directory or its files;
    # --out is made before the first run and keeps what was written
    empty = tmp_path / "empty"
    empty.mkdir()
    mnist = SMOKE.replace("dataset = synthetic", "dataset = mnist")
    monkeypatch.delenv(protocol.MNIST_DIR_ENV, raising=False)
    for text, data_dir, reason in (
            (SMOKE.replace("M = 2", "M = 3")
             .replace("train_samples = 300", "train_samples = 600")
             .replace("batch_size = 20", "batch_size = 200"), None,
             "batch_size 200 not in [1, 100]"),
            (SMOKE.replace("train_samples = 300", "train_samples = 19")
             + "partition = noniid\n", None, "fewer samples than groups"),
            (mnist, None, f"dataset=mnist needs the {protocol.MNIST_DIR_ENV} "
             "environment variable pointing at the IDX files"),
            (mnist, empty, f"no MNIST train IDX files under {empty}")):
        if data_dir:
            monkeypatch.setenv(protocol.MNIST_DIR_ENV, str(data_dir))
        cfg = _write(tmp_path, text.replace("seed = 5", "seed = 7"))
        out = str(tmp_path / "o")
        _airfed("run", "--config", cfg, "--out", out, "--scenarios", "hotafl",
                out_made=True, error=f"{cfg}: hotafl seed 7: {reason}")
        assert os.listdir(out) == []


def test_usage_error_exits_2(tmp_path):
    # argparse's own errors: a missing option or a value of the wrong type
    out = tmp_path / "o"
    _airfed("run", "--out", out, status=2,
            error="the following arguments are required: --config")
    _airfed("run", "--config", _write(tmp_path, SMOKE), "--out", out,
            "--seeds", "abc", status=2,
            error="argument --seeds: invalid int value: 'abc'")
