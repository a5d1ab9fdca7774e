import dataclasses
import json
import os

import numpy as np
import pytest

from airfed import bounds, cli, protocol

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
    # a manifest float is not truncated into an int field
    out = str(tmp_path / "a")
    assert cli.main(["bound", "--config", _write(tmp_path, BOUND),
                     "--out", out]) == 0
    man_path = os.path.join(out, "manifest.json")
    man = json.load(open(man_path))
    man["config"]["N"] = 3925.7
    json.dump(man, open(man_path, "w"))
    with pytest.raises(cli.ConfigError, match=r"manifest.json:0: .*'N'"):
        cli._load_config(man_path, "bound")
    for bad in ([1], {"kind": "bound", "config": [1]}, {"kind": "run"}):
        json.dump(bad, open(man_path, "w"))
        with pytest.raises(cli.ConfigError, match="not a bound manifest"):
            cli._load_config(man_path, "bound")


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
    man = json.load(open(os.path.join(out, "manifest.json")))
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


def test_manifest_rerun_byte_identical(tmp_path):
    cfg = _write(tmp_path, SMOKE)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["run", "--config", cfg, "--out", out1,
                     "--scenarios", "hotafl,flat"]) == 0
    assert cli.main(["run", "--config", os.path.join(out1, "manifest.json"),
                     "--out", out2]) == 0
    for name in os.listdir(out1):
        if name.endswith(".csv"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b, name


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
    man = json.load(open(os.path.join(out1, "manifest.json")))
    assert sorted(man["config"]) == sorted(
        f.name for f in dataclasses.fields(bounds.BoundParams) if f.init)
    assert cli.main(["bound", "--config", os.path.join(out1, "manifest.json"),
                     "--out", out2]) == 0
    assert open(csv_path, "rb").read() == \
        open(os.path.join(out2, "hotafl_bound.csv"), "rb").read()


def _fake_run_csv(path, scenario, acc):
    with open(path, "w", newline="\n") as fh:
        fh.write("t,scenario,train_loss,test_acc,avg_tx_power,eta,power\n")
        fh.write(f"1,{scenario},1.0,0.1,0.0,0.05,1\n")
        fh.write(f"2,{scenario},0.5,{acc},0.0,0.05,1\n")


def test_summarize_identity_and_mean(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    _fake_run_csv(a, "hotafl", 0.8)
    _fake_run_csv(b, "hotafl", 0.9)
    out = str(tmp_path / "s.csv")
    assert cli.main(["summarize", a, "--out", out]) == 0
    line = open(out).read().splitlines()[1].split(",")
    assert line[:3] == ["hotafl", "1", "0.8"]
    assert cli.main(["summarize", a, b, "--out", out]) == 0
    line = open(out).read().splitlines()[1].split(",")
    assert float(line[2]) == pytest.approx(0.85)
    assert line[3] == "0.8" and line[4] == "0.9"


def test_summarize_ordering_flag(tmp_path):
    hot = str(tmp_path / "h.csv")
    flat = str(tmp_path / "f.csv")
    _fake_run_csv(hot, "hotafl", 0.7)
    _fake_run_csv(flat, "flat_ota", 0.9)   # flat beats hotafl -> flag false
    out = str(tmp_path / "s.csv")
    assert cli.main(["summarize", hot, flat, "--out", out]) == 0
    rows = open(out).read().splitlines()[1:]
    assert all(r.endswith(",false") for r in rows)
    assert rows[0].startswith("hotafl,") and rows[1].startswith("flat_ota,")


def test_summarize_malformed_csv(tmp_path):
    bad = str(tmp_path / "bad.csv")
    open(bad, "w").write("nope\n1,2\n")
    assert cli.main(["summarize", bad, "--out", str(tmp_path / "s.csv")]) == 1


def test_unknown_scenario_name_errors(tmp_path):
    cfg = _write(tmp_path, SMOKE)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--scenarios", "bogus"]) == 1


def test_run_placement_failure_is_one_line_error(tmp_path, capsys):
    cfg = _write(tmp_path, SMOKE + "target_alpha = 0.1\n"
                 "max_place_retries = 3\n")
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--scenarios", "hotafl"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("airfed: error: no placement")
    assert err.count("\n") == 1


def test_run_non_finite_is_one_line_error(tmp_path, capsys):
    # P_t = 1e-6 against sigma_z2 = 100: the recovered update swamps the
    # model and the loss overflows; 1e-310 overflows the update itself
    for power, msg in (("1e-6", "train loss is not finite at t=1"),
                       ("1e-310", "cluster 0 update is not finite at t=1")):
        cfg = _write(tmp_path, SMOKE.replace("sigma_z2 = 1\n",
                                             "sigma_z2 = 100\n")
                     + f"power_base = {power}\npower_slope = 0\n")
        assert cli.main(["run", "--config", cfg, "--out",
                         str(tmp_path / "o"), "--scenarios", "hotafl"]) == 1
        assert capsys.readouterr().err == f"airfed: error: {msg}\n"
