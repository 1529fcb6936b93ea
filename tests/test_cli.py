import csv
import json
import math
import os
import re
from pathlib import Path

import pytest

from fefetsim import cli, engine


def _run(tmp_path, *argv):
    return cli.main([*argv, "--out", str(tmp_path)])


def test_verify_scheme_nominal_passes(tmp_path, capsys):
    status = _run(tmp_path, "verify-scheme", "--vw0", "-1.5", "--vw1", "3.2",
                  "--scheme", "mixed")
    assert status == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "pass" in out and "disturb" not in out.replace("disturb\n", "")
    summary = json.loads(
        (tmp_path / "verify-scheme" / "summary.json").read_text())
    assert summary["any_disturb"] is False


def test_verify_scheme_flags_disturb_with_exit_code(tmp_path, capsys):
    status = _run(tmp_path, "verify-scheme", "--vw0", "-1.0", "--vw1", "4.5",
                  "--scheme", "vdd3")
    assert status == cli.EXIT_CHECK_FAILED
    assert "disturb" in capsys.readouterr().out


def test_verify_scheme_partial_risk_still_exits_ok(tmp_path, capsys):
    status = _run(tmp_path, "verify-scheme", "--vw0", "-1.0", "--vw1", "2.1",
                  "--scheme", "vdd3")
    assert status == cli.EXIT_OK
    assert "partial-risk" in capsys.readouterr().out


def test_word_write_single_word(tmp_path, capsys):
    status = _run(tmp_path, "run", "word-write", "--word", "0x0F",
                  "--rows", "4", "--cols", "4")
    assert status == cli.EXIT_OK
    assert "0x0F" in capsys.readouterr().out
    with open(tmp_path / "word-write" / "word_write.csv", newline="") as fh:
        (entry,) = csv.DictReader(fh)
    # all four columns of a 4-column array hold a '1': no '0' current
    assert entry["readback"] == "15" and entry["max_zero_amps"] == "nan"


def test_word_write_covers_every_word_of_the_requested_array(tmp_path):
    assert _run(tmp_path, "run", "word-write", "--rows", "4", "--cols", "4") \
        == cli.EXIT_OK
    with open(tmp_path / "word-write" / "word_write.csv", newline="") as fh:
        entries = list(csv.DictReader(fh))
    assert [int(e["word"]) for e in entries] == list(range(16))
    assert {int(e["row"]) for e in entries} == {0, 1, 2, 3}


@pytest.mark.parametrize("argv, message", [
    (("--cols", str(cli.WORD_WRITE_MAX_COLS + 1)), "give --word"),
    (("--word=0x10", "--cols", "4"), "does not fit in 4 columns"),
    (("--word=0x1F", "--cols", "4"), "does not fit in 4 columns"),
    (("--word=-1", "--cols", "4"), "does not fit in 4 columns"),
])
def test_word_write_refuses_what_does_not_fit_the_array(tmp_path, capsys,
                                                         argv, message):
    assert _run(tmp_path, "run", "word-write", *argv) == cli.EXIT_BAD_VALUE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not (tmp_path / "word-write").exists()


@pytest.mark.parametrize("argv", [
    ("run", "disturb", "--rows", "1", "--cols", "3"),
    ("run", "disturb", "--rows", "3", "--cols", "1"),
    ("all", "--rows", "1"),
])
def test_disturb_on_a_one_line_array_exits_five(tmp_path, capsys, argv):
    assert _run(tmp_path, *argv) == cli.EXIT_BAD_VALUE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "at least a 2x2 array" in err
    # refused before its first step: no experiment wrote anything
    assert not [p for p in tmp_path.iterdir() if p.is_dir()]


def _readme_config(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    path = tmp_path / "example.json"
    path.write_text(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    return path


def test_all_writes_the_8x8_word_demo_whatever_the_config_size(tmp_path,
                                                               monkeypatch):
    cfg_path = _readme_config(tmp_path)
    assert json.loads(cfg_path.read_text())["cols"] > cli.WORD_WRITE_MAX_COLS
    # only the word-write step runs: the others take minutes at 64x64
    run = cli.cmd_run
    monkeypatch.setattr(cli, "cmd_run", lambda args, cfg, prov: run(
        args, cfg, prov) if args.experiment == "word-write" else cli.EXIT_OK)
    for name in ("cmd_device_sweep", "cmd_verify_scheme", "cmd_mc",
                 "cmd_power", "cmd_area"):
        monkeypatch.setattr(cli, name, lambda args, cfg, prov: cli.EXIT_OK)
    assert _run(tmp_path, "all", "--config", str(cfg_path)) == cli.EXIT_OK
    with open(tmp_path / "word-write" / "word_write.csv", newline="") as fh:
        entries = list(csv.DictReader(fh))
    assert [int(e["word"]) for e in entries] == list(range(256))
    assert {int(e["row"]) for e in entries} == set(range(8))


def test_disturb_command_artifacts(tmp_path):
    status = _run(tmp_path, "run", "disturb", "--rows", "4", "--cols", "4")
    assert status == cli.EXIT_OK
    out = tmp_path / "disturb"
    assert (out / "disturb.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_logic_preserved"] is True
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "disturb"
    assert manifest["config"]["rows"] == 4
    assert manifest["config_provenance"]["rows"] == "flag"
    assert any(a["file"] == "disturb.csv" and len(a["sha256"]) == 64
               for a in manifest["artifacts"])


def test_mc_seeded_and_deterministic(tmp_path):
    status = _run(tmp_path, "mc", "--samples", "25", "--seed", "42")
    assert status == cli.EXIT_OK
    first = (tmp_path / "mc" / "mc.csv").read_bytes()
    status = _run(tmp_path, "mc", "--samples", "25", "--seed", "42")
    assert status == cli.EXIT_OK
    assert (tmp_path / "mc" / "mc.csv").read_bytes() == first


def test_power_command(tmp_path):
    assert _run(tmp_path, "power") == cli.EXIT_OK
    summary = json.loads((tmp_path / "power" / "summary.json").read_text())
    assert summary["flatness"] <= 1.2


def test_area_command_prints_comparison(tmp_path, capsys):
    assert _run(tmp_path, "area") == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "AND" in out and "C-AND" in out
    rows = (tmp_path / "area" / "area.csv").read_text().splitlines()
    assert rows[0] == "spacing,and_lambda2,cand_lambda2,improvement"
    assert len(rows) == 3


def test_device_sweep_with_plots(tmp_path):
    assert _run(tmp_path, "device-sweep", "--plot") == cli.EXIT_OK
    out = tmp_path / "device-sweep"
    assert (out / "transfer.csv").exists()
    assert (out / "hysteresis.csv").exists()
    assert (out / "transfer.svg").exists()
    assert (out / "hysteresis.svg").exists()


def test_missing_config_file_exit_code(tmp_path, capsys):
    status = _run(tmp_path, "area", "--config", str(tmp_path / "nope.json"))
    assert status == cli.EXIT_MISSING_FILE
    assert "not found" in capsys.readouterr().err


def test_unknown_config_key_exit_code(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text('{"schema_version": 1, "rowz": 4}')
    status = _run(tmp_path, "area", "--config", str(cfgfile))
    assert status == cli.EXIT_UNKNOWN_KEY
    assert "rowz" in capsys.readouterr().err


def test_bad_config_value_exit_code(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text('{"schema_version": 1, "topology": "nor"}')
    status = _run(tmp_path, "area", "--config", str(cfgfile))
    assert status == cli.EXIT_BAD_VALUE
    assert "topology" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("gate_mode", "dividr"), ("swing", 0), ("vc_program", -1), ("g_min", -1),
    ("t_fe", 0), ("vt_mid", math.nan), ("lam", math.inf), ("r_metal", 0),
    ("n_slope", 0), ("lam", -1), ("c_metal", -1), ("sigma_v_w0", -1),
])
def test_rejected_model_value_exits_five(tmp_path, capsys, field, value):
    # each value is refused by the parameter class that holds it, by
    # load_config for the fields no class holds, or as a non-finite number,
    # before anything runs
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"schema_version": 1, field: value}))
    status = _run(tmp_path, "mc", "--samples", "2", "--config", str(cfgfile))
    assert status == cli.EXIT_BAD_VALUE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not (tmp_path / "mc").exists()


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("FEFETSIM_OUT", str(tmp_path / "envout"))
    assert cli.main(["area"]) == cli.EXIT_OK
    assert (tmp_path / "envout" / "area" / "summary.json").exists()


@pytest.mark.parametrize("argv, command, status", [
    (("run", "disturb", "--rows", "4", "--cols", "4"), "disturb",
     cli.EXIT_CHECK_FAILED),
    (("run", "word-write", "--word", "0x0F", "--rows", "4", "--cols", "4"),
     "word-write", cli.EXIT_OK),
    (("mc", "--samples", "5"), "mc", cli.EXIT_CHECK_FAILED),
    (("run", "disturb-accumulate"), "disturb-accumulate", cli.EXIT_OK),
])
def test_commands_simulate_and_record_the_and_topology(tmp_path, argv,
                                                       command, status):
    assert _run(tmp_path, *argv, "--topology", "and") == status
    manifest = json.loads((tmp_path / command / "manifest.json").read_text())
    assert manifest["config"]["topology"] == "and"
    assert manifest["config_provenance"]["topology"] == "flag"


def test_and_disturb_flips_only_the_programmed_diagonal_cell(tmp_path):
    status = _run(tmp_path, "run", "disturb", "--rows", "4", "--cols", "4",
                  "--topology", "and")
    assert status == cli.EXIT_CHECK_FAILED
    with open(tmp_path / "disturb" / "disturb.csv", newline="") as fh:
        flips = [(e["group"], e["initial_state"], e["op"])
                 for e in csv.DictReader(fh)
                 if e["read_logic"] != e["expected_logic"]]
    assert flips == [("diagonal", "1", "write1")]


def test_and_mc_leak_closes_the_read_window(tmp_path):
    assert _run(tmp_path, "mc", "--samples", "5", "--topology", "and") == \
        cli.EXIT_CHECK_FAILED
    summary = json.loads((tmp_path / "mc" / "summary.json").read_text())
    # 511 unselected AND cells leak more than the read reference current
    assert summary["added_leak_amps"] > 2e-9
    assert summary["min_on_off_ratio"] < 10.0


def test_read_that_does_not_converge_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(engine, "MAX_NEWTON_ITER", 0)
    status = _run(tmp_path, "run", "disturb", "--rows", "2", "--cols", "2")
    assert status == cli.EXIT_CHECK_FAILED
    assert "did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--vw0", "0.5"), ("--vw1", "-1")])
def test_verify_scheme_wrong_sign_write_voltage_exit_code(tmp_path, capsys,
                                                          flag, value):
    assert _run(tmp_path, "verify-scheme", flag, value) == cli.EXIT_BAD_VALUE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "v_w0 < 0 < v_w1" in err
