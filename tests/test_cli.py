import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weylzeros import cli


def write_config(tmp_path, text):
    p = tmp_path / "cfg.ini"
    p.write_text(text)
    return str(p)


def test_missing_config_file(tmp_path):
    rc = cli.main(["cw", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
    assert rc == cli.EXIT_CODES["config"]


def test_empty_config_names_required_keys(tmp_path, capsys):
    cfg = write_config(tmp_path, "")
    rc = cli.main(["expect", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CODES["config"]
    err = capsys.readouterr().err
    assert "error[config]" in err
    for key in ("dist", "n", "a", "b", "trials"):
        assert key in err


def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "[expect]\ndist = gaussian\nn = 100\na = 2\nb = 8\n"
                                 "trials = 10\nbanana = 3\n")
    rc = cli.main(["expect", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "1"])
    assert rc == cli.EXIT_CODES["config"]
    assert "banana" in capsys.readouterr().err


def test_missing_seed_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "[expect]\ndist = gaussian\nn = 100\na = 2\nb = 8\ntrials = 10\n")
    rc = cli.main(["expect", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CODES["config"]
    assert "seed" in capsys.readouterr().err


EXPECT_SMALL = "[expect]\ndist = gaussian\nn = 100\na = 2\nb = 8\ntrials = 10\n"


def test_worker_env_not_an_integer_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("WEYLZEROS_WORKERS", "two")
    cfg = write_config(tmp_path, EXPECT_SMALL)
    rc = cli.main(["expect", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "1"])
    assert rc == cli.EXIT_CODES["config"]
    err = capsys.readouterr().err
    assert "error[config]" in err and "WEYLZEROS_WORKERS" in err


POINT_SMALL = {
    "smallball": ("[smallball]\ndist = rademacher\nn = 200\nx = 8.0\ndeltas = 0.05,0.1\n"
                  "trials = 1000\n", "smallball.csv"),
    "fit": ("[fit]\ndist = rademacher\nn = 200\nx = 8.0\ntrials = 1000\n", "fit.csv"),
}


@pytest.mark.parametrize("sub", sorted(POINT_SMALL))
def test_point_experiments_read_worker_env(tmp_path, monkeypatch, capsys, sub):
    monkeypatch.setenv("WEYLZEROS_WORKERS", "two")
    cfg = write_config(tmp_path, POINT_SMALL[sub][0])
    rc = cli.main([sub, "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "1"])
    assert rc == cli.EXIT_CODES["config"]
    assert "WEYLZEROS_WORKERS" in capsys.readouterr().err


@pytest.mark.parametrize("sub", sorted(POINT_SMALL))
def test_point_experiments_rerun_at_other_worker_count(tmp_path, sub):
    text, name = POINT_SMALL[sub]
    out1, out2 = tmp_path / "w2", tmp_path / "w1"
    assert cli.main([sub, "--config", write_config(tmp_path, text), "--out", str(out1),
                     "--seed", "6", "--workers", "2"]) == 0
    assert cli.main([sub, "--config", str(out1 / "manifest.json"), "--out", str(out2),
                     "--workers", "1"]) == 0
    assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_negative_workers_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, EXPECT_SMALL)
    rc = cli.main(["expect", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "1",
                   "--workers", "-1"])
    assert rc == cli.EXIT_CODES["config"]
    assert "error[config]" in capsys.readouterr().err


def test_edge_mode_past_the_soft_edge_is_config_error(tmp_path, capsys):
    # edge_mode lifts the guard b <= sqrt(n) - n^0.1, not the window rule's sqrt(n) + 1
    cfg = write_config(tmp_path, "[expect]\ndist = gaussian\nn = 400\na = 5\nb = 35\n"
                                 "trials = 10\nedge_mode = true\n")
    rc = cli.main(["expect", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "1"])
    assert rc == cli.EXIT_CODES["config"]
    assert "error[config]" in capsys.readouterr().err


def test_expect_csv_schema_and_roundtrip(tmp_path):
    cfg = write_config(
        tmp_path,
        "[expect]\ndist = gaussian\nn = 200\na = 2.0\nb = 11.0\ntrials = 300\n",
    )
    out1 = tmp_path / "run1"
    assert cli.main(["expect", "--config", cfg, "--out", str(out1), "--seed", "9",
                     "--workers", "2"]) == 0
    rows = list(csv.reader(open(out1 / "expectation.csv")))
    assert rows[0] == ["dist", "n", "a", "b", "trials", "mean", "se_mean",
                       "theory_mean", "z"]
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["seed"] == 9 and manifest["subcommand"] == "expect"
    # byte-identical re-run from the emitted manifest
    out2 = tmp_path / "run2"
    assert cli.main(["expect", "--config", str(out1 / "manifest.json"),
                     "--out", str(out2), "--workers", "1"]) == 0
    assert (out1 / "expectation.csv").read_bytes() == (out2 / "expectation.csv").read_bytes()


def test_variance_csv_schema(tmp_path):
    cfg = write_config(
        tmp_path,
        "[variance]\ndist = rademacher\nn = 200\na = 2.0\nb = 11.0\ntrials = 300\n",
    )
    out = tmp_path / "v"
    assert cli.main(["variance", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    rows = list(csv.reader(open(out / "variance.csv")))
    assert rows[0] == ["dist", "n", "a", "b", "trials", "var", "se_var",
                       "theory_var", "z"]


def test_smallball_csv_schema(tmp_path):
    cfg = write_config(
        tmp_path,
        "[smallball]\ndist = rademacher\nn = 200\nx = 8.0\ndeltas = 0.05,0.1\ntrials = 5000\n",
    )
    out = tmp_path / "sb"
    assert cli.main(["smallball", "--config", cfg, "--out", str(out), "--seed", "4"]) == 0
    rows = list(csv.reader(open(out / "smallball.csv")))
    assert rows[0] == ["dist", "n", "x", "delta", "dim", "freq", "freq_over_vol",
                       "theory"]
    assert len(rows) == 5  # two deltas x two dimensions


def test_blocks_csv_long_form(tmp_path):
    cfg = write_config(
        tmp_path,
        "[blocks]\ndist = gaussian\nn = 200\na = 2.0\nb = 11.0\ntrials = 200\n",
    )
    out = tmp_path / "b"
    assert cli.main(["blocks", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
    rows = list(csv.reader(open(out / "blocks.csv")))
    assert rows[0] == ["s", "t", "cov"]
    k = int(math.isqrt(len(rows) - 1))
    assert k * k == len(rows) - 1


def test_edgeworth_ledger_value(tmp_path, capsys):
    cfg = write_config(tmp_path, "[edgeworth]\ndist = rademacher\n")
    out = tmp_path / "e"
    assert cli.main(["edgeworth", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    expected_c1 = -7.0 / (192 * math.pi * math.sqrt(math.pi))
    assert repr(expected_c1) in printed
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["result"]["k4_coeff"] == pytest.approx(expected_c1, rel=1e-12)
    assert manifest["result"]["c_xi"] == pytest.approx(-2 * expected_c1, rel=1e-12)


def test_cw_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, "[cw]\n")
    out = tmp_path / "c"
    assert cli.main(["cw", "--config", cfg, "--out", str(out)]) == 0
    info = json.loads((out / "cw.json").read_text())
    assert abs(info["selected"] - 0.18198) < 1e-3
    assert "reading_a" in info and "reading_b" in info


def test_density_csv(tmp_path):
    cfg = write_config(tmp_path, "[density]\nn = 400\na = 2.0\nb = 6.0\nstep = 1.0\n")
    out = tmp_path / "d"
    assert cli.main(["density", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.reader(open(out / "density.csv")))
    assert rows[0] == ["x", "rho"]
    assert float(rows[1][1]) == pytest.approx(1 / math.pi, abs=1e-3)


def test_python_m_runs_without_runpy_warning(tmp_path):
    # the package must not import cli itself, or runpy warns before main runs
    cfg = write_config(tmp_path, "[density]\nn = 400\na = 2.0\nb = 6.0\nstep = 1.0\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "weylzeros.cli", "density",
         "--config", cfg, "--out", str(tmp_path / "d")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "d" / "density.csv").exists()


def test_lcd_profile_and_summary(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[lcd]\nfamily = sk\nn = 64\nr = 0.5\nd_max = 3.0\ntau = 1.0\nstep = 0.001\n",
    )
    out = tmp_path / "l"
    assert cli.main(["lcd", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.reader(open(out / "lcd_profile.csv")))
    assert rows[0] == ["D", "objective"]
    summary = json.loads((out / "manifest.json").read_text())["result"]
    assert summary["max_excluded_supported"] == 3


def test_acceptance_gate_exit_code(tmp_path):
    cfg = write_config(
        tmp_path,
        "[expect]\ndist = gaussian\nn = 200\na = 2.0\nb = 11.0\ntrials = 100\n"
        "max_abs_z = 0.000001\n",
    )
    rc = cli.main(["expect", "--config", cfg, "--out", str(tmp_path / "g"),
                   "--seed", "12"])
    assert rc == cli.EXIT_CODES["acceptance"]


def test_resource_exit_code(tmp_path):
    cfg = write_config(
        tmp_path,
        "[expect]\ndist = gaussian\nn = 400\na = 2.0\nb = 18.0\ntrials = 1000000000\n",
    )
    rc = cli.main(["expect", "--config", cfg, "--out", str(tmp_path / "r"),
                   "--seed", "12"])
    assert rc == cli.EXIT_CODES["resource"]
