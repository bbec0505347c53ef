import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pinchlab
from pinchlab import (
    EstimateVariant,
    FlowParams,
    InequalityKind,
    QuantityKind,
    SetKind,
    isotropic_solution,
)
from pinchlab.cli import CSV_HEADER, _build_parser, main, write_report


def run(args):
    return main([str(a) for a in args])


# ----------------------------------------------------------------- simulate


def test_simulate_csv(tmp_path):
    out = tmp_path / "iso.csv"
    code = run(
        ["simulate", "--state", "1,1,1", "--rho", "-1", "--t-end", "0.01", "--out", out]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0] == CSV_HEADER
    assert len(data) == 1 + 201  # header + default points
    assert any("params.rho = -1" in ln for ln in meta)
    # values follow the closed form c/(1 - 16 c t) at rho = -1
    p = FlowParams(rho=-1.0)
    row = data[5].split(",")
    t, lam = float(row[0]), float(row[1])
    assert lam == pytest.approx(isotropic_solution(1.0, p, t), rel=1e-8)
    # R column is twice the trace
    assert float(row[4]) == pytest.approx(2 * 3 * lam, rel=1e-12)


def test_simulate_zero_span_writes_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert run(["simulate", "--state", "1,0,-1", "--rho", "0", "--t-end", "0",
                "--out", out]) == 0
    data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert data == [CSV_HEADER]


def test_simulate_backward_span_is_usage_error(tmp_path, capsys):
    code = run(["simulate", "--state", "1,0,-1", "--rho", "0", "--t0", "1.0",
                "--t-end", "0.5", "--out", tmp_path / "x.csv"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("rho, t0", [(-0.5, -1.0), (-1.0, -3.0)])
def test_simulate_negative_t0_is_usage_error(rho, t0, tmp_path, capsys):
    # the region clocks and trigger time factors are stated for t >= 0:
    # at -1 the nu trigger divided by zero after integrating, and at -3
    # the margins refused every checkpoint time
    out = tmp_path / "x.csv"
    code = run(["simulate", "--state", "1,0,-1", "--rho", rho, "--eta", "1", "--t0", t0,
                "--t-end", "0.1", "--out", out])
    assert code == 2
    assert capsys.readouterr().err == f"error: --t0 must be >= 0, got {t0}\n"
    assert not out.exists()


def test_simulate_rejects_unordered_state(tmp_path, capsys):
    code = run(["simulate", "--state", "0,1,2", "--rho", "0", "--t-end", "0.1",
                "--out", tmp_path / "x.csv"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_nan_cone_columns_for_inadmissible_sets(tmp_path):
    # at rho = 0.1 the static/trace-positive margins are undefined: NaN cols
    out = tmp_path / "k.csv"
    run(["simulate", "--state", "1,1,1", "--rho", "0.1", "--t-end", "0.01", "--out", out])
    data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][1]
    cols = data.split(",")
    assert cols[6] == "nan" and cols[7] == "nan"  # margin_X, margin_W
    assert cols[8] != "nan"  # margin_K live at these params


# --------------------------------------------------------------------- scan


def test_scan_json_round_trip(tmp_path):
    out = tmp_path / "scan.json"
    code = run(["scan", "--kind", "j-neg-trace", "--rho", "-1",
                "--resolution", "50", "--out", out])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["violations"] == 0
    assert doc["report"]["kind"] == "j-neg-trace"
    assert doc["meta"]["command"] == "scan"
    # json text is sorted -> "meta" appears before "report"
    raw = out.read_text()
    assert raw.index('"meta"') < raw.index('"report"')


def test_scan_unknown_kind_is_usage_error(capsys):
    assert run(["scan", "--kind", "bogus", "--rho", "-1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_scan_wrong_window_is_usage_error(capsys):
    assert run(["scan", "--kind", "i-poly", "--rho", "-0.5"]) == 2
    capsys.readouterr()


def test_xi_prime_at_rho_zero_is_scan_window_error(capsys):
    # the default theta = -1/(2 rho) exists only inside the scan window
    assert run(["scan", "--kind", "xi-prime", "--rho", "0"]) == 2
    assert "error: xi-prime scan needs eta > 0 and -1/eta < rho < 0" in (
        capsys.readouterr().err
    )


UNKNOWN_TOKENS = {
    "kind": (["scan", "--kind", "nope", "--rho", "-1"], InequalityKind),
    "set": (["verify-set", "--set", "Z", "--rho", "-1"], SetKind),
    "recheck-set": (
        ["verify-set", "--set", "X", "--recheck-set", "Z", "--rho", "-1"], SetKind
    ),
    "variant": (["verify-estimate", "--variant", "nope", "--rho", "-1"], EstimateVariant),
    "quantity": (["deriv-check", "--quantity", "nope", "--rho", "-1"], QuantityKind),
}


@pytest.mark.parametrize("option", list(UNKNOWN_TOKENS))
def test_unknown_token_lists_valid_tokens(option, capsys):
    args, tokens = UNKNOWN_TOKENS[option]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown --{option} ")
    assert err.endswith(f"; expected one of {', '.join(t.value for t in tokens)}\n")


def test_xi_prime_theta_defaults_to_half_inverse_rho(tmp_path):
    out = tmp_path / "xi.json"
    code = run(["scan", "--kind", "xi-prime", "--rho", "-0.5", "--eta", "1",
                "--resolution", "40", "--out", out])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["params"]["theta"] == 1.0


def test_trace_bound_random_cli(tmp_path):
    out = tmp_path / "tb.json"
    code = run(["scan", "--kind", "trace-bound", "--rho", "0.2",
                "--samples", "5000", "--seed", "1", "--out", out])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["mode"] == "random"
    assert doc["report"]["injected_max_abs_margin"] <= 1e-12


# -------------------------------------------------------------- verify-set


def test_verify_set_text_report(tmp_path, capsys):
    out = tmp_path / "x.txt"
    code = run(["verify-set", "--set", "X", "--rho", "-1", "--samples", "20",
                "--horizon", "0.02", "--seed", "42", "--out", out])
    assert code == 0
    text = out.read_text()
    m = re.search(r"^report\.worst_drift = (\S+)$", text, re.M)
    assert m, text
    assert float(m.group(1)) >= -1e-8
    assert re.search(r"^report\.claimed = True$", text, re.M)


def test_verify_set_recheck_is_observation(tmp_path):
    out = tmp_path / "yk.json"
    code = run(["verify-set", "--set", "Y", "--rho", "-0.5", "--eta", "1",
                "--samples", "6", "--horizon", "0.02", "--seed", "3",
                "--recheck-set", "K", "--out", out])
    assert code == 0  # observations never fail the run
    doc = json.loads(out.read_text())
    assert doc["report"]["claimed"] is False
    assert doc["report"]["recheck_kind"] == "K"


# --------------------------------------------------- verify-estimate / deriv

SIMULATE = ["simulate", "--state", "1,0,-1", "--rho", "0", "--t-end", "0.1"]
EMPTY_RUNS = {
    "count": (["verify-estimate", "--variant", "nonneg-rho", "--rho", "0.1", "--count", "0"],
              "count must be positive"),
    "count (negative)": (["verify-estimate", "--variant", "nonneg-rho", "--rho", "0.1",
                          "--count", "-3"], "count must be positive"),
    "trajectories": (["deriv-check", "--quantity", "lambda-pinch", "--rho", "-1",
                      "--trajectories", "0"], "trajectories must be positive"),
    "samples": (["scan", "--kind", "trace-bound", "--rho", "0", "--samples", "0"],
                "samples must be positive"),
    # no rows at all, or a numpy error about the sample count
    "points": (SIMULATE + ["--points", "0"], "points must be >= 2"),
    "points (negative)": (SIMULATE + ["--points", "-3"], "points must be >= 2"),
}


@pytest.mark.parametrize("case", list(EMPTY_RUNS))
def test_run_that_checks_nothing_is_usage_error(case, tmp_path, capsys):
    args, message = EMPTY_RUNS[case]
    out = tmp_path / "never.json"
    assert run(args + ["--out", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()



BAD_TOL_RUNS = {
    "scan": ["scan", "--kind", "i-poly", "--rho", "0.1", "--resolution", "20"],
    "verify-set": ["verify-set", "--set", "K", "--rho", "0.1", "--samples", "3"],
    "verify-estimate": ["verify-estimate", "--variant", "nonneg-rho", "--rho", "0.1",
                        "--count", "2"],
    "deriv-check": ["deriv-check", "--quantity", "lambda-pinch", "--rho", "-1",
                    "--trajectories", "2"],
}


@pytest.mark.parametrize("tol", ["inf", "-1"])
@pytest.mark.parametrize("command", list(BAD_TOL_RUNS))
def test_tol_must_be_finite_and_nonnegative(command, tol, tmp_path, capsys):
    # an infinite tol passed every verdict and a negative one failed
    # runs that hold
    out = tmp_path / "never.json"
    assert run(BAD_TOL_RUNS[command] + ["--tol", tol, "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"error: tol must be finite and >= 0, got {float(tol)!r}\n"
    )
    assert not out.exists()


def test_verify_set_claim_with_step_limited_lanes_fails(tmp_path):
    # a lane stopped at the step limit was not checked up to the horizon
    args = ["verify-set", "--set", "K", "--samples", "3", "--max-steps", "1"]
    assert run(args + ["--rho", "0.1", "--out", tmp_path / "k.json"]) == 1
    doc = json.loads((tmp_path / "k.json").read_text())
    assert doc["report"]["claimed"] is True
    assert doc["report"]["terminal_kinds"] == {"step_limit": 3}
    # an observation run states no claim and still exits 0
    assert run(args + ["--rho", "-0.5", "--eta", "1", "--recheck-set", "K",
                       "--out", tmp_path / "obs.json"]) == 0


def test_verify_estimate_with_step_limited_lanes_fails(tmp_path):
    out = tmp_path / "est.json"
    assert run(["verify-estimate", "--variant", "nonneg-rho", "--rho", "0.1", "--count", "2",
                "--max-steps", "3", "--out", out]) == 1
    assert json.loads(out.read_text())["report"]["terminal_kinds"] == {"step_limit": 2}


def test_verify_estimate_cli(tmp_path):
    out = tmp_path / "est.json"
    code = run(["verify-estimate", "--variant", "neg-rho-scalar", "--rho", "-1",
                "--count", "6", "--seed", "2", "--out", out])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["worst_slack"] >= -1e-8
    assert doc["report"]["blowups"] == 6
    assert doc["report"]["min_coverage"] >= 0.9


def test_deriv_check_cli_and_failure_exit(tmp_path):
    out = tmp_path / "d.json"
    ok = run(["deriv-check", "--quantity", "lambda-pinch", "--rho", "-1",
              "--trajectories", "3", "--out", out])
    assert ok == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["decay_ratio"] > 2.5
    # an absurdly tight tolerance must flip the exit code, not crash
    bad = run(["deriv-check", "--quantity", "lambda-pinch", "--rho", "-1",
               "--trajectories", "3", "--tol", "1e-15", "--out", tmp_path / "d2.json"])
    assert bad == 1


def test_deriv_check_reports_worst_trajectory_and_checkpoints(tmp_path):
    args = ["deriv-check", "--quantity", "xi-pinch", "--rho", "0.1", "--trajectories", "3"]
    assert run(args + ["--out", tmp_path / "d.json"]) == 0
    report = json.loads((tmp_path / "d.json").read_text())["report"]
    assert report["checkpoints"] == 3 * 33 * 2
    assert report["worst_trajectory"] in (0, 1, 2)
    assert run(args + ["--out", tmp_path / "d.txt"]) == 0
    text = (tmp_path / "d.txt").read_text().splitlines()
    assert "report.checkpoints = 198" in text
    assert f"report.worst_trajectory = {report['worst_trajectory']}" in text


# ------------------------------------------------------------ config files


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "params": {"rho": -1.0},
        "command": {"kind": "j-neg-trace", "resolution": 30},
        "output": {"out": str(tmp_path / "a.json"), "format": "json"},
    }))
    assert run(["scan", "--config", cfg]) == 0
    assert json.loads((tmp_path / "a.json").read_text())["report"]["resolution"] == 30
    # a flag beats the file
    assert run(["scan", "--config", cfg, "--resolution", "40",
                "--out", tmp_path / "b.json"]) == 0
    assert json.loads((tmp_path / "b.json").read_text())["report"]["resolution"] == 40


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"params": {"rho": -1.0, "sigma": 2.0}}))
    assert run(["scan", "--config", cfg, "--kind", "j-neg-trace"]) == 2
    assert "sigma" in capsys.readouterr().err
    cfg.write_text(json.dumps({"settings": {}}))
    assert run(["scan", "--config", cfg, "--kind", "j-neg-trace"]) == 2
    assert "settings" in capsys.readouterr().err
    # the isotropic equality states are always injected: no key skips them
    cfg.write_text(json.dumps({"command": {"samples": 10, "inject": False}}))
    assert run(["scan", "--config", cfg, "--kind", "trace-bound", "--rho", "0"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: unknown keys ['inject'] in config section 'command'"
    )


WRONG_TYPES = {
    "command.samples": ("verify-set", {"command": {"set": "X", "samples": [3]}}),
    "command.scan_times": ("scan", {"command": {"kind": "xi-prime", "scan_times": 0.5}}),
    "params.rho": ("scan", {"params": {"rho": [1]}, "command": {"kind": "i-poly"}}),
    "integrator.max_steps": (
        "simulate",
        {"command": {"state": "1,0,-1", "t_end": 0.1}, "integrator": {"max_steps": "many"}},
    ),
}


@pytest.mark.parametrize("key", list(WRONG_TYPES))
def test_wrong_config_type_is_usage_error(tmp_path, capsys, key):
    command, config = WRONG_TYPES[key]
    cfg = tmp_path / "bad.json"
    out = tmp_path / "never.out"
    cfg.write_text(json.dumps({"params": {"rho": -0.5}, "output": {"out": str(out)}, **config}))
    assert run([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"error: config value {key} must be")
    assert not out.exists()


# an int takes a JSON integer only and a float a JSON number only: no
# truncation, no parsing of strings
LOOSE_NUMBERS = {
    "fraction for an int": ("command.resolution", 40.7, "40.7"),
    "whole float for an int": ("command.resolution", 40.0, "40.0"),
    "string for an int": ("command.resolution", "40", "'40'"),
    "string for a float": ("params.rho", "-1", "'-1'"),
    "NaN for a float": ("command.tol", math.nan, "nan"),
}


@pytest.mark.parametrize("case", list(LOOSE_NUMBERS))
def test_config_numbers_are_not_cast_loosely(case, tmp_path, capsys):
    key, value, shown = LOOSE_NUMBERS[case]
    section, name = key.split(".")
    config = {"params": {"rho": -1}, "command": {"kind": "j-neg-trace"},
              "output": {"out": str(tmp_path / "never.json")}}
    config[section][name] = value
    cfg = tmp_path / "loose.json"
    cfg.write_text(json.dumps(config))
    assert run(["scan", "--config", cfg]) == 2
    cast = "int" if name == "resolution" else "float"
    assert capsys.readouterr().err == f"error: config value {key} must be {cast}, got {shown}\n"
    assert not (tmp_path / "never.json").exists()


NAN_FLAGS = {
    "command.tol": ["deriv-check", "--quantity", "lambda-pinch", "--rho", "-1",
                    "--trajectories", "2", "--tol", "nan"],
    "command.scan_times": ["scan", "--kind", "xi-prime", "--rho", "-0.5", "--eta", "1",
                           "--scan-time", "nan"],
    "params.rho": ["scan", "--kind", "j-neg-trace", "--rho", "nan"],
}


@pytest.mark.parametrize("key", list(NAN_FLAGS))
def test_nan_flag_is_usage_error(key, tmp_path, capsys):
    # a NaN tolerance passed every comparison-based verdict, and a NaN
    # scan time broke the scan's argmin
    assert run(NAN_FLAGS[key] + ["--out", tmp_path / "never.json"]) == 2
    assert capsys.readouterr().err == f"error: config value {key} must be float, got nan\n"
    assert not (tmp_path / "never.json").exists()


# -------------------------------------------------------- output mechanics


def test_outputs_are_byte_identical(tmp_path):
    args = ["scan", "--kind", "i-poly", "--rho", "0.1", "--resolution", "40"]
    run(args + ["--out", tmp_path / "1.json"])
    run(args + ["--out", tmp_path / "2.json"])
    assert (tmp_path / "1.json").read_bytes() == (tmp_path / "2.json").read_bytes()


def test_stamp_adds_timestamp_once(tmp_path):
    out = tmp_path / "s.json"
    run(["scan", "--kind", "i-poly", "--rho", "0.1", "--resolution", "30",
         "--stamp", "--out", out])
    doc = json.loads(out.read_text())
    assert "generated_at" in doc["meta"]


def test_write_report_renders_nonfinite_as_strings(tmp_path, capsys):
    write_report({"a": math.inf, "b": -math.inf, "c": math.nan}, None, "json")
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"a": "inf", "b": "-inf", "c": "nan"}


def test_plot_svg(tmp_path):
    csv_path = tmp_path / "t.csv"
    run(["simulate", "--state", "1,1,1", "--rho", "0", "--t-end", "0.1",
         "--out", csv_path])
    svg_path = tmp_path / "t.svg"
    assert run(["plot", "--in", csv_path, "--columns", "R,lambda",
                "--out", svg_path]) == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_plot_rejects_a_ragged_row(tmp_path, capsys):
    csv_path = tmp_path / "r.csv"
    csv_path.write_text("# meta\nt,R\n0,1\n0.5\n1,3\n")
    svg_path = tmp_path / "r.svg"
    assert run(["plot", "--in", csv_path, "--out", svg_path]) == 2
    assert capsys.readouterr().err == (
        f"error: {csv_path} line 4 has 1 cells, its header 2\n"
    )
    assert not svg_path.exists()


def test_plot_missing_input_names_the_flag(tmp_path, capsys):
    assert run(["plot", "--out", tmp_path / "p.svg"]) == 2
    assert capsys.readouterr().err == "error: missing required option --in\n"


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "0.1.0" in capsys.readouterr().out


# ------------------------------------------------- one parser per process


def fresh_process(args, cwd):
    """``python -m pinchlab`` in a new interpreter, help width fixed."""
    env = dict(os.environ, COLUMNS="80")
    src = str(Path(pinchlab.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pinchlab", *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_python_m_pinchlab_version(tmp_path):
    proc = fresh_process(["--version"], tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.strip() == pinchlab.__version__


def test_reused_parser_matches_fresh_process(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _build_parser() is _build_parser()
    calls = [
        (["simulate", "--points", "many"], 2),
        (["--help"], 0),
        (["simulate", "--state", "1,0.5,-0.5", "--rho", "-1", "--t-end", "0.01",
          "--out", "sim.csv"], 0),
    ]
    for i, (args, code) in enumerate(calls):
        here, there = tmp_path / f"here{i}", tmp_path / f"there{i}"
        here.mkdir()
        there.mkdir()
        monkeypatch.chdir(here)
        capsys.readouterr()
        assert run(args) == code
        out, err = capsys.readouterr()
        proc = fresh_process(args, there)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
        assert sorted(p.name for p in here.iterdir()) == sorted(p.name for p in there.iterdir())
        for p in here.iterdir():
            assert p.read_bytes() == (there / p.name).read_bytes()
    assert (tmp_path / "here2" / "sim.csv").exists()


def test_repeated_scan_times_do_not_accumulate(tmp_path):
    args = ["scan", "--kind=xi-prime", "--rho=-0.5", "--eta=1", "--theta=1",
            "--scan-time=0", "--scan-time=0.01"]
    assert run(args + [f"--out={tmp_path / 'a.json'}"]) == 0
    assert run(args + [f"--out={tmp_path / 'b.json'}"]) == 0
    first = (tmp_path / "a.json").read_bytes()
    assert first == (tmp_path / "b.json").read_bytes()
    assert json.loads(first)["report"]["scan_times"] == [0.0, 0.01]
