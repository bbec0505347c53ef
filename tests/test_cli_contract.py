"""Pins of the CLI's outputs, and the agreement of its flags with its
config keys.

The hashes and meta blocks below were recorded before the options moved
to one declaration per key; they hold the outputs that move must keep.
"""

import argparse
import ast
import hashlib
import json

import pytest

from pinchlab.cli import _build_parser, main

# sha256 of the full stdout of integrator-free scans, by (mode, format)
SCAN_PINS = {
    ("grid", "json"): "b1bfd4fd4d8dff2f38ccee8a5f2137e373142c6cff4114bb2f753c2a6f3c0ae2",
    ("grid", "text"): "d832752f4727423560e97ee5ff6b79ae1246fc8dc021aed277a596c69d141d01",
    ("random", "json"): "624b1958f210be72addfcd6d905bbed8607146ee3926bcec00851d9802dc4346",
    ("random", "text"): "3699068af59f9ac2cf11187c7f693bfb8c49640f3e06e92a1c0986ac573f9caa",
}
SCAN_ARGS = {
    "grid": ["scan", "--kind", "j-neg-trace", "--rho", "-1", "--resolution", "40"],
    "random": ["scan", "--kind", "trace-bound", "--rho", "0.2", "--samples", "1000",
               "--seed", "0"],
}


@pytest.mark.parametrize("mode, fmt", list(SCAN_PINS))
def test_scan_output_bytes_are_pinned(mode, fmt, capsys):
    assert main(SCAN_ARGS[mode] + ["--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_PINS[mode, fmt]


SIMULATE_META = """\
# command = simulate
# events = []
# integrator.abs_tol = 1e-12
# integrator.blowup_norm = 1000000000000.0
# integrator.max_step = inf
# integrator.max_steps = 500000
# integrator.rel_tol = 1e-10
# params.eta = -4.0
# params.rho = -1.0
# params.theta = 1.0
# points = 5
# state0 = [1.0, 0.5, -0.5]
# t0 = 0.0
# t_end = 0.01
# terminal.kind = reached_end
# terminal.norm_exceeded = False
# terminal.step_collapse = False
# terminal.t_est = None
# version = 0.1.0
"""


def test_simulate_meta_block_is_pinned(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--state", "1,0.5,-0.5", "--rho", "-1", "--t-end", "0.01",
                 "--points", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines(keepends=True)
    assert "".join(ln for ln in lines if ln.startswith("#")) == SIMULATE_META


INTEGRATOR_META = {
    "abs_tol": 1e-12, "blowup_norm": 1e12, "max_step": "inf", "max_steps": 500000,
    "rel_tol": 1e-10,
}
PARAMS_META = {"eta": -4.0, "rho": -1.0, "theta": 1.0}
PRNG = "numpy PCG64, per-sample SeedSequence(seed).spawn(i)"
REPORT_PINS = {
    "verify-set": (
        ["--set", "X", "--samples", "3", "--horizon", "0.01", "--seed", "42"],
        {"drift_normalization": "margin / (1 + |trace|)", "prng": PRNG},
        ["band", "blowups", "checkpoints", "claimed", "horizon", "recheck_kind",
         "rhs_evals", "samples", "seed", "spec", "steps_accepted", "steps_rejected",
         "terminal_kinds", "tol", "violating_seed", "worst_drift"],
    ),
    "verify-estimate": (
        ["--variant", "neg-rho-scalar", "--count", "2"],
        {"prng": PRNG},
        ["blowups", "count", "min_coverage", "params", "rhs_evals", "seed",
         "steps_accepted", "steps_rejected", "terminal_kinds", "tol",
         "trigger_times_worst", "variant", "violating_seed", "worst_slack"],
    ),
    "deriv-check": (
        ["--quantity", "lambda-pinch", "--trajectories", "2"],
        {"tol": 1e-6},
        ["checkpoints", "decay_ratio", "h", "max_discrepancy", "max_discrepancy_half_h",
         "params", "quantity", "seed", "trajectories", "worst_trajectory"],
    ),
}


@pytest.mark.parametrize("command", list(REPORT_PINS))
def test_report_meta_and_keys_are_pinned(command, tmp_path):
    args, extra_meta, report_keys = REPORT_PINS[command]
    out = tmp_path / "r.json"
    assert main([command, "--rho", "-1", *args, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"] == {
        "command": command, "version": "0.1.0", "integrator": INTEGRATOR_META,
        "params": PARAMS_META, **extra_meta,
    }
    assert sorted(doc["report"]) == report_keys


# ------------------------------------------------ flags and config keys agree

SECTIONS = ("params", "integrator", "command", "output")


def subparsers():
    (action,) = [a for a in _build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def accepted_keys(command, section, tmp_path, capsys):
    """The keys a section accepts, read from the error that names them."""
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps({section: {"no_such_key": 1}}))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "'no_such_key'" in err
    return set(ast.literal_eval(err.split("allowed: ")[1]))


def test_every_flag_is_a_config_key_and_back(tmp_path, capsys):
    shared = {s: set() for s in SECTIONS if s != "command"}
    flagged = set()
    for command, sub in subparsers().items():
        keys = {a.dest for a in sub._actions if a.dest not in ("help", "config")}
        flagged |= keys
        allowed = {s: accepted_keys(command, s, tmp_path, capsys) for s in SECTIONS}
        # each flag is a key of exactly one section
        for key in keys:
            assert sum(key in allowed[s] for s in SECTIONS) == 1, (command, key)
        # the subcommand's own section holds only keys it has flags for
        assert allowed["command"] <= keys, command
        for s in shared:
            shared[s] |= allowed[s]
    # a shared section's key has a flag in some subcommand
    for s, keys in shared.items():
        assert keys <= flagged, s


@pytest.mark.parametrize("command, section, key", [
    ("scan", {"kind": "j-neg-trace"}, "resolutoin"),
    ("verify-set", {"set": "X", "samples": 2, "horizon": 0.01}, "count"),
])
def test_command_key_the_subcommand_does_not_read_is_usage_error(
    command, section, key, tmp_path, capsys
):
    cfg = tmp_path / "c.json"
    out = tmp_path / "never.json"
    cfg.write_text(json.dumps({
        "params": {"rho": -1}, "command": {**section, key: 3}, "output": {"out": str(out)},
    }))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown keys") and f"'{key}'" in err
    assert not out.exists()
