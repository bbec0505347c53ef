"""Pins of the CLI's outputs, and the agreement of its flags with its
config keys.

The hashes and meta blocks below were recorded before the options moved
to one declaration per key; they hold the outputs that move must keep.
The deriv-check pins were recorded again when its report gained the
suite's work counters and terminal kinds, and changed by those alone.
The scan pins were recorded again when a scan stopped echoing values it
never read (``resolution`` in random mode, now null), and again when the
``scan_times`` key left the scan report; each time they changed by those
keys alone.
"""

import argparse
import ast
import hashlib
import json

import pytest

from pinchlab.cli import _build_parser, main

# sha256 of the full stdout of integrator-free scans, by (mode, format)
SCAN_PINS = {
    ("grid", "json"): "67a4a479a0da99d0027102dce78fc9cb1011ca72a8a47a6d442f52ddd5baf491",
    ("grid", "text"): "60b7f0b4eaec755990977cd08c8924f7a1b6c331ab00fdac4147f4e41e886fab",
    ("random", "json"): "3cbd7f54bdd6c22cfbf6411090e8fcb591427b3e788e70bfc3bb3668133c6be7",
    ("random", "text"): "a47be852895fc73c21d16d8d9234a2116d4c06c176f09358b6beee56379a0ade",
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


# sha256 of the full JSON stdout of the commands that read a parameter
# window or a time factor, recorded before each window and factor moved
# to one function; the K run at eta = 1 is an observation (claimed=false).
# The verify-set runs and verify-estimate nonneg-rho were recorded again
# when the suites came to read each step at fixed fractions, which moved
# their checkpoints and that estimate's worst_slack
VERIFY_SET_SMALL = ["--samples", "3", "--horizon", "0.01"]
REPORT_SHA_PINS = {
    "verify-set X": (
        ["verify-set", "--set", "X", "--rho", "-1", *VERIFY_SET_SMALL],
        "712f8d9fd1e63d5e2370ab8b2af3f91fe529443912913f3fdd12a7030acab8e9"),
    "verify-set W": (
        ["verify-set", "--set", "W", "--rho", "-1", *VERIFY_SET_SMALL],
        "5a35e87c57beba44ae2f25dda348327305cde046e3e33c283efd361f2d1c7150"),
    "verify-set Y": (
        ["verify-set", "--set", "Y", "--rho", "-0.5", "--eta", "1", *VERIFY_SET_SMALL],
        "0d2d7b02e9a11e3f5cc610597edcff634e006ca06045f85a120029410bd5e3d5"),
    "verify-set K": (
        ["verify-set", "--set", "K", "--rho", "0.1", *VERIFY_SET_SMALL],
        "8245a99426a31b4edb00a16a4ba2199f55d672eb02a052221af672361a9d688f"),
    "verify-set K observation": (
        ["verify-set", "--set", "K", "--rho", "-0.5", "--eta", "1", "--samples", "3",
         "--horizon", "0.05"],
        "cfb837f8de8f54389f2dd64f6d430412d80c6f52d5ececf25f8c4079ea4a21de"),
    "verify-estimate neg-rho-scalar": (
        ["verify-estimate", "--variant", "neg-rho-scalar", "--rho", "-1", "--count", "3"],
        "d4d00c5cceda79c4b8952907384e01fea52d06f2458e1f895be6222dc1480f99"),
    "verify-estimate neg-rho-sectional": (
        ["verify-estimate", "--variant", "neg-rho-sectional", "--rho", "-0.5", "--eta", "1",
         "--count", "3"],
        "1c25cb4222cdee8ca28c8576c16c1788a6b8dae009939208cb5eaf498d1dd3c5"),
    "verify-estimate nonneg-rho": (
        ["verify-estimate", "--variant", "nonneg-rho", "--rho", "0.1", "--count", "3"],
        "4a9b8d5434cbc11215c456dec2a5bd87d30540ce6182fb5b1cf5cfe10b6dd4be"),
    "deriv-check lambda-pinch": (
        ["deriv-check", "--quantity", "lambda-pinch", "--rho", "-1", "--trajectories", "2"],
        "f0ff69b5467fb49025d2c70b54f662202309d6e4028dec98e48af39215a60ba2"),
    "deriv-check xi-pinch": (
        ["deriv-check", "--quantity", "xi-pinch", "--rho", "0.1", "--trajectories", "2"],
        "ea64fe687a74bdfa404d81b6f00b8e3f9a824977b2d67401512a6dc352cbee21"),
}


@pytest.mark.parametrize("name", list(REPORT_SHA_PINS))
def test_report_output_bytes_are_pinned(name, capsys):
    argv, digest = REPORT_SHA_PINS[name]
    assert main(argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_simulate_csv_with_events_is_pinned(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--state", "1,-0.5,-0.8", "--rho", "-1", "--t-end", "0.5",
                 "--points", "11", "--out", str(out)]) == 0
    text = out.read_text()
    assert '# events = [{"name": "nu_trigger"' in text
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4a91da976b9c25e79f0522de1dd2957743d9359706212b88c0f43110eccd9aff"
    )


# sha256 of plot SVGs: one of a simulate CSV, one of a hand-written CSV
# whose non-finite cells break the polylines
PLOT_CSV = "t,a,b\n0,1,nan\n0.25,2,3\n0.5,inf,4\n0.75,3,5\n1,2.5,-1e-300\n"


def test_plot_svg_bytes_are_pinned(tmp_path):
    csv_path, svg = tmp_path / "s.csv", tmp_path / "s.svg"
    assert main(["simulate", "--state", "1,-0.5,-0.8", "--rho", "-1", "--t-end", "0.5",
                 "--points", "41", "--out", str(csv_path)]) == 0
    assert main(["plot", "--in", str(csv_path), "--columns", "R,lambda,ric_min,margin_X",
                 "--out", str(svg)]) == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
        "09f84e103415f6354e10d0abce9ad4146618e95658e82808ee26b07fd92021ee"
    )
    hand = tmp_path / "hand.csv"
    hand.write_text(PLOT_CSV)
    assert main(["plot", "--in", str(hand), "--columns", "a,b", "--out", str(svg)]) == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
        "38ee1523cf46a911e78b703ab5abba2f8a4a7b1c3a29042f1ee849e89891baa3"
    )


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
         "params", "quantity", "rhs_evals", "seed", "steps_accepted", "steps_rejected",
         "terminal_kinds", "trajectories", "worst_trajectory"],
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
    ("scan", {"kind": "xi-prime"}, "scan_times"),
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


# ------------------------------------------- each subcommand takes what it reads

PARAMS = ["--rho", "--eta", "--theta"]
INTEGRATOR = ["--rel-tol", "--abs-tol", "--max-step", "--blowup-norm", "--max-steps"]
REPORT = ["--out", "--format", "--stamp"]
FLAGS = {
    "simulate": [*PARAMS, "--out", "--stamp", *INTEGRATOR,
                 "--state", "--t0", "--t-end", "--points"],
    "scan": [*PARAMS, *REPORT,
             "--kind", "--resolution", "--tol", "--samples", "--seed"],
    "verify-set": [*PARAMS, *REPORT, *INTEGRATOR,
                   "--set", "--samples", "--horizon", "--seed", "--tol", "--recheck-set"],
    "verify-estimate": [*PARAMS, *REPORT, *INTEGRATOR,
                        "--variant", "--count", "--seed", "--tol", "--t-end"],
    "deriv-check": [*PARAMS, *REPORT, *INTEGRATOR,
                    "--quantity", "--trajectories", "--seed", "--h", "--t-end", "--tol"],
    "plot": ["--out", "--in", "--columns"],
}


def test_each_subcommand_has_exactly_the_flags_it_reads():
    found = {
        command: [a.option_strings[0] for a in sub._actions
                  if a.dest not in ("help", "config")]
        for command, sub in subparsers().items()
    }
    assert found == FLAGS
    assert sum(map(len, found.values())) == 78


# flags that every subcommand once accepted and these never read, each
# with its value, added to arguments that otherwise parse
UNREAD_FLAGS = [
    ("simulate", ["--format", "json"]),
    *[("scan", [flag, "1"]) for flag in INTEGRATOR],
    *[("plot", [flag, "1"]) for flag in [*PARAMS, *INTEGRATOR]],
    ("plot", ["--format", "json"]),
    ("plot", ["--stamp"]),
    # xi-prime is scanned at t = 0, its most adverse time; at t < 0 its
    # time term reports violations of a claim that holds
    ("scan xi-prime", ["--scan-time", "-0.99"]),
]
VALID_RUNS = {
    "simulate": ["simulate", "--state", "1,0.5,-0.5", "--rho", "-1", "--t-end", "0.01"],
    "scan": ["scan", "--kind", "j-neg-trace", "--rho", "-1", "--resolution", "20"],
    "scan xi-prime": ["scan", "--kind", "xi-prime", "--rho", "-0.5", "--eta", "1",
                      "--resolution", "60"],
    "plot": ["plot", "--in", "run.csv"],
}


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS,
                         ids=[f"{c} {f[0]}" for c, f in UNREAD_FLAGS])
def test_flag_the_subcommand_does_not_read_is_unrecognized(command, flag, tmp_path, capsys):
    out = tmp_path / "never.out"
    assert main([*VALID_RUNS[command], *flag, "--out", str(out)]) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("scan", {"command": {"kind": "j-neg-trace"}, "integrator": {"max_steps": 1}}),
    ("plot", {"command": {"infile": "run.csv"}, "params": {"rho": -1}}),
])
def test_section_key_the_subcommand_does_not_read_is_usage_error(
    command, config, tmp_path, capsys
):
    cfg = tmp_path / "c.json"
    out = tmp_path / "never.out"
    cfg.write_text(json.dumps({**config, "output": {"out": str(out)}}))
    assert main([command, "--config", str(cfg)]) == 2
    (section,) = set(config) - {"command"}
    (key,) = config[section]
    assert capsys.readouterr().err == (
        f"error: unknown keys [{key!r}] in config section {section!r}; allowed: []\n"
    )
    assert not out.exists()
