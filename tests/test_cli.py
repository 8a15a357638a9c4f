import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coopcap
from coopcap.channel import (
    ChannelMatrix,
    channel_from_matrix,
    deserialize_channel,
    serialize_channel,
)
from coopcap.cli import _fmt, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def stored_channel(tmp_path, capsys):
    path = tmp_path / "ch.maccf"
    code, out, err = run(
        capsys,
        "construct",
        "--m", "3",
        "--eps", "0.3",
        "--p", "0.5",
        "--g", "2",
        "--seed", "1",
        "--out", str(path),
    )
    assert code == 0, err
    return path


def broken_channel_file(tmp_path):
    dense = np.ones((4, 4), dtype=np.uint8)
    channel = channel_from_matrix(
        ChannelMatrix.from_dense(dense), g=1, p=0.5, epsilon=0.5, verify=False
    )
    path = tmp_path / "broken.maccf"
    serialize_channel(channel, path)
    return path


# ----------------------------------------------------------------------
# Usage errors
# ----------------------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "usage" in err.lower()


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "construct" in out and "sweep" in out


def test_unknown_command_and_flag(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "construct", "--m", "3", "--wat")[0] == 2
    assert run(capsys, "construct")[0] == 2  # missing required args


# ----------------------------------------------------------------------
# What a process loads
# ----------------------------------------------------------------------

_NUMPY_ONLY_SCRIPT = """
import sys

import numpy as np

import coopcap, coopcap.cli
from coopcap.channel import deserialize_channel


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


assert not scipy_modules(), scipy_modules()
path = sys.argv[1]
for argv in (
    ["construct", "--m", "4", "--eps", "0.3", "--p", "0.5", "--g", "2", "--out", path],
    ["verify", path],
    ["code-check", path, "--mc-trials", "20"],
    ["bounds", "--m", "4"],
):
    assert coopcap.cli.main(argv) == 0, argv
    assert not scipy_modules(), (argv, scipy_modules())

from scipy import sparse

channel = deserialize_channel(path)
good = channel.matrix.good
assert isinstance(good, sparse.csr_array), type(good)
assert np.array_equal(good.toarray(), 1.0 - channel.matrix.to_dense())
print("ok")
"""


def test_cli_commands_without_an_optimizer_load_no_scipy(tmp_path):
    src = str(Path(coopcap.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _NUMPY_ONLY_SCRIPT, str(tmp_path / "c.maccf")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().endswith("ok")


# ----------------------------------------------------------------------
# construct / verify / code-check / capacity pipeline
# ----------------------------------------------------------------------


def test_construct_output_line(tmp_path, capsys):
    path = tmp_path / "c.maccf"
    code, out, _ = run(
        capsys, "construct", "--m", "3", "--p", "0.5", "--g", "2", "--out", str(path)
    )
    assert code == 0
    assert re.fullmatch(
        rf"out={re.escape(str(path))} m=3 g=2 f=8 p=0\.500000 eps=0\.05000000 "
        r"seed=0 attempts=\d+",
        out.strip(),
    )
    assert path.exists()


def test_construct_memory_cap_message(tmp_path, capsys):
    code, out, err = run(
        capsys, "construct", "--m", "99", "--out", str(tmp_path / "x.maccf")
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "99" in err


def test_construct_exhaustion_reports_error(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "construct",
        "--m", "3",
        "--p", "1.0",
        "--eps", "0.5",
        "--out", str(tmp_path / "x.maccf"),
        "--max-attempts", "2",
    )
    assert code == 1
    assert "2 attempts" in err


def test_construct_rejects_negative_density_trials(tmp_path, capsys):
    path = tmp_path / "c.maccf"
    code, out, err = run(
        capsys, "construct", "--m", "3", "--p", "0.5", "--g", "2",
        "--out", str(path), "--density-trials", "-3",
    )
    assert code == 1
    assert out == ""
    assert err == "error: --density-trials must be >= 0, got -3\n"
    assert not path.exists()


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--max-attempts", "0", "--max-attempts must be >= 1, got 0"),
        ("--seed", "-1", "--seed must be an integer in [0, 2^64), got -1"),
        ("--m", "0", "--m must be >= 1, got 0"),
        ("--g", "5", "--g must be in [1, m] with m=3, got 5"),
        ("--p", "2", "--p must be in [0, 1], got 2.0"),
        ("--eps", "1", "--eps must be in (0, 1), got 1.0"),
        ("--f", "9", "--f must be in [1, 2^m] with m=3, got 9"),
    ],
)
def test_construct_rejects_option_out_of_range(tmp_path, capsys, option, value, message):
    path = tmp_path / "c.maccf"
    code, out, err = run(capsys, "construct", "--m", "3", "--out", str(path), option, value)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"
    assert not path.exists()


def test_verify_pass(stored_channel, capsys):
    code, out, _ = run(capsys, "verify", str(stored_channel))
    assert code == 0
    assert re.fullmatch(
        r"block_property=pass density_trials=200 density_violations=\d+ "
        r"min_bad_fraction=[\d.]+",
        out.strip(),
    )


def test_verify_fail(tmp_path, capsys):
    path = broken_channel_file(tmp_path)
    code, out, _ = run(capsys, "verify", str(path), "--density-trials", "5")
    assert code == 1
    line = out.strip()
    assert line.startswith("block_property=fail first_failure=row:1:0")
    assert "density_trials=5" in line


def test_verify_rejects_zero_density_trials_before_reading(tmp_path, capsys):
    missing = tmp_path / "missing.maccf"
    code, out, err = run(capsys, "verify", str(missing), "--density-trials", "0")
    assert code == 1
    assert out == ""
    assert err == "error: --density-trials must be >= 1, got 0\n"


def test_verify_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.maccf"))
    assert code == 1
    assert err.startswith("error:")


def test_code_check_both_orientations(stored_channel, capsys):
    for orientation in ("r1", "r2"):
        code, out, _ = run(
            capsys, "code-check", str(stored_channel), "--orientation", orientation
        )
        assert code == 0
        assert re.fullmatch(r"pairs=16 failures=0 sum_rate=4\.000000", out.strip())


def test_code_check_with_monte_carlo(stored_channel, capsys):
    code, out, _ = run(
        capsys, "code-check", str(stored_channel), "--mc-trials", "50", "--mc-seed", "4"
    )
    assert code == 0
    assert out.strip().endswith("mc_trials=50 mc_error=0.000000")


def test_code_check_rejects_negative_mc_trials(stored_channel, capsys):
    code, out, err = run(capsys, "code-check", str(stored_channel), "--mc-trials", "-5")
    assert code == 1
    assert out == ""
    assert err == "error: --mc-trials must be >= 0, got -5\n"


@pytest.mark.parametrize("seed", [-2, 1 << 64])
def test_code_check_rejects_bad_mc_seed_before_reading(tmp_path, capsys, seed):
    missing = tmp_path / "missing.maccf"
    code, out, err = run(
        capsys, "code-check", str(missing), "--mc-seed", str(seed), "--mc-trials", "3"
    )
    assert code == 1
    assert out == ""
    assert err == f"error: --mc-seed must be an integer in [0, 2^64), got {seed}\n"


def test_code_check_rejects_unverified_channel(tmp_path, capsys):
    path = broken_channel_file(tmp_path)
    code, _, err = run(capsys, "code-check", str(path))
    assert code == 1
    assert err.startswith("error:")


def test_capacity_line_and_marginals(stored_channel, tmp_path, capsys):
    marg = tmp_path / "marginals.json"
    code, out, _ = run(
        capsys,
        "capacity",
        str(stored_channel),
        "--restarts", "2",
        "--seed", "3",
        "--marginals-out", str(marg),
    )
    assert code == 0
    match = re.fullmatch(
        r"sum_rate=([\d.]+) converged=(true|false) restarts=2"
        r" sweeps=([1-9]\d*) kkt_gap=(\d\.\d{3}e[+-]\d{2})"
        r" spread=([\d.]+) runs_converged=(\d)/3",
        out.strip(),
    )
    assert match
    result = coopcap.maximize_sum_rate(deserialize_channel(stored_channel), restarts=2, seed=3)
    assert match.group(5) == _fmt(result.spread)
    assert int(match.group(6)) == sum(run.converged for run in result.runs)
    payload = json.loads(marg.read_text())
    assert set(payload) == {"p1", "p2", "sum_rate"}
    assert len(payload["p1"]) == 8 and len(payload["p2"]) == 8
    assert abs(sum(payload["p1"]) - 1.0) < 1e-9
    assert abs(float(match.group(1)) - payload["sum_rate"]) < 1e-6


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_capacity_rejects_nonpositive_tol(tmp_path, capsys, tol):
    missing = tmp_path / "missing.maccf"
    code, out, err = run(capsys, "capacity", str(missing), "--tol", tol)
    assert code == 1
    assert out == ""
    assert err == f"error: --tol must be > 0, got {float(tol)}\n"


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--restarts", "-1", "--restarts must be >= 0, got -1"),
        ("--max-iters", "0", "--max-iters must be >= 1, got 0"),
    ],
)
def test_capacity_rejects_bad_counts_before_reading(tmp_path, capsys, option, value, message):
    missing = tmp_path / "missing.maccf"
    code, out, err = run(capsys, "capacity", str(missing), option, value)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_capacity_rejects_bad_seed_before_reading(tmp_path, capsys, seed):
    missing = tmp_path / "missing.maccf"
    code, out, err = run(capsys, "capacity", str(missing), "--seed", str(seed))
    assert code == 1
    assert out == ""
    assert err == f"error: --seed must be an integer in [0, 2^64), got {seed}\n"


def test_capacity_deterministic_stdout(stored_channel, capsys):
    _, out1, _ = run(capsys, "capacity", str(stored_channel), "--restarts", "1")
    _, out2, _ = run(capsys, "capacity", str(stored_channel), "--restarts", "1")
    assert out1 == out2


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

BOUNDS_KEYS = {
    "cf_inner",
    "cf_outer",
    "ie_inner_sum",
    "ie_outer_sum_finite",
    "ie_outer_sum_asymptotic",
    "theorem_gap_lower",
    "theorem_gap_upper",
    "failure_bounds",
}


def test_bounds_small_m_null_fields(capsys):
    code, out, err = run(capsys, "bounds", "--m", "10", "--eps", "0")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == BOUNDS_KEYS
    assert payload["cf_inner"] == [[0, 0], [10, 0], [10, 2], [2, 10], [0, 10]]
    assert payload["ie_inner_sum"] == 2.0
    assert payload["ie_outer_sum_finite"] is None
    assert abs(payload["ie_outer_sum_asymptotic"] - 12.36068) < 1e-5
    assert payload["theorem_gap_lower"] is None
    assert payload["theorem_gap_upper"] is None
    assert err.count("note:") == 2
    fails = payload["failure_bounds"]
    assert set(fails) == {"block_bound_log2", "density_bound_log2", "density_enumerated"}


def test_bounds_large_m_all_finite(capsys):
    code, out, err = run(capsys, "bounds", "--m", "100", "--eps", "0.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["ie_outer_sum_finite"] is not None
    assert payload["theorem_gap_lower"] is not None
    assert payload["theorem_gap_upper"] == 114.0  # m + default delta 14
    assert payload["ie_inner_sum"] == 86.0
    assert err == ""
    assert not payload["failure_bounds"]["density_enumerated"]


def test_bounds_explicit_delta_and_f(capsys):
    code, out, _ = run(
        capsys, "bounds", "--m", "4", "--eps", "0.2", "--delta", "3", "--f", "8"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ie_inner_sum"] == 1.0
    assert payload["cf_inner"][2] == [4, 1]  # r1 = m, r2 = 2m - g - m
    assert payload["failure_bounds"]["density_enumerated"] is True


@pytest.mark.parametrize("eps", ["1", "1.5", "3", "-0.1"])
def test_bounds_rejects_eps_outside_unit_interval(capsys, eps):
    code, out, err = run(capsys, "bounds", "--m", "8", "--eps", eps)
    assert code == 1
    assert out == ""
    assert err == f"error: --eps must be in [0, 1), got {float(eps)}\n"


def test_bounds_invalid_delta(capsys):
    code, _, err = run(capsys, "bounds", "--m", "4", "--delta", "9")
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--m", "0"], "--m must be >= 1, got 0"),
        (["--m", "3", "--f", "0"], "--f must be in [1, 2^m] with m=3, got 0"),
        (["--m", "3", "--f", "9"], "--f must be in [1, 2^m] with m=3, got 9"),
        (["--m", "3", "--delta", "0"], "--delta must be in [1, m] with m=3, got 0"),
        (["--m", "3", "--delta", "4"], "--delta must be in [1, m] with m=3, got 4"),
    ],
)
def test_bounds_rejects_out_of_range_arguments_without_notes(capsys, argv, message):
    code, out, err = run(capsys, "bounds", *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------


def write_config(tmp_path, **overrides):
    config = dict(
        m_values=[3],
        epsilon=0.3,
        p_override=0.5,
        g_values=[2],
        restarts=1,
        output_dir=str(tmp_path / "out"),
    )
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_sweep_success(tmp_path, capsys):
    path = write_config(tmp_path)
    code, out, err = run(capsys, "sweep", "--config", str(path))
    assert code == 0
    assert out.strip() == f"rows=1 failed=0 out={tmp_path / 'out'}"
    assert err == ""
    assert (tmp_path / "out" / "records.csv").exists()


def test_sweep_reports_failed_rows(tmp_path, capsys):
    path = write_config(tmp_path, m_values=[3, 4], g_values=[2, 1])
    code, out, err = run(capsys, "sweep", "--config", str(path))
    assert code == 1
    assert out.strip().startswith("rows=2 failed=1")
    assert err.startswith("m=4:")


def test_sweep_bad_config(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"m_values": [3], "bogus": True}))
    code, _, err = run(capsys, "sweep", "--config", str(path))
    assert code == 1
    assert "bogus" in err
    code, _, err = run(capsys, "sweep", "--config", str(tmp_path / "missing.json"))
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "key, value",
    [("m_values", 5), ("restarts", "8"), ("epsilon", "0.05"), ("p_override", "x")],
)
def test_sweep_config_of_wrong_type(tmp_path, capsys, key, value):
    path = write_config(tmp_path, **{key: value})
    code, out, err = run(capsys, "sweep", "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {key} must be ")
    assert repr(value) in err
    assert not (tmp_path / "out").exists()
