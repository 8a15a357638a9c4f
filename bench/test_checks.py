"""Tests of the benchmark itself: every check passes on the program's real
output and fails on a corrupted copy; the tracer records nested spans.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import coopcap.channel as channel  # noqa: E402
import tracing  # noqa: E402
from coopcap import (  # noqa: E402
    CfCode,
    ExperimentConfig,
    brute_force_sum_capacity,
    maximize_sum_rate,
    monte_carlo_error,
    run_sweep,
    verify_zero_error,
)


def small_channel(m=5, g=3, p=0.5, seed=4):
    params = channel.ConstructionParams.with_defaults(m, epsilon=0.5, p=p, seed=seed, g_of_m=g)
    return channel.construct_channel(params)


def dense_of(ch):
    return np.unpackbits(ch.matrix.packed_rows, axis=1, count=ch.n)


# ----------------------------------------------------------------------
# channel-m14 checks
# ----------------------------------------------------------------------


def test_block_property_fails_when_one_flip_empties_a_block():
    dense = dense_of(small_channel()).copy()
    dense[0, :8] = 1
    dense[0, 5] = 0  # block 0 of row 0 keeps exactly one good entry
    dense[8:16, 5] = 0  # and column 5 keeps its other blocks good
    assert checks.block_property_errors(dense, 3) == []
    dense[0, 5] = 1
    assert checks.block_property_errors(dense, 3)


def test_bad_fraction_within_six_sigma_only():
    n = 1 << 10
    dense = np.zeros((n, n), dtype=np.uint8)
    dense.reshape(-1)[: int(0.85 * n * n)] = 1
    packed = np.packbits(dense, axis=1)
    assert checks.bad_fraction_errors(packed, 0.85) == []
    dense.reshape(-1)[: int(0.86 * n * n)] = 1  # 0.01 is about 28 sigma here
    assert checks.bad_fraction_errors(np.packbits(dense, axis=1), 0.85)


@pytest.mark.parametrize("binary", [True, False])
def test_maccf_file_checks_size_header_and_body(tmp_path, binary):
    ch = small_channel()
    params = ch.params
    header = checks.maccf_header(params.m, params.p, params.epsilon, params.f_of_m, params.g_of_m, params.seed)
    path = tmp_path / "ch.maccf"
    channel.serialize_channel(ch, path, binary=binary)
    packed = ch.matrix.packed_rows
    assert checks.maccf_file_errors(path, header, packed, binary) == []
    good = path.read_bytes()

    flipped = bytearray(good)
    flipped[len(header) + 1] ^= 1 if binary else 1  # '0' <-> '1' in text
    path.write_bytes(bytes(flipped))
    assert checks.maccf_file_errors(path, header, packed, binary)

    path.write_bytes(good + b"\n")
    assert checks.maccf_file_errors(path, header, packed, binary)

    path.write_bytes(good.replace(b"seed=4", b"seed=5"))
    assert checks.maccf_file_errors(path, header, packed, binary)


def test_pairs_count_off_by_one_or_a_failure_is_caught():
    m, g = 5, 3
    want = (1 << m) * (1 << (m - g))
    assert checks.pairs_errors({"r1": (want, 0), "r2": (want, 0)}, m, g) == []
    assert checks.pairs_errors({"r1": (want - 1, 0)}, m, g)
    assert checks.pairs_errors({"r2": (want, 1)}, m, g)


def test_pairs_match_the_program_on_a_real_channel():
    ch = small_channel()
    reports = {}
    for orientation in ("r1", "r2"):
        report = verify_zero_error(CfCode(ch, orientation))
        reports[orientation] = (report.pairs_checked, report.failures)
    assert checks.pairs_errors(reports, ch.m, ch.g) == []


def test_monte_carlo_checks_honest_zero_and_fixed_helper_share():
    ch = small_channel(m=6, g=3, p=0.3)
    dense = dense_of(ch)
    share = checks.fixed_helper_share(dense, 3)
    code = CfCode(ch, "r1")
    trials = 20_000
    honest = monte_carlo_error(code, trials, seed=1)
    fixed = monte_carlo_error(code, trials, seed=2, facilitator=lambda c, w1, w2: 1)
    assert checks.monte_carlo_errors(honest, fixed, share, trials) == []
    assert checks.monte_carlo_errors(1.0 / trials, fixed, share, trials)
    sigma = np.sqrt(share * (1 - share) / trials)
    assert checks.monte_carlo_errors(honest, share + 7 * sigma, share, trials)


def test_uniform_rate_nudged_by_1e6_is_caught():
    from coopcap import sum_rate

    ch = small_channel()
    uniform = np.full(ch.n, 1.0 / ch.n)
    rate = sum_rate(ch, uniform, uniform)
    assert checks.uniform_rate_errors(rate, dense_of(ch)) == []
    assert checks.uniform_rate_errors(rate + 1e-6, dense_of(ch))


# ----------------------------------------------------------------------
# sweep-m6-10 checks
# ----------------------------------------------------------------------

M_VALUES, EPS, P, SEED = (3, 4), 0.05, 0.5, 7


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "out"
    run_sweep(ExperimentConfig(m_values=M_VALUES, epsilon=EPS, p_override=P, restarts=2,
                               seed=SEED, output_dir=str(out)))
    return out


@pytest.fixture
def sweep_copy(sweep_dir, tmp_path):
    import shutil

    copy = tmp_path / "out"
    shutil.copytree(sweep_dir, copy)
    return copy


def sweep_errors(out):
    return checks.sweep_errors(out, M_VALUES, EPS, P, SEED)


def test_sweep_output_passes(sweep_dir):
    assert sweep_errors(sweep_dir) == []


def test_sweep_fourth_jsonl_row_is_caught(sweep_copy):
    path = sweep_copy / "records.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + lines[:1]) + "\n")
    assert any("records.jsonl has 3 rows" in e for e in sweep_errors(sweep_copy))


def rewrite_record(out, index, **changes):
    """Apply changes to one record in both the JSONL and the CSV."""
    path = out / "records.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[index].update(changes)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with open(out / "records.csv", newline="") as fh:
        table = list(csv.reader(fh))
    for key, value in changes.items():
        table[index + 1][checks.CSV_COLUMNS.index(key)] = str(value)
    with open(out / "records.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(table)


@pytest.mark.parametrize("column", ["ie_estimate", "gap_lower", "gap_upper", "ie_outer_asym"])
def test_sweep_value_nudged_by_1e6_is_caught(sweep_copy, column):
    row = json.loads((sweep_copy / "records.jsonl").read_text().splitlines()[1])
    rewrite_record(sweep_copy, 1, **{column: row[column] + 1e-6})
    assert sweep_errors(sweep_copy)


@pytest.mark.parametrize("column, delta", [("cf_pairs", 1), ("g", 1), ("cf_failures", 1), ("seed", 1)])
def test_sweep_count_off_by_one_is_caught(sweep_copy, column, delta):
    row = json.loads((sweep_copy / "records.jsonl").read_text().splitlines()[0])
    rewrite_record(sweep_copy, 0, **{column: row[column] + delta})
    assert sweep_errors(sweep_copy)


def test_sweep_estimate_below_the_uniform_rate_is_caught(sweep_copy):
    dense = checks.dense_from_file(sweep_copy / "channels" / "m4.maccf")
    low = checks.uniform_output_entropy(dense) - 1e-6
    rewrite_record(sweep_copy, 1, ie_estimate=low, gap=8.0 - 4 - low)
    assert any("below the uniform-input rate" in e for e in sweep_errors(sweep_copy))


def test_sweep_csv_disagreeing_with_jsonl_is_caught(sweep_copy):
    path = sweep_copy / "records.csv"
    text = path.read_text().splitlines()
    cells = text[2].split(",")
    cells[checks.CSV_COLUMNS.index("ie_estimate")] = "0.5"
    text[2] = ",".join(cells)
    path.write_text("\n".join(text) + "\n")
    assert sweep_errors(sweep_copy)


def test_sweep_region_vertex_moved_is_caught(sweep_copy):
    path = sweep_copy / "regions" / "cf_outer_m3.poly"
    lines = path.read_text().splitlines()
    lines[1] = "5.0 0.0"
    path.write_text("\n".join(lines) + "\n")
    assert sweep_errors(sweep_copy)


def test_region_vertices_match_the_program():
    from coopcap import cf_inner_region, cf_outer_region

    for m, g in ((6, 6), (8, 6), (10, 8)):
        want = checks.region_vertices(m, g)
        assert list(cf_inner_region(m, g).vertices) == want["cf_inner"]
        assert list(cf_outer_region(m, float(g)).vertices) == want["cf_outer"]


# ----------------------------------------------------------------------
# capacity checks
# ----------------------------------------------------------------------


def seven_digits(value):
    return float(np.format_float_positional(value, precision=7, unique=False, fractional=False))


def test_capacity_value_checks():
    ch = small_channel(m=4, g=3, p=0.4, seed=3)
    result = maximize_sum_rate(ch, restarts=0, max_iters=5)
    marginals = {"p1": list(result.p1.probs), "p2": list(result.p2.probs), "sum_rate": result.value}
    dense = dense_of(ch)
    printed = seven_digits(result.value)
    assert checks.capacity_errors(dense, marginals, printed) == []
    assert checks.capacity_errors(dense, dict(marginals, sum_rate=result.value + 1e-6), printed)
    assert checks.capacity_errors(dense, marginals, printed + 2e-6)
    assert checks.capacity_errors(dense, dict(marginals, p1=[0.5] * ch.n), printed)
    above = dict(marginals, sum_rate=8.0 + 1e-6)
    assert checks.capacity_errors(dense, above, printed)


def test_grid_checks():
    rng = np.random.default_rng(5)
    dense = (rng.random((4, 4)) < 0.5).astype(np.uint8)
    ch = channel.channel_from_matrix(channel.ChannelMatrix.from_dense(dense), g=1, verify=False)
    grid = brute_force_sum_capacity(ch, 16)
    optimized = maximize_sum_rate(ch, restarts=8, seed=1)
    args = (grid.p1.probs, grid.p2.probs, optimized.value)
    assert checks.grid_errors(dense, grid.value, *args, steps=16) == []
    assert checks.grid_errors(dense, grid.value + 1e-6, *args, steps=16)
    assert checks.grid_errors(dense, grid.value, grid.p1.probs, grid.p2.probs, grid.value + 0.03, steps=16)
    # a worse point reported as the grid optimum, with its own value
    uniform = np.full(4, 0.25)
    worse = checks.output_entropy(dense, [1.0, 0, 0, 0], uniform)
    assert checks.grid_errors(dense, worse, [1.0, 0, 0, 0], uniform, worse, steps=16)


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------


def test_tracer_records_nested_spans_and_restores_functions(tmp_path):
    original = channel.sample_matrix
    tracer = tracing.Tracer()
    with tracer:
        with tracer.span("bench.round") as root:
            ch = channel.construct_channel(
                channel.ConstructionParams.with_defaults(4, epsilon=0.5, p=0.5, seed=1)
            )
            channel.serialize_channel(ch, tmp_path / "c", binary=True)
            channel.deserialize_channel(tmp_path / "c")
    assert channel.sample_matrix is original
    names = [span["name"] for span in tracer.spans]
    assert names[:3] == ["bench.round", "channel.construct_channel", "channel.sample_matrix"]
    by_id = {span["id"]: span for span in tracer.spans}
    assert by_id[2]["parent"] == 1 and by_id[1]["parent"] == root["id"]
    metrics = tracing.layer_metrics(tracing.descendants(tracer.spans, root["id"]))
    assert metrics["channel.check_block_goodness_calls"] == 2
    assert metrics["channel.sample_matrix_s"] > 0
    assert metrics["channel.maccf_bytes"] == 2 * (tmp_path / "c").stat().st_size
    assert metrics["coding.verify_r1_s"] == 0.0



def test_span_cost_is_measured_positive_and_small():
    assert 0 < tracing.span_cost_s(calls=2_000, repeats=3) < 1e-3


def test_runner_checks_each_round_and_reads_peak_rss_after_the_first(tmp_path):
    import run

    class Fake:
        name, ops_per_round = "fake", 1

        def run_round(self, inputs, ops, out):
            ops.outcome(True)
            (out / "file").write_text("x")
            return 0.001, {"ie_estimate_bits": 1.0, "out": out}

        def check(self, inputs, result):
            assert (result["out"] / "file").exists()
            return ["round failed its check"]

    runner = run.Runner(Fake(), {}, tmp_path)
    readings = iter([10.0, 20.0, 30.0])
    runner.read_peak_rss_mb = lambda: next(readings)
    assert len(runner.rounds(0.0035)) == 3
    assert runner.peak_rss_mb == 10.0
    assert runner.errors == ["round failed its check"] * 3
    assert (runner.ops.attempted, runner.ops.failed) == (3, 0)
    assert list(tmp_path.iterdir()) == []
