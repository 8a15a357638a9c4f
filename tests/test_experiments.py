import csv
import io
import json
import math
from dataclasses import asdict

import pytest

from coopcap import ExperimentConfig, cf_inner_region, run_sweep
from coopcap.channel import default_f, default_g, default_p, deserialize_channel
from coopcap.experiments import CSV_COLUMNS, export_csv, load_jsonl


def tiny_config(tmp_path, **overrides):
    base = dict(
        m_values=(3, 4),
        epsilon=0.3,
        p_override=0.5,
        g_values=(2, 3),
        restarts=1,
        seed=0,
        output_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------


def test_config_validation():
    good = dict(m_values=(3,))
    ExperimentConfig(**good)
    cases = [
        dict(m_values=()),
        dict(m_values=(0,)),
        dict(m_values=(99,)),  # memory cap
        dict(m_values=(3,), epsilon=0.0),
        dict(m_values=(3,), epsilon=1.0),
        dict(m_values=(3,), p_override=-0.1),
        dict(m_values=(3,), p_override=1.2),
        dict(m_values=(3, 4), g_values=(2,)),  # misaligned
        dict(m_values=(3,), f_values=(5, 6)),  # misaligned
        dict(m_values=(3,), g_values=(4,)),  # g above m
        dict(m_values=(3,), f_values=(9,)),  # f above 2^m
        dict(m_values=(3,), restarts=-1),
        dict(m_values=(3,), monte_carlo_trials=-1),
        dict(m_values=(3,), max_iters=0),
        dict(m_values=(3,), tol=0.0),
    ]
    for kwargs in cases:
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)


def test_config_coerces_value_lists():
    config = ExperimentConfig(m_values=[3, 4], g_values=[2, 3])
    assert config.m_values == (3, 4)
    assert config.g_values == (2, 3)


def test_config_from_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"m_values": [3], "epsilon": 0.2, "restarts": 2}))
    config = ExperimentConfig.from_json(path)
    assert config.m_values == (3,)
    assert config.epsilon == 0.2
    assert config.restarts == 2
    path.write_text(json.dumps({"m_values": [3], "surprise": 1}))
    with pytest.raises(ValueError, match="surprise"):
        ExperimentConfig.from_json(path)
    path.write_text(json.dumps({"m_values": [3], "f_rule": "default"}))
    with pytest.raises(ValueError, match="f_rule"):
        ExperimentConfig.from_json(path)
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError, match="JSON object"):
        ExperimentConfig.from_json(path)


def test_params_for_defaults():
    config = ExperimentConfig(m_values=(3, 8), epsilon=0.2, seed=5)
    first = config.params_for(0)
    assert (first.m, first.g_of_m, first.f_of_m) == (3, default_g(3), default_f(3))
    assert first.p == default_p(0.2)
    assert first.seed == 5 + 3
    second = config.params_for(1)
    assert (second.m, second.g_of_m, second.f_of_m) == (8, default_g(8), default_f(8))
    assert second.seed == 5 + 8


def test_params_for_overrides():
    config = ExperimentConfig(
        m_values=(3,),
        p_override=0.5,
        f_values=(5,),
        g_values=(1,),
    )
    params = config.params_for(0)
    assert params.p == 0.5
    assert params.f_of_m == 5
    assert params.g_of_m == 1


# ----------------------------------------------------------------------
# Sweep
# ----------------------------------------------------------------------


def test_tiny_sweep_end_to_end(tmp_path):
    config = tiny_config(tmp_path)
    records = run_sweep(config)
    assert len(records) == 2
    assert all(r.error is None for r in records)

    for record, m, g in zip(records, (3, 4), (2, 3)):
        assert record.m == m and record.g == g
        assert record.delta == float(g)
        assert record.cf_failures == 0
        assert record.cf_sum_rate == float(2 * m - g)
        assert record.cf_pairs == 2 * (1 << m) * (1 << (m - g))
        assert record.ie_inner == float(m - g)
        assert math.isfinite(record.ie_estimate)
        assert record.gap == record.cf_sum_rate - record.ie_estimate
        assert record.gap_lower <= record.gap_upper
        assert set(record.wall_time) == {"construct", "code", "optimize"}
        assert record.mc_error is None

    out = tmp_path / "out"
    for m in (3, 4):
        channel = deserialize_channel(out / "channels" / f"m{m}.maccf")
        assert channel.m == m
        assert channel.block_property_verified

    lines = (out / "records.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["m"] == 3

    with open(out / "records.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 3
    assert rows[1][0] == "3" and rows[2][0] == "4"

    inner3 = (out / "regions" / "cf_inner_m3.poly").read_text().splitlines()
    assert len(inner3) == 5  # pentagon for m=3, g=2
    assert inner3[0] == "0.0 0.0"
    assert (out / "regions" / "cf_outer_m4.poly").exists()

    with open(out / "gap_vs_m.csv") as fh:
        gaps = list(csv.reader(fh))
    assert gaps[0] == ["m", "gap", "gap_lower", "gap_upper"]
    assert [row[0] for row in gaps[1:]] == ["3", "4"]


def test_sweep_reproducible(tmp_path):
    records1 = run_sweep(tiny_config(tmp_path / "a"))
    records2 = run_sweep(tiny_config(tmp_path / "b"))
    for r1, r2 in zip(records1, records2):
        d1, d2 = asdict(r1), asdict(r2)
        d1.pop("wall_time")
        d2.pop("wall_time")
        assert d1 == d2


def test_sweep_rerun_replaces_records(tmp_path):
    config = tiny_config(tmp_path)
    run_sweep(config)
    run_sweep(config)
    out = tmp_path / "out"
    assert len((out / "records.jsonl").read_text().splitlines()) == 2
    with open(out / "records.csv") as fh:
        assert len(list(csv.reader(fh))) == 3  # header and 2 rows


def test_sweep_tables_replaced_whole(tmp_path):
    records = run_sweep(tiny_config(tmp_path))
    out = tmp_path / "out"
    assert not [path for path in out.rglob("*") if path.name.endswith(".tmp")]
    assert sorted(path.name for path in out.iterdir()) == [
        "channels", "gap_vs_m.csv", "records.csv", "records.jsonl", "regions"
    ]
    # the files hold what a plain write of the same rows holds
    table = io.StringIO(newline="")
    writer = csv.writer(table)
    writer.writerow(CSV_COLUMNS)
    writer.writerows([asdict(r)[c] for c in CSV_COLUMNS] for r in records)
    csv_path = out / "records.csv"
    assert csv_path.read_bytes() == table.getvalue().encode()
    vertices = "".join(f"{x!r} {y!r}\n" for x, y in cf_inner_region(3, 2).vertices)
    assert (out / "regions" / "cf_inner_m3.poly").read_text() == vertices
    # a write that fails half way leaves the old table and no temp file
    with pytest.raises(TypeError):
        export_csv([*records, object()], csv_path)
    assert csv_path.read_bytes() == table.getvalue().encode()
    assert not [path for path in out.iterdir() if path.name.endswith(".tmp")]


def test_sweep_records_optimizer_certificate(tmp_path):
    records = run_sweep(tiny_config(tmp_path))
    out = tmp_path / "out"
    for record, line in zip(records, (out / "records.jsonl").read_text().splitlines()):
        row = json.loads(line)
        assert row["converged"] is record.converged is True
        assert row["sweeps"] == record.sweeps >= 1
        assert row["kkt_gap"] == record.kkt_gap >= 0.0
        # every run of the uniform start and the one restart, in start order
        assert row["runs"] == record.runs
        assert [run["start"] for run in row["runs"]] == ["uniform", "dirichlet"]
        values = [run["value"] for run in row["runs"]]
        assert record.ie_estimate == max(values)
        assert row["spread"] == record.spread == max(values) - min(values)
        best = row["runs"][values.index(max(values))]
        assert (best["sweeps"], best["converged"]) == (record.sweeps, record.converged)
    with open(out / "records.csv") as fh:
        assert next(csv.reader(fh)) == list(CSV_COLUMNS)


def test_sweep_records_monte_carlo(tmp_path):
    config = tiny_config(tmp_path, m_values=(3,), g_values=(2,), monte_carlo_trials=50)
    records = run_sweep(config)
    assert records[0].mc_error == 0.0


def test_sweep_survives_failed_row(tmp_path):
    # m=4 with g=1 at p=0.5 is essentially unconstructible and must fail;
    # the m=3 row before it succeeds and the files stay consistent
    config = tiny_config(tmp_path, m_values=(3, 4), g_values=(2, 1))
    records = run_sweep(config)
    assert records[0].error is None
    assert records[1].error is not None
    assert "attempts" in records[1].error
    assert math.isnan(records[1].cf_sum_rate)
    assert records[1].attempts == 0

    out = tmp_path / "out"
    assert (out / "channels" / "m3.maccf").exists()
    assert not (out / "channels" / "m4.maccf").exists()
    lines = (out / "records.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1])["error"] is not None
    with open(out / "records.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3  # failed rows still exported
    # failed rows are excluded from plot series
    with open(out / "gap_vs_m.csv") as fh:
        gaps = list(csv.reader(fh))
    assert [row[0] for row in gaps[1:]] == ["3"]
    assert not (out / "regions" / "cf_inner_m4.poly").exists()


# ----------------------------------------------------------------------
# Persistence round trips
# ----------------------------------------------------------------------


def test_load_jsonl_round_trip(tmp_path):
    records = run_sweep(tiny_config(tmp_path))
    loaded = load_jsonl(tmp_path / "out" / "records.jsonl")
    assert loaded == records
