"""Parameter sweeps over the channel width m.

One row per m: construct and verify a channel, build and exhaustively
check the facilitator code in both orientations, estimate the best
no-facilitator sum rate with the alternating optimizer, and evaluate the
closed-form bounds. The measured gap (facilitator rate minus optimizer
estimate) over-estimates the true gap, since the optimizer only lower
bounds the no-facilitator sum capacity; the JSON records carry whether
the optimizer converged, its sweep count and its KKT gap so readers can
judge the estimate.

Persistence: channels under channels/ (binary), records.jsonl started
fresh by each run and one JSON line appended per record as soon as the row
finishes (crash-safe), the full table rewritten to records.csv at the end,
polygon vertex files under regions/, and a gap-vs-m series for plotting.
The tables and polygon files are written to a temp file in their folder and
renamed over the old one, so a crash leaves the old file or the new one,
never half of one. A row that fails is recorded with its error message and
the sweep continues.

Sweeps are reproducible: per-row seeds are derived from the config seed
and m only, so identical configs give identical records except wall_time.
"""

from __future__ import annotations

import contextlib
import csv
import json
import numbers
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .bounds import (
    cf_inner_region,
    cf_outer_region,
    ie_inner_sum,
    ie_outer_sum_asymptotic,
    theorem_gap,
)
from .capacity import maximize_sum_rate
from .channel import (
    ConstructionParams,
    construct_channel,
    memory_cap,
    serialize_channel,
)
from .coding import CfCode, Orientation, monte_carlo_error, verify_zero_error
from .errors import CoopcapError

__all__ = [
    "ExperimentConfig",
    "ExperimentRecord",
    "run_sweep",
    "export_csv",
    "load_jsonl",
    "plot_data",
    "CSV_COLUMNS",
]


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(_is_int(v) for v in value)


# What each config field must hold, as a JSON config spells it.
_FIELD_TYPES = {
    "m_values": (_is_int_list, "a list of integers"),
    "epsilon": (_is_real, "a number"),
    "p_override": (_is_real, "a number or null"),
    "f_values": (_is_int_list, "a list of integers or null"),
    "g_values": (_is_int_list, "a list of integers or null"),
    "restarts": (_is_int, "an integer"),
    "tol": (_is_real, "a number"),
    "max_iters": (_is_int, "an integer"),
    "monte_carlo_trials": (_is_int, "an integer"),
    "seed": (_is_int, "an integer"),
    "output_dir": (lambda value: isinstance(value, str), "a string"),
}
_NULLABLE = ("p_override", "f_values", "g_values")


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep settings. p, f and g follow ConstructionParams.with_defaults:
    p_override, when set, replaces 1 - epsilon/2, and f_values/g_values,
    when given, replace the width schedules with one entry per m."""

    m_values: tuple[int, ...]
    epsilon: float = 0.05
    p_override: float | None = None
    f_values: tuple[int, ...] | None = None
    g_values: tuple[int, ...] | None = None
    restarts: int = 8
    tol: float = 1e-8
    max_iters: int = 100
    monte_carlo_trials: int = 0
    seed: int = 0
    output_dir: str = "sweep_out"

    def __post_init__(self):
        for name, (valid, expected) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not (valid(value) or (value is None and name in _NULLABLE)):
                raise ValueError(f"{name} must be {expected}, got {value!r}")
        object.__setattr__(self, "m_values", tuple(int(m) for m in self.m_values))
        if self.f_values is not None:
            object.__setattr__(self, "f_values", tuple(int(v) for v in self.f_values))
        if self.g_values is not None:
            object.__setattr__(self, "g_values", tuple(int(v) for v in self.g_values))
        if not self.m_values:
            raise ValueError("m_values must be nonempty")
        cap = memory_cap()
        for m in self.m_values:
            if not 1 <= m <= cap:
                raise ValueError(f"m={m} outside 1..{cap} (memory cap)")
        if self.p_override is not None and not 0.0 <= self.p_override <= 1.0:
            raise ValueError(f"p_override must be in [0, 1], got {self.p_override}")
        for name, values in (("f_values", self.f_values), ("g_values", self.g_values)):
            if values is not None and len(values) != len(self.m_values):
                raise ValueError(f"{name} needs one entry per m in m_values")
        if self.restarts < 0:
            raise ValueError(f"restarts must be >= 0, got {self.restarts}")
        if self.monte_carlo_trials < 0:
            raise ValueError(f"monte_carlo_trials must be >= 0, got {self.monte_carlo_trials}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        for index in range(len(self.m_values)):
            self.params_for(index)  # checks epsilon, and f and g against their m

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def params_for(self, index: int) -> ConstructionParams:
        m = self.m_values[index]
        return ConstructionParams.with_defaults(
            m,
            epsilon=self.epsilon,
            seed=self.seed + m,
            p=self.p_override,
            f_of_m=None if self.f_values is None else self.f_values[index],
            g_of_m=None if self.g_values is None else self.g_values[index],
        )


CSV_COLUMNS = (
    "m",
    "g",
    "delta",
    "p",
    "seed",
    "attempts",
    "cf_sum_rate",
    "cf_pairs",
    "cf_failures",
    "ie_estimate",
    "ie_inner",
    "ie_outer_asym",
    "gap",
    "gap_lower",
    "gap_upper",
)


@dataclass(frozen=True)
class ExperimentRecord:
    """One sweep row. delta is the facilitator link rate, equal to the
    block exponent g the channel was built with. converged, sweeps and
    kkt_gap describe the optimizer run behind ie_estimate (see
    AltMaxResult); they go to the JSON lines, not the CSV. When error is
    set the row failed at some phase and later numeric fields hold nan."""

    m: int
    g: int
    delta: float
    p: float
    seed: int
    attempts: int
    cf_sum_rate: float
    cf_pairs: int
    cf_failures: int
    ie_estimate: float
    ie_inner: float
    ie_outer_asym: float
    gap: float
    gap_lower: float
    gap_upper: float
    wall_time: dict = field(default_factory=dict)
    mc_error: float | None = None
    error: str | None = None
    converged: bool = False
    sweeps: int = 0
    kkt_gap: float = float("nan")


def _failed_record(params: ConstructionParams, message: str) -> ExperimentRecord:
    nan = float("nan")
    return ExperimentRecord(
        m=params.m,
        g=params.g_of_m,
        delta=float(params.g_of_m),
        p=params.p,
        seed=params.seed,
        attempts=0,
        cf_sum_rate=nan,
        cf_pairs=0,
        cf_failures=0,
        ie_estimate=nan,
        ie_inner=nan,
        ie_outer_asym=nan,
        gap=nan,
        gap_lower=nan,
        gap_upper=nan,
        error=message,
    )


def _run_row(config: ExperimentConfig, index: int, channels_dir: Path) -> ExperimentRecord:
    params = config.params_for(index)
    m, g = params.m, params.g_of_m
    walls = {}
    t0 = time.perf_counter()
    channel = construct_channel(params)
    walls["construct"] = time.perf_counter() - t0
    serialize_channel(channel, channels_dir / f"m{m}.maccf", binary=True)

    t0 = time.perf_counter()
    pairs = failures = 0
    for orientation in Orientation:
        report = verify_zero_error(CfCode(channel, orientation))
        pairs += report.pairs_checked
        failures += report.failures
    mc = None
    if config.monte_carlo_trials > 0:
        mc = monte_carlo_error(
            CfCode(channel, Orientation.R1_FULL),
            config.monte_carlo_trials,
            seed=config.seed + 10000 + m,
        )
    walls["code"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    opt = maximize_sum_rate(
        channel,
        restarts=config.restarts,
        seed=config.seed + 20000 + m,
        max_iters=config.max_iters,
        tol=config.tol,
    )
    walls["optimize"] = time.perf_counter() - t0

    cf_rate = float(2 * m - g)
    bracket = theorem_gap(m, float(g), params.epsilon)
    return ExperimentRecord(
        m=m,
        g=g,
        delta=float(g),
        p=params.p,
        seed=params.seed,
        attempts=channel.construction_attempts or 0,
        cf_sum_rate=cf_rate,
        cf_pairs=pairs,
        cf_failures=failures,
        ie_estimate=opt.value,
        ie_inner=ie_inner_sum(m, g),
        ie_outer_asym=ie_outer_sum_asymptotic(m, params.epsilon),
        gap=cf_rate - opt.value,
        gap_lower=bracket.lower,
        gap_upper=bracket.upper,
        wall_time=walls,
        mc_error=mc,
        converged=opt.converged,
        sweeps=opt.iterations,
        kkt_gap=opt.kkt_gap,
    )


def run_sweep(config: ExperimentConfig) -> list[ExperimentRecord]:
    out = Path(config.output_dir)
    channels_dir = out / "channels"
    channels_dir.mkdir(parents=True, exist_ok=True)
    records = []
    with open(out / "records.jsonl", "w", encoding="utf-8") as log:
        for index in range(len(config.m_values)):
            try:
                record = _run_row(config, index, channels_dir)
            except (CoopcapError, ValueError, OSError) as exc:
                record = _failed_record(config.params_for(index), str(exc))
            records.append(record)
            log.write(json.dumps(asdict(record)) + "\n")
            log.flush()
    export_csv(records, out / "records.csv")
    plot_data(records, out)
    return records


@contextlib.contextmanager
def _replacing(path):
    """A text file to write in place of path: a temp file in path's folder,
    renamed over path when the block ends and deleted if it raises."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def export_csv(records, path) -> None:
    """Flat table, exactly the CSV_COLUMNS columns (no wall times)."""
    with _replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for record in records:
            d = asdict(record)
            writer.writerow([d[c] for c in CSV_COLUMNS])


def load_jsonl(path) -> list[ExperimentRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(ExperimentRecord(**json.loads(line)))
    return records


def plot_data(records, out_dir) -> list[Path]:
    """Polygon vertex files for each row's inner/outer regions plus the
    gap-versus-m series; returns the written paths."""
    out = Path(out_dir)
    regions = out / "regions"
    regions.mkdir(parents=True, exist_ok=True)
    written = []
    for record in records:
        if record.error is not None:
            continue
        for name, region in (
            ("cf_inner", cf_inner_region(record.m, record.g)),
            ("cf_outer", cf_outer_region(record.m, record.delta)),
        ):
            path = regions / f"{name}_m{record.m}.poly"
            with _replacing(path) as fh:
                for x, y in region.vertices:
                    fh.write(f"{x!r} {y!r}\n")
            written.append(path)
    series = out / "gap_vs_m.csv"
    with _replacing(series) as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "gap", "gap_lower", "gap_upper"])
        for record in records:
            if record.error is None:
                writer.writerow([record.m, record.gap, record.gap_lower, record.gap_upper])
    written.append(series)
    return written
