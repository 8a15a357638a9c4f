"""Checks of the program's outputs, computed apart from the program.

Nothing here imports coopcap: every expected value is recomputed from the
files the program wrote, from its returned numbers and from formulas written
out below. Each check returns a list of failure messages; an empty list
means the check passed.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

# Column order of records.csv, as the sweep documents it.
CSV_COLUMNS = (
    "m", "g", "delta", "p", "seed", "attempts", "cf_sum_rate", "cf_pairs",
    "cf_failures", "ie_estimate", "ie_inner", "ie_outer_asym", "gap",
    "gap_lower", "gap_upper",
)

_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


def _fail(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


# ----------------------------------------------------------------------
# MACCF files and matrices
# ----------------------------------------------------------------------


def maccf_header(m: int, p: float, eps: float, f: int, g: int, seed: int) -> bytes:
    """The MACCF/1 header line for these parameters."""
    return f"MACCF 1 m={m} p={p!r} eps={eps!r} f={f} g={g} seed={seed}\n".encode("ascii")


def read_maccf(path) -> tuple[dict, bytes]:
    """(header fields, body bytes) of a MACCF/1 file."""
    data = Path(path).read_bytes()
    line, _, body = data.partition(b"\n")
    tokens = line.decode("ascii").split(" ")
    fields = dict(token.split("=", 1) for token in tokens[2:])
    fields["magic"] = " ".join(tokens[:2])
    return fields, body


def dense_from_file(path) -> np.ndarray:
    """The 0/1 matrix stored in a MACCF/1 file of either body variant."""
    fields, body = read_maccf(path)
    n = 1 << int(fields["m"])
    if len(body) == (n * n + 7) // 8:
        return np.unpackbits(np.frombuffer(body, dtype=np.uint8), count=n * n).reshape(n, n)
    text = np.frombuffer(body, dtype=np.uint8).reshape(n, n + 1)
    return text[:, :n] - ord("0")


def maccf_file_errors(path, header: bytes, packed: np.ndarray, binary: bool) -> list[str]:
    """The file holds exactly this header and this bit-packed matrix."""
    n = packed.shape[0]
    data = Path(path).read_bytes()
    body_size = (n * n + 7) // 8 if binary else n * (n + 1)
    kind = "binary" if binary else "text"
    errors = _fail(
        len(data) == len(header) + body_size,
        f"{kind} file has {len(data)} bytes, expected {len(header)} + {body_size}",
    )
    errors += _fail(data.startswith(header), f"{kind} file header is not {header!r}")
    if errors:
        return errors
    body = np.frombuffer(data, dtype=np.uint8, offset=len(header))
    if binary:
        same = np.array_equal(body, packed.reshape(-1))
    else:
        text = body.reshape(n, n + 1)
        same = bool(np.all(text[:, n] == ord("\n")))
        for lo in range(0, n, 1024):  # row bands keep the unpacked copy small
            dense = np.unpackbits(packed[lo : lo + 1024], axis=1, count=n)
            same = same and np.array_equal(text[lo : lo + 1024, :n], dense + ord("0"))
    return _fail(same, f"{kind} file body differs from the constructed matrix")


def bad_fraction_errors(packed: np.ndarray, p: float) -> list[str]:
    """The share of bad entries is within 6 sigma of p (binomial)."""
    total = packed.shape[0] ** 2
    bad = int(_POPCOUNT[packed].sum())
    sigma = math.sqrt(p * (1.0 - p) / total)
    share = bad / total
    return _fail(
        abs(share - p) <= 6.0 * sigma,
        f"bad share {share:.6f} is more than 6 sigma ({sigma:.2e}) from p={p}",
    )


def block_property_errors(dense: np.ndarray, g: int) -> list[str]:
    """Every aligned 2^g block of every row and column has a good (0) entry."""
    n = dense.shape[0]
    width = 1 << g
    rows_ok = dense.reshape(n, n // width, width).min(axis=2) == 0
    cols_ok = dense.reshape(n // width, width, n).min(axis=1) == 0
    errors = _fail(bool(rows_ok.all()), f"{int((~rows_ok).sum())} all-bad row blocks")
    return errors + _fail(bool(cols_ok.all()), f"{int((~cols_ok).sum())} all-bad column blocks")


def uniform_output_entropy(dense: np.ndarray) -> float:
    """H(Y) under uniform inputs: every good entry carries 1/n^2 and the
    erasure carries the bad share, so H = gamma * 2m - (1 - gamma) log2(1 - gamma)."""
    n = dense.shape[0]
    gamma = 1.0 - float(np.count_nonzero(dense)) / (n * n)
    return gamma * 2.0 * math.log2(n) - _xlog2x(1.0 - gamma)


def _xlog2x(x: float) -> float:
    return x * math.log2(x) if x > 0 else 0.0


def output_entropy(dense: np.ndarray, p1, p2) -> float:
    """H(Y) for independent inputs by summing the whole output law: mass
    p1(i) p2(j) on each good (i, j), the rest on the erasure."""
    law = np.outer(np.asarray(p1, dtype=np.float64), np.asarray(p2, dtype=np.float64))
    good = law[dense == 0]
    good = good[good > 0]
    erased = 1.0 - float(good.sum())
    return float(-(good * np.log2(good)).sum()) - _xlog2x(max(erased, 0.0))


# ----------------------------------------------------------------------
# channel-m14
# ----------------------------------------------------------------------


def pairs_errors(reports: dict, m: int, g: int) -> list[str]:
    """Each orientation checked 2^m * 2^(m-g) pairs with no failure."""
    expected = (1 << m) * (1 << (m - g))
    errors = []
    for orientation, (pairs, failures) in reports.items():
        errors += _fail(pairs == expected, f"{orientation}: {pairs} pairs checked, expected {expected}")
        errors += _fail(failures == 0, f"{orientation}: {failures} decode failures")
    return errors


def fixed_helper_share(dense: np.ndarray, g: int) -> float:
    """Share of (row, block) pairs whose first entry is bad: the decode
    failure rate of the R1 code when the helper always says z = 1."""
    return float(dense[:, :: 1 << g].mean())


def monte_carlo_errors(honest: float, fixed: float, share: float, trials: int) -> list[str]:
    """The honest helper never fails; a z = 1 helper fails at the share of
    blocks with a bad first entry, within 6 sigma."""
    sigma = math.sqrt(share * (1.0 - share) / trials)
    errors = _fail(honest == 0.0, f"honest Monte Carlo error is {honest!r}, expected 0.0")
    return errors + _fail(
        abs(fixed - share) <= 6.0 * sigma + 1e-12,
        f"z=1 Monte Carlo error {fixed:.6f} is more than 6 sigma ({sigma:.2e}) from {share:.6f}",
    )


def uniform_rate_errors(reported: float, dense: np.ndarray) -> list[str]:
    expected = uniform_output_entropy(dense)
    return _fail(
        abs(reported - expected) <= 1e-9,
        f"uniform-input sum rate {reported!r}, recomputed {expected!r}",
    )


# ----------------------------------------------------------------------
# sweep-m6-10
# ----------------------------------------------------------------------


def sweep_g(m: int) -> int:
    """Block exponent of the width schedule: 2 ceil(log2 m), capped at m."""
    return min(2 * math.ceil(math.log2(m)), m)


def record_errors(record: dict, m: int, eps: float, p: float, seed: int, uniform_rate: float) -> list[str]:
    """One sweep row against the formulas of the construction and bounds."""
    g = sweep_g(m)
    estimate = record["ie_estimate"]
    expected = {
        "m": m,
        "g": g,
        "delta": float(g),
        "p": p,
        "seed": seed + m,
        "cf_sum_rate": float(2 * m - g),
        "cf_pairs": 2 * (1 << m) * (1 << (m - g)),
        "cf_failures": 0,
        "ie_inner": float(m - g),
        "ie_outer_asym": (math.sqrt(5.0 + 4.0 * eps) - 1.0) * m,
        "gap": (2 * m - g) - estimate,
        "gap_lower": (3.0 - math.sqrt(5.0 + 4.0 * eps)) * m - g,
        "gap_upper": float(m + g),
        "error": None,
    }
    errors = []
    for key, want in expected.items():
        got = record.get(key)
        if isinstance(want, float):
            ok = isinstance(got, (int, float)) and abs(got - want) <= 1e-12 * max(1.0, abs(want))
        else:
            ok = got == want
        errors += _fail(ok, f"m={m}: {key}={got!r}, expected {want!r}")
    errors += _fail(record.get("attempts", 0) >= 1, f"m={m}: attempts={record.get('attempts')!r}")
    errors += _fail(estimate <= 2 * m + 1e-9, f"m={m}: ie_estimate {estimate!r} above 2m")
    errors += _fail(
        estimate >= uniform_rate - 1e-9,
        f"m={m}: ie_estimate {estimate!r} below the uniform-input rate {uniform_rate!r}",
    )
    return errors


def table_errors(jsonl_rows: list[dict], csv_rows: list[list[str]], count: int) -> list[str]:
    """records.jsonl and records.csv hold the same `count` rows."""
    errors = _fail(len(jsonl_rows) == count, f"records.jsonl has {len(jsonl_rows)} rows, expected {count}")
    errors += _fail(
        bool(csv_rows) and tuple(csv_rows[0]) == CSV_COLUMNS, "records.csv header differs"
    )
    body = csv_rows[1:]
    errors += _fail(len(body) == count, f"records.csv has {len(body)} rows, expected {count}")
    for record, row in zip(jsonl_rows, body):
        for column, cell in zip(CSV_COLUMNS, row):
            want = record.get(column)
            same = cell == str(want) or (
                isinstance(want, (int, float)) and float(cell) == float(want)
            )
            errors += _fail(same, f"m={record.get('m')}: csv {column}={cell!r}, jsonl {want!r}")
    return errors


def region_vertices(m: int, g: int) -> dict[str, list[tuple[float, float]]]:
    """Counterclockwise corners, from the lexicographically smallest, of
    R1, R2 <= m, R1 + R2 <= 2m - g and of R1, R2 <= m + g, R1 + R2 <= 2m."""
    def polygon(side: float, total: float):
        if side >= total:
            return [(0.0, 0.0), (total, 0.0), (0.0, total)]
        return [(0.0, 0.0), (side, 0.0), (side, total - side), (total - side, side), (0.0, side)]

    return {
        "cf_inner": polygon(float(m), float(2 * m - g)),
        "cf_outer": polygon(float(m + g), float(2 * m)),
    }


def region_errors(regions_dir, m: int, g: int) -> list[str]:
    errors = []
    for name, want in region_vertices(m, g).items():
        path = Path(regions_dir) / f"{name}_m{m}.poly"
        got = [tuple(float(v) for v in line.split()) for line in path.read_text().splitlines()]
        same = len(got) == len(want) and all(
            abs(a - c) <= 1e-9 and abs(b - d) <= 1e-9 for (a, b), (c, d) in zip(got, want)
        )
        errors += _fail(same, f"{path.name} lists {got}, expected {want}")
    return errors


def sweep_errors(out_dir, m_values, eps: float, p: float, seed: int) -> list[str]:
    """Everything a sweep wrote into a fresh output folder."""
    out = Path(out_dir)
    with open(out / "records.jsonl", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    with open(out / "records.csv", encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    errors = table_errors(rows, table, len(m_values))
    for m, record in zip(m_values, rows):
        rate = uniform_output_entropy(dense_from_file(out / "channels" / f"m{m}.maccf"))
        errors += record_errors(record, m, eps, p, seed, rate)
        errors += region_errors(out / "regions", m, sweep_g(m))
    return errors


# ----------------------------------------------------------------------
# capacity
# ----------------------------------------------------------------------


def _seven_digit_slack(value: float) -> float:
    """Half a unit in the 7th significant digit of value."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 6)


def capacity_errors(dense: np.ndarray, marginals: dict, printed: float) -> list[str]:
    """The reported rate is H(Y) of the reported marginals, printed to 7
    digits, and lies between the uniform-input rate and 2m."""
    n = dense.shape[0]
    errors = []
    for key in ("p1", "p2"):
        pmf = np.asarray(marginals[key], dtype=np.float64)
        errors += _fail(
            pmf.shape == (n,) and bool(np.all(pmf >= 0)) and abs(pmf.sum() - 1.0) <= 1e-9,
            f"{key} is not a pmf on {n} symbols",
        )
    if errors:
        return errors
    value = output_entropy(dense, marginals["p1"], marginals["p2"])
    reported = marginals["sum_rate"]
    errors += _fail(abs(reported - value) <= 1e-9, f"json sum_rate {reported!r}, recomputed {value!r}")
    errors += _fail(
        abs(printed - value) <= _seven_digit_slack(value) * (1 + 1e-9),
        f"printed sum_rate {printed!r} is not {value!r} to 7 digits",
    )
    low, high = uniform_output_entropy(dense), 2.0 * math.log2(n)
    errors += _fail(
        low - 1e-9 <= value <= high + 1e-9, f"sum_rate {value!r} outside [{low!r}, {high!r}]"
    )
    return errors


def simplex_grid(n: int, steps: int) -> np.ndarray:
    """Every pmf on n symbols whose masses are multiples of 1/steps."""
    rows = [
        np.diff((-1,) + cut + (steps + n - 1,)) - 1
        for cut in itertools.combinations(range(steps + n - 1), n - 1)
    ]
    return np.array(rows, dtype=np.float64) / steps


def grid_errors(dense: np.ndarray, grid_value: float, grid_p1, grid_p2, optimizer_value: float,
                steps: int = 64, coarse: int = 8) -> list[str]:
    """The grid optimum is H(Y) at its own argmax, lies on the steps-grid,
    is at least the best point of the coarse grid (a subset, up to the
    scan's float32 slack of 1e-5), and agrees with the optimizer to 0.02."""
    errors = []
    for key, pmf in (("p1", grid_p1), ("p2", grid_p2)):
        scaled = np.asarray(pmf, dtype=np.float64) * steps
        errors += _fail(
            bool(np.all(np.abs(scaled - np.round(scaled)) <= 1e-9)), f"grid {key} is off the 1/{steps} grid"
        )
    at_argmax = output_entropy(dense, grid_p1, grid_p2)
    errors += _fail(
        abs(grid_value - at_argmax) <= 1e-9, f"grid value {grid_value!r}, recomputed {at_argmax!r}"
    )
    points = simplex_grid(dense.shape[0], coarse)
    # law[a, b, i, j]: mass of the good output (i, j) under the pair (a, b)
    law = np.einsum("ai,bj,ij->abij", points, points, (dense == 0).astype(np.float64))
    terms = np.where(law > 0, law * np.log2(np.where(law > 0, law, 1.0)), 0.0)
    erased = np.clip(1.0 - law.sum(axis=(2, 3)), 0.0, 1.0)
    erased_terms = np.where(erased > 0, erased * np.log2(np.where(erased > 0, erased, 1.0)), 0.0)
    best = float((-terms.sum(axis=(2, 3)) - erased_terms).max())
    errors += _fail(
        grid_value >= best - 1e-5, f"grid value {grid_value!r} below the {coarse}-step grid's {best!r}"
    )
    errors += _fail(
        abs(optimizer_value - grid_value) <= 0.02,
        f"optimizer {optimizer_value!r} and grid {grid_value!r} differ by more than 0.02",
    )
    return errors
