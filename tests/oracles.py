"""Scalar reference implementations that the package's array code is
checked against. They read the definitions one pair, one block or one
output at a time (the grid oracle scores every pair, a chunk of rows at a
time; the hull oracle scans a grid of x), and share no code path with the
package beyond its dataclasses and sum_rate, which gives the grid oracle's
reported value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from coopcap import CfCode, sum_rate
from coopcap.capacity import BruteForceResult, ProbVector, as_distribution
from coopcap.channel import ERASURE
from coopcap.coding import IeCode, Orientation
from coopcap.errors import InvariantViolation

# ----------------------------------------------------------------------
# Channel
# ----------------------------------------------------------------------


def row_block_bits(matrix, x1, k, g):
    """Bits of row x1 on aligned block k of width 2^g, without a full unpack."""
    start = k << g
    lo, hi = start >> 3, (start + (1 << g) + 7) >> 3
    bits = np.unpackbits(matrix.packed_rows[x1 - 1, lo:hi])
    off = start & 7
    return bits[off : off + (1 << g)]


def col_block_bits(matrix, x2, k, g):
    """Bits of column x2 on aligned block k of width 2^g."""
    j = x2 - 1
    rows = slice(k << g, (k + 1) << g)
    return (matrix.packed_rows[rows, j >> 3] >> (7 - (j & 7))) & 1


def row_bits(matrix, x1):
    """Row x1 (1-based) as a length-2^m 0/1 array."""
    return np.unpackbits(matrix.packed_rows[x1 - 1], count=matrix.n)


def channel_apply(channel, x1, x2):
    """Send (x1, x2) once: the pair itself on a good entry, else ERASURE."""
    return (x1, x2) if row_bits(channel.matrix, x1)[x2 - 1] == 0 else ERASURE


def first_good_oracle(dense, g, axis):
    """Dense argmax reading of the first-good table."""
    lines = dense if axis == "row" else np.ascontiguousarray(dense.T)
    blocks = lines.reshape(lines.shape[0], -1, 1 << g) == 0
    return np.where(blocks.any(axis=2), blocks.argmax(axis=2) + 1, 0)


# ----------------------------------------------------------------------
# Codes, one message pair at a time
# ----------------------------------------------------------------------


def facilitator_oracle(code, w1, w2):
    """Index z in {1..2^g} of the first good entry in the addressed block."""
    s1, s2 = code.message_space_sizes
    if not (1 <= w1 <= s1 and 1 <= w2 <= s2):
        raise ValueError(f"message pair ({w1}, {w2}) outside {s1} x {s2}")
    matrix = code.channel.matrix
    g = code.g
    if code.orientation is Orientation.R1_FULL:
        block = row_block_bits(matrix, w1, w2 - 1, g)
    else:
        block = col_block_bits(matrix, w2, w1 - 1, g)
    z = int(np.argmin(block))
    if block[z] != 0:
        raise InvariantViolation(f"no good entry in block for ({w1}, {w2})")
    return z + 1


def cf_encode_oracle(code, w1, w2, z):
    if not 1 <= z <= (1 << code.g):
        raise ValueError(f"z must be in [1, 2^g], got {z}")
    if code.orientation is Orientation.R1_FULL:
        return (w1, (w2 - 1) * (1 << code.g) + z)
    return ((w1 - 1) * (1 << code.g) + z, w2)


def cf_decode_oracle(code, y):
    if tuple(y) == ERASURE:
        return None
    x1, x2 = y
    width = 1 << code.g
    if code.orientation is Orientation.R1_FULL:
        return (x1, (x2 + width - 1) // width)
    return ((x1 + width - 1) // width, x2)


def ie_encode_oracle(code, w):
    if not 1 <= w <= code.message_count:
        raise ValueError(f"message {w} outside [1, {code.message_count}]")
    x = code.codebook[w - 1]
    return (x, 1) if code.active_user == 1 else (1, x)


def ie_decode_oracle(code, y):
    if tuple(y) == ERASURE:
        return None
    x = y[0] if code.active_user == 1 else y[1]
    width = 1 << code.g
    w = (x + width - 1) // width
    if 1 <= w <= code.message_count and code.codebook[w - 1] == x:
        return w
    return None


def _cf_pair_fails(code, fac, w1, w2):
    z = int(fac(code, w1, w2))
    y = channel_apply(code.channel, *cf_encode_oracle(code, w1, w2, z))
    return cf_decode_oracle(code, y) != (w1, w2)


def verify_zero_error_oracle(code, facilitator=None):
    """(pairs checked, failures) from encode, channel and decode per pair."""
    fac = facilitator_oracle if facilitator is None else facilitator
    s1, s2 = code.message_space_sizes
    failures = sum(
        _cf_pair_fails(code, fac, w1, w2)
        for w1 in range(1, s1 + 1)
        for w2 in range(1, s2 + 1)
    )
    return s1 * s2, failures


def monte_carlo_error_oracle(code, trials, seed, facilitator=None):
    """Decode-failure rate over the same uniform draws as monte_carlo_error."""
    rng = np.random.default_rng(seed)
    failures = 0
    if isinstance(code, CfCode):
        fac = facilitator_oracle if facilitator is None else facilitator
        s1, s2 = code.message_space_sizes
        draws1 = rng.integers(1, s1 + 1, size=trials)
        draws2 = rng.integers(1, s2 + 1, size=trials)
        for w1, w2 in zip(draws1, draws2):
            failures += _cf_pair_fails(code, fac, int(w1), int(w2))
    else:
        assert isinstance(code, IeCode)
        for w in rng.integers(1, code.message_count + 1, size=trials):
            y = channel_apply(code.channel, *ie_encode_oracle(code, int(w)))
            failures += ie_decode_oracle(code, y) != int(w)
    return failures / trials


# ----------------------------------------------------------------------
# Output law of one channel use
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OutputStats:
    """Output law of one channel use under a product input distribution.

    gamma_by_x1[i - 1] is the probability of sending symbol i and landing
    on a good entry; gamma is their sum; y_distribution maps each output
    with positive mass, including ERASURE, to its probability.
    """

    gamma_by_x1: np.ndarray
    gamma: float
    y_distribution: dict


def output_stats(channel, p1, p2) -> OutputStats:
    n = channel.n
    u = as_distribution(p1, n)
    v = as_distribution(p2, n)
    gamma_by = np.zeros(n)
    y: dict = {}
    for i in range(n):
        good = row_bits(channel.matrix, i + 1) == 0
        s_i = float(v[good].sum())
        gamma_by[i] = u[i] * s_i
        if u[i] > 0:
            for j in np.nonzero(good & (v > 0))[0]:
                y[(i + 1, int(j) + 1)] = float(u[i] * v[j])
    gamma = float(gamma_by.sum())
    erased = 1.0 - gamma
    if erased > 0:
        y[ERASURE] = erased
    return OutputStats(gamma_by_x1=gamma_by, gamma=gamma, y_distribution=y)


def uniform(n) -> ProbVector:
    return ProbVector(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class RateTriple:
    """Per-sender conditional rates and the sum rate, in bits."""

    i1: float
    i2: float
    i12: float


def rate_triple(channel, p1, p2) -> RateTriple:
    """(H(Y1|X2), H(Y2|X1), H(Y)) for independent inputs from the dense
    matrix; the channel is deterministic, so each mutual information is an
    output entropy. H(Y) comes from the joint law of the outputs, not from
    the row sums sum_rate uses."""
    n = channel.n
    u = as_distribution(p1, n)
    v = as_distribution(p2, n)
    good = 1.0 - channel.matrix.to_dense()
    row, col = good @ v, good.T @ u  # P(good | X1 = i), P(good | X2 = j)
    i2 = u @ (-(good @ _xlog2x(v)) - _xlog2x(np.clip(1.0 - row, 0.0, 1.0)))
    i1 = v @ (-(good.T @ _xlog2x(u)) - _xlog2x(np.clip(1.0 - col, 0.0, 1.0)))
    joint = np.outer(u, v) * good
    law = np.append(joint.ravel(), max(1.0 - joint.sum(), 0.0))  # last: ERASURE
    i12 = -_xlog2x(law).sum()
    return RateTriple(i1=float(i1), i2=float(i2), i12=float(i12))


# ----------------------------------------------------------------------
# Hyperbola hull maximum on a grid
# ----------------------------------------------------------------------


def hyperbola_feasible(region, x, y):
    """(x, y) is nonnegative and meets both hyperbola constraints."""
    a, b, c = region.a, region.b, region.c
    return x >= 0 and y >= 0 and (x - a) * (y + b) <= c and (x + b) * (y - a) <= c


def numeric_hull_max(region, samples_per_axis=2000):
    """Grid estimate of max(x + y) over the hull, hypothesis-free.

    Needs a >= 0, b > 0, c >= 0 so the region is bounded inside
    [0, a + c/b]^2. A linear objective attains its hull maximum at a
    region point, so scanning column tops suffices: for each grid x the
    largest feasible y is a + c/(x+b), further capped by c/(x-a) - b once
    x > a. No root of the closed form is solved.
    """
    a, b, c = region.a, region.b, region.c
    if samples_per_axis < 2:
        raise ValueError(f"samples_per_axis must be >= 2, got {samples_per_axis}")
    if not (a >= 0 and b > 0 and c >= 0):
        raise ValueError(f"grid evaluation needs a >= 0, b > 0, c >= 0, got {(a, b, c)}")
    xs = np.linspace(0.0, a + c / b, samples_per_axis)
    ytop = a + c / (xs + b)
    past = xs > a
    ytop[past] = np.minimum(ytop[past], c / (xs[past] - a) - b)
    ytop = np.minimum(ytop, a + c / b)
    feasible = ytop >= 0
    if not feasible.any():
        return 0.0 if hyperbola_feasible(region, 0.0, 0.0) else float("-inf")
    return float(np.max(xs[feasible] + ytop[feasible]))


# ----------------------------------------------------------------------
# Grid oracle: every pair of grid marginals
# ----------------------------------------------------------------------


def simplex_grid_oracle(n, steps):
    """Every length-n count vector summing to steps, in the package's order:
    stars and bars over the sorted (n - 1)-subsets of bar positions."""
    points = []
    for cuts in combinations(range(steps + n - 1), n - 1):
        ends = (-1, *cuts, steps + n - 1)
        points.append([b - a - 1 for a, b in zip(ends, ends[1:])])
    return np.array(points, dtype=np.int64)


def _xlog2x(x):
    out = np.zeros_like(x)
    out[x > 0] = x[x > 0] * np.log2(x[x > 0])
    return out


def grid_score_chunks(channel, grid_steps, chunk=256):
    """The float32 scores -H(Y) of all K^2 pairs of grid marginals, as
    (first p1 index, scores of chunk p1 rows x all K p2) pieces: one matrix
    product per chunk for the entropy terms, a table for the erasure term
    (gamma * steps^2 is an integer)."""
    comps = simplex_grid_oracle(channel.n, grid_steps)
    U = (comps / grid_steps).astype(np.float32)
    UL = _xlog2x(comps / grid_steps).astype(np.float32)
    good = (1 - channel.matrix.to_dense()).astype(np.float32)
    left = np.hstack([UL, U])
    right = np.vstack([good @ U.T, good @ UL.T])
    comps_f = comps.astype(np.float32)
    right_int = good @ comps_f.T
    s2 = grid_steps * grid_steps
    table = _xlog2x(1.0 - np.arange(s2 + 1) / s2).astype(np.float32)
    for lo in range(0, len(comps), chunk):
        gamma = (comps_f[lo : lo + chunk] @ right_int).astype(np.uint16)
        yield lo, table[gamma] + left[lo : lo + chunk] @ right


def brute_force_oracle(channel, grid_steps):
    """BruteForceResult of the full float32 scan over all K^2 pairs of
    grid marginals: the first pair in row-major order with the smallest
    score, re-evaluated in float64. No pair is skipped."""
    comps = simplex_grid_oracle(channel.n, grid_steps)
    best, best_pair = np.float32(np.inf), None
    for lo, scores in grid_score_chunks(channel, grid_steps):
        r, c = np.unravel_index(np.argmin(scores), scores.shape)
        if scores[r, c] < best:
            best, best_pair = scores[r, c], (lo + r, c)
    p1, p2 = (ProbVector(comps[k] / grid_steps) for k in best_pair)
    return BruteForceResult(value=sum_rate(channel, p1, p2), p1=p1, p2=p2)
