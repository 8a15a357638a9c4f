"""Two-sender erasure channels defined by random binary matrices.

A channel on ``m`` bits per sender is a ``2^m x 2^m`` matrix of bits. Symbols
are 1-based: on input pair ``(x1, x2)`` the output is the pair itself when
entry ``(x1, x2)`` is 0 (a *good* entry) and the erased pair ``(E, E)`` when
it is 1 (a *bad* entry).

Matrices are drawn with i.i.d. Bernoulli(p) bad entries and accepted when
every aligned block of ``2^g`` consecutive entries in every row and in every
column contains at least one good entry. Block ``k`` of a line is the index
set ``{k * 2^g + l : l = 1..2^g}`` for ``k = 0..2^(m-g)-1``. This acceptance
check is exhaustive. A second, statistical property - sampled ``f x f``
submatrices should be more than ``1 - epsilon`` bad - is estimated and
reported, never enforced.

Bits are stored packed (eight per byte, big-endian within a byte), so a full
matrix costs ``2^(2m) / 8`` bytes. A configurable cap on ``m`` (default 14,
override with the ``COOPCAP_MAX_M`` environment variable) guards against
accidental huge allocations.

The passes over a whole matrix (sampling, the good-entry pattern and the
one-shot product with it, the block check, the first-good tables and the
text read) run in row strips of about 2^18 entries (2^18 packed bytes for
the row first-good tables) on a pool of one thread per core the process
may use. Each strip writes its own part of the output or returns its part
in strip order, so results are bit-identical for any strip size and thread
count, and the transient memory is a few strips' worth on top of the
output. A matrix of at most 2^18 entries (m <= 9) is one strip and runs on
the calling thread. No pass over a regular file holds the whole file: the
text read takes each strip's rows from its own offset through the one open
handle, and the text write unpacks and writes about 2^18 entries at a time,
front to back, so it may write to a pipe.

File format MACCF/1: a single ASCII header line

    MACCF 1 m=<int> p=<decimal> eps=<decimal> f=<int> g=<int> seed=<uint>

followed either by ``2^m`` text lines of ``2^m`` characters from {0, 1}
(row-major), or by the row-major bit-packed bytes of the matrix (big-endian
within each byte). Readers detect the body variant by its exact length.
"""

from __future__ import annotations

import io
import math
import os
import stat
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .bounds import construction_failure_bounds
from .errors import (
    ChannelFormatError,
    ConstructionExhausted,
    MemoryCapExceeded,
)

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "ERASURE",
    "ChannelMatrix",
    "ConstructionParams",
    "DensityReport",
    "BlockCheckResult",
    "Channel",
    "default_f",
    "default_g",
    "default_p",
    "memory_cap",
    "sample_matrix",
    "check_block_goodness",
    "first_good",
    "estimate_bad_density",
    "construct_channel",
    "channel_from_matrix",
    "serialize_channel",
    "deserialize_channel",
]

# Output symbol for a bad entry: both receivers see an erasure.
ERASURE: tuple[str, str] = ("E", "E")

DEFAULT_MAX_M = 14
MAX_M_ENV_VAR = "COOPCAP_MAX_M"

# Matrix entries per strip of rows in the whole-matrix passes, and the
# threads that run the strips. Every pass writes or returns its strips'
# results in strip order, so neither value changes any output, only time and
# transient memory (a few strips' worth).
_STRIP_BITS = 1 << 18
if hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:  # macOS and Windows have no affinity mask
    _WORKERS = os.cpu_count() or 1

# Failures a BlockCheckResult lists; every failure is counted.
_LISTED_FAILURES = 1000


def _strips(n: int, fn, align: int = 1, row_items: int | None = None) -> list:
    """[fn(lo, hi) for every strip [lo, hi) of the rows 0..n], in strip order.

    A strip holds about _STRIP_BITS items of rows of row_items items each
    (n matrix entries by default; a pass over the packed bytes alone counts
    bytes), in a multiple of align rows (the last strip may be shorter). The
    strips run on _WORKERS threads; numpy releases the interpreter lock in
    the calls that do the work. A single strip runs inline.
    """
    rows = max(align, _STRIP_BITS // (row_items or n) // align * align)
    bounds = [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
    if len(bounds) == 1 or _WORKERS == 1:
        return [fn(lo, hi) for lo, hi in bounds]
    with ThreadPoolExecutor(min(_WORKERS, len(bounds))) as pool:
        return list(pool.map(lambda b: fn(*b), bounds))


def memory_cap() -> int:
    """Largest allowed m, from COOPCAP_MAX_M or the built-in default."""
    raw = os.environ.get(MAX_M_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_M
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_M_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{MAX_M_ENV_VAR} must be >= 1, got {cap}")
    return cap


def _require_within_cap(m: int) -> None:
    cap = memory_cap()
    if m > cap:
        raise MemoryCapExceeded(
            f"m={m} needs 2^{2 * m} bits; the cap is m<={cap} "
            f"(set {MAX_M_ENV_VAR} to raise it)"
        )


def default_g(m: int) -> int:
    """Default block exponent: 2*ceil(log2 m), clamped to [1, m]."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return min(max(2 * math.ceil(math.log2(m)) if m > 1 else 1, 1), m)


def default_f(m: int) -> int:
    """Default submatrix side for density sampling: m^2, clamped to 2^m."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return min(m * m, 1 << m)


def default_p(epsilon: float) -> float:
    """Default bad-entry probability 1 - epsilon/2, inside (1 - epsilon, 1)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    return 1.0 - epsilon / 2.0


# ----------------------------------------------------------------------
# Types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructionParams:
    """Everything needed to reproduce one channel construction.

    f_of_m and g_of_m are the schedule values already evaluated at m. The
    sampling regime the statistical density property relies on is
    1 - epsilon < p < 1; it is advisory (see density_bound_applicable), not
    enforced, so degenerate p values can be used for exercising the
    machinery.
    """

    m: int
    p: float
    epsilon: float
    f_of_m: int
    g_of_m: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 1 <= self.g_of_m <= self.m:
            raise ValueError(f"g_of_m must be in [1, m={self.m}], got {self.g_of_m}")
        if not 1 <= self.f_of_m <= (1 << self.m):
            raise ValueError(f"f_of_m must be in [1, 2^m], got {self.f_of_m}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < (1 << 64):
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")

    @classmethod
    def with_defaults(cls, m, epsilon=0.05, seed=0, p=None, f_of_m=None, g_of_m=None):
        """The one place p, f and g are filled in: each one left None
        becomes default_p(epsilon), default_f(m) or default_g(m)."""
        return cls(
            m=m,
            p=default_p(epsilon) if p is None else p,
            epsilon=epsilon,
            f_of_m=default_f(m) if f_of_m is None else f_of_m,
            g_of_m=default_g(m) if g_of_m is None else g_of_m,
            seed=seed,
        )

    @property
    def density_bound_applicable(self) -> bool:
        """True when p sits in the interval the density failure bound needs."""
        return 1.0 - self.epsilon < self.p < 1.0


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Square 0/1 matrix over a 2^m alphabet, bit-packed row by row.

    packed_rows has shape (2^m, ceil(2^m / 8)); bit j of row i (big-endian
    within each byte) is entry (i+1, j+1). Padding bits past column 2^m must
    be zero. Arrays are frozen after construction; good, the sparse pattern
    of good entries, is built on first use and lives as long as the matrix.
    good_product makes one product with it without building it.
    """

    m: int
    packed_rows: np.ndarray

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        n = self.n
        row_bytes = (n + 7) // 8
        pk = np.ascontiguousarray(self.packed_rows, dtype=np.uint8)
        if pk.shape != (n, row_bytes):
            raise ValueError(
                f"packed_rows must have shape {(n, row_bytes)}, got {pk.shape}"
            )
        if n % 8 and np.any(np.unpackbits(pk, axis=1)[:, n:]):
            raise ValueError("padding bits past column 2^m must be zero")
        pk.flags.writeable = False
        object.__setattr__(self, "packed_rows", pk)

    @property
    def n(self) -> int:
        return 1 << self.m

    def bit(self, x1, x2):
        """Entry at 1-based position (x1, x2); arrays of positions broadcast
        and give the array of entries."""
        n = self.n
        if np.any((x1 < 1) | (x1 > n) | (x2 < 1) | (x2 > n)):
            raise ValueError(f"symbols must be in [1, {n}], got ({x1}, {x2})")
        j = x2 - 1
        return self.packed_rows[x1 - 1, j >> 3] >> (7 - (j & 7)) & 1

    def to_dense(self) -> np.ndarray:
        """Full (2^m, 2^m) uint8 matrix. Materializes a copy."""
        return np.unpackbits(self.packed_rows, axis=1, count=self.n)

    def _good_columns(self, lo: int, hi: int) -> np.ndarray:
        """Columns of the good entries of rows [lo, hi), row by row, each
        row's in increasing order: the indices of their CSR rows."""
        n = self.n
        # padding bits of the inverted bytes are ones; count=n drops them.
        # nonzero scans a bool array much faster than a uint8 one.
        good = np.unpackbits(~self.packed_rows[lo:hi], axis=1, count=n).view(bool)
        flat = np.flatnonzero(good)
        flat &= n - 1  # flat position -> column, since n is a power of two
        return flat

    def _good_counts(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Good entries in each of rows [lo, hi); padding bits are zero."""
        rows = self.packed_rows[lo:hi]
        return self.n - np.bitwise_count(rows).sum(axis=1, dtype=np.int64)

    @cached_property
    def good(self) -> sparse.csr_array:
        """Good-entry indicator: a read-only float64 CSR array, 1.0 where the
        bit is 0. The row counts fix indptr first, so each strip of rows
        (see _strips) writes its own slice of indices on its own thread;
        the transient memory is a few strips' worth, not the matrix's."""
        n = self.n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._good_counts(), out=indptr[1:])
        nnz = int(indptr[-1])
        index_dtype = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
        indptr = indptr.astype(index_dtype)
        indices = np.empty(nnz, dtype=index_dtype)

        def strip(lo, hi):
            indices[indptr[lo] : indptr[hi]] = self._good_columns(lo, hi)

        _strips(n, strip)
        data = np.ones(nnz)
        for arr in (data, indices, indptr):
            arr.flags.writeable = False
        from scipy import sparse  # only the good-entry products need scipy

        return sparse.csr_array((data, indices, indptr), shape=(n, n))

    def good_product(self, x) -> np.ndarray:
        """good @ x for a vector or an (n, k) array x, without building good:
        each strip of rows makes the CSR of its own rows and writes its rows
        of the product. A row sums its entries in column order, as in good,
        so the result is bit-identical to good @ x. For a one-shot product;
        repeated products share the cached good."""
        from scipy import sparse

        n = self.n
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(x.shape)

        def strip(lo, hi):
            indptr = np.zeros(hi - lo + 1, dtype=np.int64)
            np.cumsum(self._good_counts(lo, hi), out=indptr[1:])
            indices = self._good_columns(lo, hi)
            rows = sparse.csr_array(
                (np.ones(indices.size), indices, indptr), shape=(hi - lo, n)
            )
            out[lo:hi] = rows @ x

        _strips(n, strip)
        return out

    @classmethod
    def from_dense(cls, arr) -> "ChannelMatrix":
        a = np.asarray(arr, dtype=np.uint8)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]
        m = n.bit_length() - 1
        if n < 2 or (1 << m) != n:
            raise ValueError(f"side must be a power of two >= 2, got {n}")
        if np.any(a > 1):
            raise ValueError("entries must be 0 or 1")
        return cls(m=m, packed_rows=np.packbits(a, axis=1))

    def __eq__(self, other):
        if not isinstance(other, ChannelMatrix):
            return NotImplemented
        return self.m == other.m and np.array_equal(self.packed_rows, other.packed_rows)


@dataclass(frozen=True)
class DensityReport:
    """Sampled check that large submatrices are almost entirely bad."""

    trials: int
    violations: int
    min_bad_fraction_observed: float
    submatrix_size_used: int


@dataclass(frozen=True)
class BlockCheckResult:
    """Outcome of the exhaustive aligned-block goodness check.

    failure_count is the number of blocks with no good entry. failures lists
    the first of them (at most _LISTED_FAILURES), every row block before every
    column block, as (axis, x, k) with axis "row" or "col", x the 1-based line
    index and k the 0-based block index.
    """

    passed: bool
    failures: tuple[tuple[str, int, int], ...]
    failure_count: int


@dataclass(frozen=True)
class Channel:
    """A matrix together with its construction record."""

    matrix: ChannelMatrix
    params: ConstructionParams
    block_property_verified: bool
    density_report: DensityReport | None = None
    construction_attempts: int | None = None

    def __post_init__(self):
        if self.matrix.m != self.params.m:
            raise ValueError(
                f"matrix is for m={self.matrix.m} but params say m={self.params.m}"
            )

    @property
    def m(self) -> int:
        return self.params.m

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def g(self) -> int:
        return self.params.g_of_m


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------


def sample_matrix(m: int, p: float, seed: int) -> ChannelMatrix:
    """Draw a 2^m x 2^m matrix with i.i.d. Bernoulli(p) bad entries.

    Entry (i, j) is bad when draw i * 2^m + j of numpy's default_rng(seed)
    stream, read row-major, is below p, whatever the strip size and thread
    count: each strip of rows starts its own PCG64 at its offset in that
    stream with PCG64.advance (a jump in O(log n) steps).
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    _require_within_cap(m)
    n = 1 << m
    packed = np.empty((n, (n + 7) // 8), dtype=np.uint8)

    def strip(lo, hi):
        rng = np.random.Generator(np.random.PCG64(seed).advance(lo * n))
        packed[lo:hi] = np.packbits(rng.random((hi - lo, n)) < p, axis=1)

    _strips(n, strip)
    return ChannelMatrix(m=m, packed_rows=packed)


def _first_zero_table(bits: int) -> np.ndarray:
    """[byte, i]: 1-based offset of the first 0 bit in the i-th run of
    `bits` bits of byte (big-endian), 0 when the run is all ones."""
    runs = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    runs = runs.reshape(256, 8 // bits, bits)
    return np.where(runs.all(axis=2), 0, runs.argmin(axis=2) + 1).astype(np.uint16)


_FIRST_ZERO = {bits: _first_zero_table(bits) for bits in (2, 4, 8)}


def check_block_goodness(matrix: ChannelMatrix, g: int) -> BlockCheckResult:
    """Exhaustively check every aligned row and column block for a good entry.

    Both passes read the packed bytes: a row strip compares whole-byte
    blocks with 0xFF or looks sub-byte blocks up in _FIRST_ZERO, and a
    column strip of whole bands ANDs each band's rows into one packed row.
    Each strip keeps at most _LISTED_FAILURES failure positions until the
    strips are merged (8 MB in 1024 strips at m = 14).
    """
    m, n = matrix.m, matrix.n
    if not 1 <= g <= m:
        raise ValueError(f"g must be in [1, m={m}], got {g}")
    width = 1 << g
    nblocks = n >> g
    packed = matrix.packed_rows
    keep = _LISTED_FAILURES

    def listed(bad, offset):
        """A strip's failure count and the flat positions of its first
        `keep` failures in the whole table, a fresh array: a view of the
        full nonzero result would keep it alive until the merge."""
        flat = np.flatnonzero(bad)
        return flat.size, flat[:keep] + offset

    def row_strip(lo, hi):
        rows = packed[lo:hi]
        if g >= 3:  # a block is whole bytes, all bad when every byte is 0xFF
            bad = (rows.reshape(hi - lo, nblocks, width >> 3) == 0xFF).all(axis=2)
        else:  # _FIRST_ZERO gives 0 for an all-bad sub-byte block
            bad = _FIRST_ZERO[width][rows].reshape(hi - lo, -1)[:, :nblocks] == 0
        return listed(bad, lo * nblocks)  # row x, block k at x * nblocks + k

    def col_strip(lo, hi):
        # band b (rows b*2^g..) fails in column c when every row has bit c set
        bands = np.bitwise_and.reduce(packed[lo:hi].reshape(-1, width, packed.shape[1]), axis=1)
        return listed(np.unpackbits(bands, axis=1, count=n), (lo >> g) * n)

    def merged(parts, line):
        counts, flats = zip(*parts)
        return sum(counts), zip(*np.divmod(np.concatenate(flats)[:keep], line))

    row_count, rows = merged(_strips(n, row_strip), nblocks)
    col_count, cols = merged(_strips(n, col_strip, align=width), n)
    failures = [("row", int(x) + 1, int(k)) for x, k in rows]
    failures += [("col", int(c) + 1, int(b)) for b, c in cols]
    count = row_count + col_count
    return BlockCheckResult(
        passed=count == 0, failures=tuple(failures[:keep]), failure_count=count
    )


def first_good(matrix: ChannelMatrix, g: int, axis: str) -> np.ndarray:
    """First good entry of every aligned 2^g block of every row or column.

    Entry [x, k] of the (2^m, 2^(m-g)) table is the 1-based offset in
    {1..2^g} of the first good entry in block k of row x + 1 (axis "row")
    or column x + 1 (axis "col"), and 0 when that block is all bad. Rows,
    by strips: a block of whole bytes is all bad when every byte is 0xFF,
    argmax finds its first other byte, and a 256-entry table finds the
    first 0 bit in a byte or in each of its sub-byte blocks. Columns: each
    strip of whole 2^g-row bands ANDs its rows down from the top, a strip's
    worth at a time, until no column is still all bad; a column's entry is
    1 + the rows that left it all bad.
    """
    m, n = matrix.m, matrix.n
    if not 1 <= g <= m:
        raise ValueError(f"g must be in [1, m={m}], got {g}")
    if axis not in ("row", "col"):
        raise ValueError(f"axis must be 'row' or 'col', got {axis!r}")
    packed = matrix.packed_rows
    width = 1 << g
    dtype = np.uint16 if g < 16 else np.uint32
    if axis == "col":
        table = np.empty((n >> g, n), dtype=dtype)  # band-major, returned transposed
        step = max(1, _STRIP_BITS // n)  # rows walked between stop tests

        def col_strip(lo, hi):
            bands = packed[lo:hi].reshape(-1, width, packed.shape[1])
            first, bad = table[lo >> g : hi >> g], np.uint8(0xFF)
            first[:] = 1  # 1 + the walked rows whose bad has bit c set
            for r in range(0, width, step):
                rows = bands[:, r : r + step] & bad  # bit c: column c all bad so far
                for i in range(1, rows.shape[1]):
                    rows[:, i] &= rows[:, i - 1]
                first += np.unpackbits(rows, axis=2, count=n).sum(axis=1, dtype=dtype)
                bad = rows[:, -1:]
                if not bad.any():
                    break
            first *= np.unpackbits(~bad[:, 0], axis=1, count=n)  # 0: all bad to the end

        _strips(n, col_strip, align=width)
        return table.T
    table = np.empty((n, n >> g), dtype=dtype)

    def row_strip(lo, hi):
        rows = packed[lo:hi]
        if g <= 3:  # a byte holds 2^(3-g) whole blocks; padding blocks are dropped
            table[lo:hi] = _FIRST_ZERO[width][rows].reshape(hi - lo, -1)[:, : n >> g]
            return
        blocks = rows.reshape(hi - lo, n >> g, width >> 3)
        first = np.argmax(blocks != 0xFF, axis=2)  # 0 when every byte is 0xFF
        byte = np.take_along_axis(blocks, first[..., None], axis=2)[..., 0]
        z = _FIRST_ZERO[8][byte, 0]
        table[lo:hi] = np.where(z > 0, 8 * first + z, 0)

    _strips(n, row_strip, row_items=packed.shape[1])  # a few numpy calls per strip
    return table


def estimate_bad_density(
    matrix: ChannelMatrix,
    f: int,
    epsilon: float,
    trials: int,
    seed: int,
) -> DensityReport:
    """Sample random f x f submatrices and report how bad they are.

    A trial violates the density property when its bad fraction is not
    strictly above 1 - epsilon.
    """
    n = matrix.n
    if not 1 <= f <= n:
        raise ValueError(f"f must be in [1, 2^m={n}], got {f}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    threshold = 1.0 - epsilon
    violations = 0
    min_frac = 1.0
    for _ in range(trials):
        rows = rng.choice(n, size=f, replace=False)
        cols = rng.choice(n, size=f, replace=False)
        sub = np.unpackbits(matrix.packed_rows[rows], axis=1, count=n)[:, cols]
        frac = float(sub.mean())
        min_frac = min(min_frac, frac)
        if frac <= threshold:
            violations += 1
    return DensityReport(
        trials=trials,
        violations=violations,
        min_bad_fraction_observed=min_frac,
        submatrix_size_used=f,
    )


def construct_channel(
    params: ConstructionParams,
    max_attempts: int = 50,
    density_trials: int = 200,
) -> Channel:
    """Rejection-sample a matrix until the block property holds.

    Attempt i (0-based) uses seed + i, so runs are reproducible and the
    first attempt coincides with sample_matrix(m, p, seed). The accepted
    matrix gets a sampled density report attached (seeded past the attempt
    range so subset draws never reuse a matrix stream); density_trials=0
    attaches none.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    if density_trials < 0:
        raise ValueError(f"density_trials must be >= 0, got {density_trials}")
    _require_within_cap(params.m)
    for attempt in range(max_attempts):
        matrix = sample_matrix(params.m, params.p, params.seed + attempt)
        result = check_block_goodness(matrix, params.g_of_m)
        if result.passed:
            report = None
            if density_trials > 0:
                report = estimate_bad_density(
                    matrix,
                    params.f_of_m,
                    params.epsilon,
                    density_trials,
                    params.seed + max_attempts + attempt + 1,
                )
            return Channel(
                matrix=matrix,
                params=params,
                block_property_verified=True,
                density_report=report,
                construction_attempts=attempt + 1,
            )
    bound = construction_failure_bounds(
        params.m, params.p, params.f_of_m, params.g_of_m, params.epsilon
    ).block_bound_log2
    raise ConstructionExhausted(
        f"no acceptable matrix in {max_attempts} attempts "
        f"(m={params.m}, p={params.p}, g={params.g_of_m}); per-attempt union "
        f"bound on having a bad block: 2^{bound:.3f}"
    )


def channel_from_matrix(
    matrix: ChannelMatrix,
    g: int,
    *,
    p: float = 0.5,
    epsilon: float = 0.5,
    f_of_m: int | None = None,
    seed: int = 0,
    verify: bool = True,
) -> Channel:
    """Wrap a hand-built or loaded matrix as a Channel.

    p, epsilon, f_of_m, seed describe how the matrix was (or would have
    been) sampled; for a hand-built matrix they are nominal metadata.
    verify runs the exact block check so block_property_verified is
    never asserted blindly.
    """
    params = ConstructionParams.with_defaults(
        matrix.m, epsilon=epsilon, seed=seed, p=p, f_of_m=f_of_m, g_of_m=g
    )
    verified = check_block_goodness(matrix, g).passed if verify else False
    return Channel(matrix=matrix, params=params, block_property_verified=verified)


# ----------------------------------------------------------------------
# Serialization (MACCF/1)
# ----------------------------------------------------------------------

_HEADER_MAGIC = "MACCF"
_HEADER_VERSION = "1"
_HEADER_KEYS = ("m", "p", "eps", "f", "g", "seed")


def _format_header(params: ConstructionParams) -> str:
    return (
        f"{_HEADER_MAGIC} {_HEADER_VERSION} m={params.m} p={params.p!r} "
        f"eps={params.epsilon!r} f={params.f_of_m} g={params.g_of_m} "
        f"seed={params.seed}\n"
    )


def serialize_channel(channel: Channel, path, *, binary: bool = False) -> None:
    """Write the channel to path in MACCF/1 text (default) or binary form.

    The file is written front to back through one handle, so path may be a
    pipe. A text body is unpacked about _STRIP_BITS entries at a time, so a
    large matrix never fully unpacks at once.
    """
    matrix = channel.matrix
    n = matrix.n
    with open(path, "wb") as fh:
        fh.write(_format_header(channel.params).encode("ascii"))
        if binary:
            if n % 8 == 0:
                fh.write(matrix.packed_rows)  # the packed rows are the body
            else:
                fh.write(np.packbits(matrix.to_dense()).tobytes())
            return
        rows = max(1, _STRIP_BITS // n)
        for lo in range(0, n, rows):
            bits = np.unpackbits(matrix.packed_rows[lo : lo + rows], axis=1, count=n)
            block = np.full((bits.shape[0], n + 1), ord("\n"), dtype=np.uint8)
            np.add(bits, ord("0"), out=block[:, :n])
            fh.write(block)


def _parse_header(data: bytes):
    nl = data.find(b"\n")
    if nl < 0:
        raise ChannelFormatError("missing header line", offset=len(data))
    try:
        header = data[:nl].decode("ascii")
    except UnicodeDecodeError as exc:
        raise ChannelFormatError("header is not ASCII", offset=0) from exc
    tokens = header.split(" ")
    expected = 2 + len(_HEADER_KEYS)
    offset = 0
    if len(tokens) != expected:
        raise ChannelFormatError(
            f"header must have {expected} space-separated tokens, got {len(tokens)}",
            offset=0,
        )
    if tokens[0] != _HEADER_MAGIC:
        raise ChannelFormatError(f"bad magic {tokens[0]!r}", offset=0)
    offset += len(tokens[0]) + 1
    if tokens[1] != _HEADER_VERSION:
        raise ChannelFormatError(f"unsupported version {tokens[1]!r}", offset=offset)
    offset += len(tokens[1]) + 1
    values = {}
    for key, token in zip(_HEADER_KEYS, tokens[2:]):
        prefix = key + "="
        if not token.startswith(prefix):
            raise ChannelFormatError(
                f"expected {key}=<value>, got {token!r}", offset=offset
            )
        raw = token[len(prefix):]
        is_float = key in ("p", "eps")
        # int() and float() also read "_", a leading "+" and whitespace, which
        # the format does not define; an int is ASCII digits only
        undefined = "_" in raw or raw[:1] == "+" or raw != raw.strip()
        try:
            if undefined or not (is_float or raw.isdigit()):
                raise ValueError(raw)
            values[key] = float(raw) if is_float else int(raw)
        except ValueError as exc:
            raise ChannelFormatError(
                f"bad value for {key}: {raw!r}", offset=offset + len(prefix)
            ) from exc
        offset += len(token) + 1
    try:
        params = ConstructionParams(
            m=values["m"],
            p=values["p"],
            epsilon=values["eps"],
            f_of_m=values["f"],
            g_of_m=values["g"],
            seed=values["seed"],
        )
    except ValueError as exc:
        raise ChannelFormatError(f"inconsistent header: {exc}", offset=0) from exc
    return params, nl + 1


def _read_at(fh, offset: int, out: np.ndarray) -> None:
    """Fill the uint8 array out with the bytes of the open file fh from
    offset on."""
    fh.seek(offset)
    got = fh.readinto(out)
    if got < out.size:  # the length was checked, so the file shrank since
        raise ChannelFormatError("file ended while being read", offset=offset + got)


def _read_body(src, m: int, body_start: int, body_size: int) -> ChannelMatrix:
    """The matrix of the body of body_size bytes at body_start in the open
    file src, or the format error for its length or its first bad byte."""
    n = 1 << m
    packed_size = (n * n + 7) // 8
    if body_size == packed_size:
        body = np.empty(packed_size, dtype=np.uint8)
        _read_at(src, body_start, body)
        if n % 8 == 0:  # the body is packed_rows already
            packed = body.reshape(n, n // 8)
        else:
            packed = np.packbits(np.unpackbits(body, count=n * n).reshape(n, n), axis=1)
        return ChannelMatrix(m=m, packed_rows=packed)
    if body_size not in (n * (n + 1), n * (n + 1) - 1):
        raise ChannelFormatError(
            f"body has {body_size} bytes; expected {packed_size} (binary) or "
            f"{n * (n + 1)} / {n * (n + 1) - 1} (text)",
            offset=body_start,
        )
    packed = np.empty((n, (n + 7) // 8), dtype=np.uint8)
    lock = threading.Lock()  # the strips share src and its position

    def strip(lo, hi):
        """Pack rows [lo, hi), or raise the error for their first bad byte."""
        grid = np.empty((hi - lo, n + 1), dtype=np.uint8)
        grid[-1, n] = ord("\n")  # the last row's newline is optional
        size = min(grid.size, body_size - lo * (n + 1))
        with lock:
            _read_at(src, body_start + lo * (n + 1), grid.reshape(-1)[:size])
        bits = grid[:, :n] - ord("0")  # every byte but "0" and "1" wraps above 1
        bad_chars = bits.max(axis=1) > 1
        bad = np.flatnonzero(bad_chars | (grid[:, n] != ord("\n")))
        if bad.size:
            i = int(bad[0])
            start = body_start + (lo + i) * (n + 1)
            if bad_chars[i]:
                raise ChannelFormatError(
                    f"row {lo + i + 1} is not {n} characters of 0/1",
                    offset=start + int(np.argmax(bits[i] > 1)),
                )
            raise ChannelFormatError(
                f"row {lo + i + 1} not terminated by newline", offset=start + n
            )
        packed[lo:hi] = np.packbits(bits, axis=1)

    # strips raise in strip order, so the first bad byte in file order wins
    _strips(n, strip)
    return ChannelMatrix(m=m, packed_rows=packed)


def deserialize_channel(path, *, verify: bool = True) -> Channel:
    """Read a MACCF/1 file back into a Channel.

    Round-trips matrix bits and params exactly. The block check is re-run
    when verify is true (the format does not persist verification state);
    the density report is not recomputed. The file is opened once. A regular
    file's body length comes from the file system; a binary body is read
    into the packed rows and a text body by strips of rows, each into its
    own buffer, so the file is never held in memory whole. Any other input
    (a pipe, say) has no length to ask for and is read whole.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        params, body_start = _parse_header(line)
        _require_within_cap(params.m)
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            src, body_size = fh, info.st_size - body_start
        else:
            data = line + fh.read()
            src, body_size = io.BytesIO(data), len(data) - body_start
        matrix = _read_body(src, params.m, body_start, body_size)
    verified = check_block_goodness(matrix, params.g_of_m).passed if verify else False
    return Channel(matrix=matrix, params=params, block_property_verified=verified)
