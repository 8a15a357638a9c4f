"""Sum-rate quantities for independent senders on an erasure-matrix channel.

With marginals p1 and p2 the output is (X1, X2) on good entries and the
erased pair otherwise, and because the channel is deterministic the mutual
information between inputs and output is the output entropy:

    I(X1, X2; Y) = H(Y)
                 = - sum over good (i, j) of p1(i) p2(j) log2(p1(i) p2(j))
                 - (1 - gamma) log2(1 - gamma),

where gamma is the total probability of landing on a good entry. Writing
s_i = sum_j good(i, j) p2(j) and t_i = sum_j good(i, j) p2(j) log2 p2(j),

    H(Y) = - sum_i p1(i) log2(p1(i)) s_i - sum_i p1(i) t_i
           - (1 - gamma) log2(1 - gamma),      gamma = p1 . s,

so for fixed p2 the objective is an O(n) function of p1 after one product
of the sparse good-entry pattern with [p2, p2 log2 p2]. sum_rate makes its
one product strip by strip (ChannelMatrix.good_product); the optimizer
repeats products, so it uses the cached pattern (ChannelMatrix.good).
It is concave in p1 (the output law is affine in p1 and entropy is
concave), with a maximizer in closed form up to one scalar
multiplier (the Blahut-Arimoto step, as Rezaeian and Grant apply it to the
multiple-access sum rate). The maximizer here alternates these exact
updates over the two marginals.

maximize_sum_rate runs all its starts in lockstep. The marginals of the R
runs still open form an (R, n) block: each half-sweep is one product of
the pattern with the stacked [p, p log2 p] columns of every run (a run's
columns equal its own product exactly) and one batched update with one
multiplier per run. A run leaves the block when a sweep gains less than
tol or at max_iters, so it takes the sweeps it would take alone.

The grid oracle cross-checks it on alphabets of at most 4 symbols: the
best pair of pmfs on a 1/steps grid, with the result of a float32 scan of
every pair. It scans few of them. With one marginal a fixed, H(Y) is the
entropy of a mixture over the other input's symbols j, so by Gibbs'
inequality it is at most max_j of the cross-entropy of the output given
X2 = j against any output law q (Blahut 1972, Arimoto 1972). Taking q as
the output law of (a, b) and improving b by Blahut-Arimoto steps gives an
upper bound on a's best response over every b. A grid marginal whose
bound lies more than _BF_MARGIN below a value some grid pair attains is
never scanned; the margin is over a hundred times the scan's float32 error.

Also here: the layered decomposition of a pmf into nested uniform
distributions, and the entropy-based bound on the probability of any fixed
small subset. All logarithms are base 2 and 0 log 0 = 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import Channel
from .errors import InvariantViolation

__all__ = [
    "ProbVector",
    "AltMaxResult",
    "StartRun",
    "BruteForceResult",
    "UniformDecomposition",
    "xlog2x",
    "entropy_bits",
    "sum_rate",
    "alternating_maximization",
    "maximize_sum_rate",
    "brute_force_sum_capacity",
    "decompose_into_uniforms",
    "tail_mass_bound",
]

_TINY = 1e-300  # floor inside logs; keeps gradients finite at the boundary


def xlog2x(v):
    """Elementwise v * log2(v) with the 0 log 0 = 0 convention."""
    arr = np.asarray(v, dtype=np.float64)
    pos = arr > 0
    out = np.where(pos, arr * np.log2(np.where(pos, arr, 1.0)), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def entropy_bits(p) -> float:
    """Shannon entropy of a pmf, in bits."""
    return float(-np.sum(xlog2x(np.asarray(p, dtype=np.float64))))


@dataclass(frozen=True, eq=False)
class ProbVector:
    """Probability vector over the 1-based alphabet {1..N}.

    probs[i - 1] is the mass of symbol i. Entries must be nonnegative and
    sum to 1 within 1e-12.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError(f"probs must be a nonempty 1-d array, got shape {arr.shape}")
        if np.any(arr < 0):
            raise ValueError("probs must be nonnegative")
        if abs(float(arr.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probs must sum to 1 within 1e-12, got {arr.sum()!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    def __len__(self) -> int:
        return self.probs.size

    def __eq__(self, other):
        if not isinstance(other, ProbVector):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)


def as_distribution(p, n: int | None = None) -> np.ndarray:
    """Validated float64 pmf array from a ProbVector or any sequence."""
    arr = p.probs if isinstance(p, ProbVector) else ProbVector(np.asarray(p)).probs
    if n is not None and arr.size != n:
        raise ValueError(f"distribution has {arr.size} entries, channel needs {n}")
    return arr


# ----------------------------------------------------------------------
# Rates
# ----------------------------------------------------------------------


def _products(op, p: np.ndarray, pl: np.ndarray) -> np.ndarray:
    """op @ [p, pl] with pl = p log2 p, for the pmf p or for each row of an
    (R, n) block p, as one (2R, n) block: rows :R are s, rows R: are t. A
    row's s and t are exactly what the product with its own two columns
    gives."""
    return np.ascontiguousarray((op @ np.column_stack([p.T, pl.T])).T)


def _entropy_from_products(u, ul, s, t):
    """H(Y) for each row of the (R, n) blocks u, ul = u log2 u, s and t (or
    for one vector of each)."""
    erased = np.clip(1.0 - np.vecdot(u, s), 0.0, 1.0)
    return 0.0 - np.vecdot(ul, s) - np.vecdot(u, t) - xlog2x(erased)  # never -0.0


def sum_rate(channel: Channel, p1, p2) -> float:
    """I(X1, X2; Y) = H(Y) in bits for independent inputs p1, p2.

    The one product with the good-entry pattern streams by strips of rows and
    leaves ChannelMatrix.good unbuilt; the value is bit-identical to the
    optimizer's, which uses the cached pattern.
    """
    n = channel.n
    u = as_distribution(p1, n)
    v = as_distribution(p2, n)
    product = channel.matrix.good_product(np.column_stack([v, xlog2x(v)]))
    s, t = np.ascontiguousarray(product.T)  # contiguous rows, as _products gives
    return float(_entropy_from_products(u, xlog2x(u), s, t))


# ----------------------------------------------------------------------
# Alternating maximization
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StartRun:
    """One run of the alternating maximization: its start ("uniform",
    "dirichlet", or "given" for a caller's init2), the value it reached, its
    sweep count, whether its last sweep gained less than tol, and its
    kkt_gap (see AltMaxResult)."""

    start: str
    value: float
    sweeps: int
    converged: bool
    kkt_gap: float


@dataclass(frozen=True)
class AltMaxResult:
    """The best run's pair and figures, and every run in start order.

    kkt_gap certifies the returned pair: the larger over the two
    marginals of the Frank-Wolfe gap (see _frank_wolfe_gap) with the other
    marginal held fixed, so no change of one marginal alone gains more."""

    p1: ProbVector
    p2: ProbVector
    value: float
    iterations: int
    converged: bool
    sweep_values: tuple[float, ...]
    kkt_gap: float
    runs: tuple[StartRun, ...]

    @property
    def spread(self) -> float:
        """The best run's value minus the worst run's."""
        return self.value - min(run.value for run in self.runs)


def _multiplier(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Root of L(lam) = log2 sum_i 2^(c_i - lam / s_i), 0 < s_i < 1, for
    each run, a row of the (R, k) blocks c and s; entries with c_i = -inf
    are not terms of their run's sum.

    L is convex and decreasing. Alone, term i reaches 1 at lam = c_i s_i, so
    L >= 0 at the largest of these; at hi every one of the k terms is at
    most 1/k, so L <= 0. Newton from the left end climbs to the root without
    overshooting; a step that leaves the bracket bisects instead. A run
    leaves the iteration at its own stop, so it takes the steps it would
    take alone.
    """
    lo = np.max(c * s, axis=1)
    hi = np.max((c + np.log2(np.isfinite(c).sum(axis=1))[:, None]) * s, axis=1)
    lam = lo.copy()
    root = np.empty_like(lam)
    rows = np.arange(lam.size)
    inv = 1.0 / s
    for _ in range(200):
        a = c - lam[:, None] * inv
        top = a.max(axis=1)
        e = np.exp2(a - top[:, None])
        total = e.sum(axis=1)
        value = top + np.log2(total)  # at value == 0 the step below is 0 and lam stops
        rising = value > 0
        np.copyto(lo, lam, where=rising)
        np.copyto(hi, lam, where=~rising)
        nxt = lam + value * total / np.vecdot(e, inv)
        np.copyto(nxt, 0.5 * (lo + hi), where=~((lo <= nxt) & (nxt <= hi)))
        done = np.abs(nxt - lam) <= 1e-15 * np.maximum(1.0, np.abs(lam))
        lam = nxt
        if np.count_nonzero(done):
            root[rows[done]] = lam[done]
            going = ~done
            if not going.any():
                return root
            rows, c, inv = rows[going], c[going], inv[going]
            lam, lo, hi = lam[going], lo[going], hi[going]
    root[rows] = lam
    return root


def _maximize_marginal(s, t):
    """Exact maximizer u of the concave one-marginal objective for each run,
    a row of the (R, n) blocks s and t.

    Where s_i > 0, stationarity gives u_i = (1 - gamma) 2^(-(t_i + lam) / s_i),
    and the masses sum to 1 with gamma = u . s exactly when
    sum_i (1 - s_i) 2^(-(t_i + lam) / s_i) = 1, which fixes lam. Symbols
    with s_i = 0 have zero gradient: they take mass only when that root is
    negative, and then lam = 0 and they share what the other symbols leave
    (all of it when every s_i = 0: u is uniform and scores 0). When every
    s_i = 1 nothing erases and u is proportional to 2^(-t_i).
    """
    s = np.minimum(s, 1.0)  # rounding can push a full row's sum past 1
    live = s > 0
    sl = np.where(live, s, 1.0)
    base = -t / sl  # log2 of the weights at lam = 0
    with np.errstate(divide="ignore"):  # log2(0) = -inf: full symbols erase nothing
        c = np.where(live, base + np.log2(1.0 - s), -np.inf)  # -inf: not a term
        top = c.max(axis=1)
        has_c = np.isfinite(top)
        shift = np.where(has_c, top, 0.0)[:, None]
        log_rest = shift[:, 0] + np.log2(np.exp2(c - shift).sum(axis=1))
    zeros = s.shape[1] - np.count_nonzero(live, axis=1)
    shared = (zeros > 0) & (log_rest < 0)
    zero_share = np.full(s.shape[0], -np.inf)  # log2 of a zero symbol's weight
    zero_share[shared] = np.log2(-np.expm1(log_rest[shared] * np.log(2.0)) / zeros[shared])
    lam = np.zeros(s.shape[0])
    solve = has_c & ~shared
    if solve.any():
        lam[solve] = _multiplier(c[solve], sl[solve])
    ell = np.where(live, base - lam[:, None] / sl, zero_share[:, None])
    u = np.exp2(ell - ell.max(axis=1, keepdims=True))
    u /= u.sum(axis=1, keepdims=True)
    return u


def _frank_wolfe_gap(u, s, t) -> np.ndarray:
    """max_i grad_i - u . grad of the one-marginal objective at each row of
    u; it bounds what any other u can gain, since the objective is concave."""
    erased = np.maximum(1.0 - np.vecdot(u, s), _TINY)
    grad = s * (np.log2(erased)[:, None] - np.log2(np.maximum(u, _TINY))) - t
    return grad.max(axis=1) - np.vecdot(u, grad)


def _lockstep(channel: Channel, init2: np.ndarray, starts, max_iters: int, tol: float):
    """Alternating runs from the rows of init2, all at once.

    Each half-sweep is one product of the good-entry pattern with
    [V | V log2 V] for every open run, and one batched marginal step. A
    run closes when a sweep gains < tol or after max_iters sweeps, and its
    kkt_gap is taken then. The best run wins, the first one on a tie.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    count, n = init2.shape
    good = channel.matrix.good
    good_t = good.T  # a new view per .T, so take it once
    u = np.full((count, n), 1.0 / n)
    row = _products(good, init2, xlog2x(init2))
    value = _entropy_from_products(u, xlog2x(u), row[:count], row[count:])
    p1, p2 = np.empty((count, n)), np.empty((count, n))
    runs = [None] * count
    history = [[] for _ in range(count)]
    open_runs = np.arange(count)
    for sweep in range(1, max_iters + 1):
        k = open_runs.size
        u = _maximize_marginal(row[:k], row[k:])
        col = _products(good_t, u, xlog2x(u))
        v = _maximize_marginal(col[:k], col[k:])
        vl = xlog2x(v)
        new_value = _entropy_from_products(v, vl, col[:k], col[k:])
        row = _products(good, v, vl)
        for run, gained in zip(open_runs.tolist(), new_value.tolist()):
            history[run].append(gained)
        converged = new_value - value < tol
        value = np.where(converged, np.maximum(value, new_value), new_value)
        closing = converged | (sweep == max_iters)
        if not closing.any():
            continue
        done = np.flatnonzero(closing)
        gaps = np.maximum(
            _frank_wolfe_gap(u[done], row[done], row[done + k]),
            _frank_wolfe_gap(v[done], col[done], col[done + k]),
        )
        for j, gap in zip(done.tolist(), gaps.tolist()):
            run = open_runs[j]
            p1[run], p2[run] = u[j], v[j]
            runs[run] = StartRun(starts[run], float(value[j]), sweep, bool(converged[j]), gap)
        going = np.flatnonzero(~closing)
        if not going.size:
            break
        open_runs, value = open_runs[going], value[going]
        row = row[np.concatenate([going, going + k])]
    best = int(np.argmax([run.value for run in runs]))  # the first on a tie
    return AltMaxResult(
        p1=ProbVector(p1[best]),
        p2=ProbVector(p2[best]),
        value=runs[best].value,
        iterations=runs[best].sweeps,
        converged=runs[best].converged,
        sweep_values=tuple(history[best]),
        kkt_gap=runs[best].kkt_gap,
        runs=tuple(runs),
    )


def alternating_maximization(
    channel: Channel,
    init2=None,
    max_iters: int = 100,
    tol: float = 1e-8,
) -> AltMaxResult:
    """Alternate exact maximizations over p1 and p2 until a sweep gains < tol.

    The reported value never decreases from sweep to sweep (each update is
    the best response to the other marginal). Converges to a coordinate-wise
    optimum, which need not be the global product-distribution optimum;
    see maximize_sum_rate for restarts. p1 starts uniform: the first update
    replaces it by its best response to init2 (uniform when None), so it
    only sets the starting value. This is maximize_sum_rate's solver with
    one start.
    """
    n = channel.n
    if init2 is None:
        return _lockstep(channel, np.full((1, n), 1.0 / n), ("uniform",), max_iters, tol)
    return _lockstep(channel, as_distribution(init2, n)[None], ("given",), max_iters, tol)


def maximize_sum_rate(
    channel: Channel,
    restarts: int = 8,
    seed: int = 0,
    max_iters: int = 100,
    tol: float = 1e-8,
) -> AltMaxResult:
    """Best alternating-maximization run from uniform plus random restarts,
    each from one Dirichlet draw of p2 (drawn in order from one generator
    seeded with seed).

    The runs go in lockstep: each half-sweep makes one product of the
    good-entry pattern with the marginals of every run still open, and
    one batched marginal step. Each run takes the sweeps it takes alone
    and closes at its own stop. `runs` lists them all in start order; the
    first with the largest value is returned.
    """
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    n = channel.n
    rng = np.random.default_rng(seed)
    init2 = [np.full(n, 1.0 / n)] + [rng.dirichlet(np.ones(n)) for _ in range(restarts)]
    starts = ("uniform",) + ("dirichlet",) * restarts
    return _lockstep(channel, np.array(init2), starts, max_iters, tol)


# ----------------------------------------------------------------------
# Exhaustive grid oracle
# ----------------------------------------------------------------------

_BF_ALPHABET_LIMIT = 4
_BF_CHUNK = 256
_BF_STRIP = 1 << 17
# The float32 scan scores a pair within about 1e-6 of -H(Y) (8.1e-7 at most
# over sampled 64-step grids; the tests require at most half this margin).
# A pair whose H(Y) is below the incumbent's by more than twice that error
# scores strictly above the incumbent pair, so it cannot be the minimum.
_BF_MARGIN = 1e-4
_BF_BA_STEPS = 100


@lru_cache(maxsize=8)
def _simplex_grid(n: int, steps: int) -> np.ndarray:
    """All length-n nonnegative integer vectors summing to steps."""
    combos = itertools.combinations(range(steps + n - 1), n - 1)
    arr = np.fromiter(
        itertools.chain.from_iterable(combos), dtype=np.int64
    ).reshape(-1, n - 1)
    ext = np.empty((arr.shape[0], n + 1), dtype=np.int64)
    ext[:, 0] = -1
    ext[:, 1:n] = arr
    ext[:, n] = steps + n - 1
    grid = np.diff(ext, axis=1) - 1
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True)
class BruteForceResult:
    value: float
    p1: ProbVector
    p2: ProbVector


def _fixed_stats(dense: np.ndarray, comps: np.ndarray, steps: int):
    """(s, t) with every grid pmf held fixed, first as p1, then as p2.

    Row k of s and t is the module docstring's s and t over the other
    marginal's symbols when grid pmf k is fixed: for p1 = a fixed,
    s_j = sum_i good(i, j) a_i and t_j = sum_i good(i, j) a_i log2 a_i.
    The integer counts keep s exact, so s = 1 exactly on a full line.
    """
    grid_logs = xlog2x(comps / steps)
    return tuple(
        (comps @ pattern / steps, grid_logs @ pattern) for pattern in (dense, dense.T)
    )


def _grid_values(grid: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """H(Y) in float64 for every grid pmf as the free marginal, against the
    fixed marginal whose statistics are s and t."""
    gamma = grid @ s
    return -(grid @ t) - xlog2x(grid) @ s - xlog2x(np.clip(1.0 - gamma, 0.0, 1.0))


def _grid_incumbent(grid: np.ndarray, stats) -> float:
    """H(Y) at a grid pair: alternate exact grid best responses from the
    grid pmf nearest uniform until neither side gains."""
    k = int(np.argmin(np.abs(grid - 1.0 / grid.shape[1]).sum(axis=1)))
    best, side = -np.inf, 0
    while True:
        s, t = stats[side]
        values = _grid_values(grid, s[k], t[k])
        k = int(np.argmax(values))
        if values[k] <= best:
            return best
        best, side = float(values[k]), 1 - side


def _ba_step(s: np.ndarray, t: np.ndarray, b: np.ndarray):
    """One Blahut-Arimoto step on H(Y) over the free marginal, for a batch.

    Row k fixes one marginal a (statistics s[k], t[k]) and holds a free
    marginal b[k] > 0. Given X2 = j the output is (i, j) with mass a_i on
    the good entries and erased otherwise; its cross-entropy against the
    output law q of (a, b[k]) is

        CE_j = -t_j - s_j log2 b_j - (1 - s_j) log2 q(erased).

    Gibbs' inequality gives H(Y) <= sum_j b'_j CE_j <= max_j CE_j for every
    free marginal b', so `upper` bounds a's best response; `lower` =
    sum_j b_j CE_j is H(Y) at (a, b[k]), a value some b attains. The step
    b <- b 2^CE / sum is the Blahut-Arimoto update for max_b H(Y).
    """
    erased = np.maximum(1.0 - np.einsum("kj,kj->k", s, b), _TINY)
    ce = -t - s * np.log2(np.maximum(b, _TINY)) - (1.0 - s) * np.log2(erased)[:, None]
    upper = ce.max(axis=1)
    lower = np.einsum("kj,kj->k", b, ce)
    b = b * np.exp2(ce - upper[:, None])
    return upper, lower, b / b.sum(axis=1, keepdims=True)


def _survivors(s: np.ndarray, t: np.ndarray, floor: float) -> np.ndarray:
    """Ascending indices of the fixed marginals whose best response is not
    certified below floor.

    A row is dropped once its upper bound falls below floor and leaves the
    iteration, kept, once its lower value reaches floor: its bound can then
    never fall below it. Rows still open after _BF_BA_STEPS steps are kept.
    """
    keep = np.ones(s.shape[0], dtype=bool)
    open_rows = np.arange(s.shape[0])
    b = np.full(s.shape, 1.0 / s.shape[1])
    for _ in range(_BF_BA_STEPS):
        upper, lower, b = _ba_step(s, t, b)
        keep[open_rows[upper < floor]] = False
        going = (upper >= floor) & (lower < floor)
        open_rows, s, t, b = open_rows[going], s[going], t[going], b[going]
        if not open_rows.size:
            break
    return np.flatnonzero(keep)


def _first_best_pair(dense, comps, steps: int, rows, cols) -> tuple[int, int]:
    """The grid indices (p1, p2) of the first pair of rows x cols, in
    row-major order, with the smallest float32 score -H(Y).

    The erasure term is a table lookup, since gamma steps^2 is an integer.
    Every score is the one a scan of all K^2 pairs computes: the factors
    are built over the whole grid and then gathered. A single row or column
    is scanned twice, because np.matmul sums a matrix-vector product in
    another order than the matrix product the full grid takes; the copy
    ties with the first and so never becomes the first minimum.
    """
    rows = np.resize(rows, max(rows.size, 2))
    cols = np.resize(cols, max(cols.size, 2))
    U = (comps / steps).astype(np.float32)
    UL = xlog2x(comps / steps).astype(np.float32)
    good = dense.astype(np.float32)
    comps_f = comps.astype(np.float32)
    # Left factor [ul | u], right factor [good @ u ; good @ ul] so one matmul
    # yields the two pair-dependent entropy terms at once.
    left = np.hstack([UL, U])[rows]
    right = np.vstack([good @ U.T, good @ UL.T])[:, cols]
    left_int = comps_f[rows]
    right_int = (good @ comps_f.T)[:, cols]  # integer-valued: gamma * steps^2
    s2 = steps * steps
    table = xlog2x(1.0 - np.arange(s2 + 1) / s2).astype(np.float32)
    R, C = rows.size, cols.size
    best = np.float32(np.inf)
    best_pos = 0
    buf_b = np.empty((min(_BF_CHUNK, R), C), dtype=np.float32)
    buf_g = np.empty((min(_BF_CHUNK, R), C), dtype=np.float32)
    idx = np.empty(min(_BF_STRIP, buf_b.size), dtype=np.uint16)
    tmp = np.empty(idx.size, dtype=np.float32)
    for lo in range(0, R, _BF_CHUNK):
        hi = min(lo + _BF_CHUNK, R)
        c = hi - lo
        np.matmul(left[lo:hi], right, out=buf_b[:c])
        np.matmul(left_int[lo:hi], right_int, out=buf_g[:c])
        flat_b = buf_b[:c].reshape(-1)
        flat_g = buf_g[:c].reshape(-1)
        for s in range(0, flat_b.size, idx.size):
            e = min(s + idx.size, flat_b.size)
            w = e - s
            np.copyto(idx[:w], flat_g[s:e], casting="unsafe")
            np.take(table, idx[:w], out=tmp[:w])
            np.add(tmp[:w], flat_b[s:e], out=tmp[:w])
            j = int(np.argmin(tmp[:w]))
            if tmp[j] < best:
                best = tmp[j]
                best_pos = lo * C + s + j
    return int(rows[best_pos // C]), int(cols[best_pos % C])


def brute_force_sum_capacity(channel: Channel, grid_steps: int) -> BruteForceResult:
    """Exact maximum of sum_rate over all pairs of grid marginals.

    The grid holds every pmf with entries that are multiples of
    1/grid_steps, K of them; alphabets are limited to 4 symbols, where
    K^2 reaches 2.3e9 pairs at 64 steps. The result is that of a float32
    scan of all K^2 pairs (the first pair in row-major order with the
    largest float32 H(Y), re-evaluated in float64), found in three steps:

    1. Incumbent: alternating exact best responses on the grid from the pmf
       nearest uniform give one grid pair's float64 H(Y).
    2. Bounds: with p1 = a fixed, Gibbs' inequality bounds H(Y) over every
       p2, grid or not, by the largest cross-entropy of the output given
       X2 = j against any output law q (see _ba_step). Batched
       Blahut-Arimoto steps over all K values of a at once tighten q; a is
       dropped once the bound falls below incumbent - _BF_MARGIN. The same
       runs for every grid p2 against the transposed pattern.
    3. Scan: the float32 scan runs over the kept p1 x kept p2, in grid
       order. A dropped pair has H(Y) below incumbent - _BF_MARGIN; the
       margin is more than twice the scan's float32 error, so that pair
       scores strictly worse than the incumbent pair in float32 and can be
       neither the minimum nor tied with it.

    Usually a handful of pairs survive. When nothing can be dropped (the
    all-bad channel, where every pair scores 0) the scan covers all pairs.
    """
    n = channel.n
    if n > _BF_ALPHABET_LIMIT:
        raise ValueError(
            f"exhaustive search is limited to alphabets of {_BF_ALPHABET_LIMIT}; "
            f"this channel has 2^{channel.m} = {n} symbols"
        )
    if not 1 <= grid_steps <= 255:
        raise ValueError(f"grid_steps must be in 1..255, got {grid_steps}")
    comps = _simplex_grid(n, grid_steps)
    dense = channel.matrix.good.toarray()
    stats = _fixed_stats(dense, comps, grid_steps)
    floor = _grid_incumbent(comps / grid_steps, stats) - _BF_MARGIN
    rows, cols = (_survivors(s, t, floor) for s, t in stats)
    r, c = _first_best_pair(dense, comps, grid_steps, rows, cols)
    p1 = ProbVector(comps[r] / grid_steps)
    p2 = ProbVector(comps[c] / grid_steps)
    return BruteForceResult(value=sum_rate(channel, p1, p2), p1=p1, p2=p2)


# ----------------------------------------------------------------------
# Uniform layering and tail bound
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class UniformDecomposition:
    """A pmf written as a convex combination of nested uniform pmfs.

    order lists the 1-based symbols by descending mass. Layer j is the
    uniform pmf on the first sizes[j] symbols of order, and weights[j] is
    the mass it carries; sizes strictly decrease, so the supports nest.
    """

    alphabet_size: int
    weights: tuple[float, ...]
    order: tuple[int, ...]
    sizes: tuple[int, ...]

    def __post_init__(self):
        n, sizes = self.alphabet_size, self.sizes
        if len(self.weights) != len(sizes) or not self.weights:
            raise ValueError("weights and sizes must be equal-length and nonempty")
        if sorted(self.order) != list(range(1, n + 1)):
            raise ValueError(f"order must be a permutation of 1..{n}")
        if sizes[0] > n or sizes[-1] < 1 or any(a <= b for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"sizes must strictly decrease within [1, {n}]")
        if min(self.weights) <= 0:
            raise ValueError("weights must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")

    @property
    def supports(self) -> tuple[frozenset, ...]:
        """Each layer's support as a frozenset of 1-based symbols, widest first."""
        return tuple(frozenset(self.order[:size]) for size in self.sizes)

    def reconstruct(self) -> np.ndarray:
        """The pmf sum_j weights[j] * Uniform(supports[j]), accumulated in
        layer order for every symbol."""
        sizes = np.array(self.sizes)
        # level[j]: the mass of a symbol in layers 0..j, i.e. of the symbols
        # at positions sizes[j+1] .. sizes[j]-1 of order.
        level = np.cumsum(np.divide(self.weights, sizes))
        pmf = np.zeros(self.alphabet_size)
        pmf[np.array(self.order[: sizes[0]]) - 1] = np.repeat(
            level[::-1], np.diff(sizes[::-1], prepend=0)
        )
        return pmf

    def mass_on_supports_at_most(self, size_limit: float) -> float:
        """Total weight of layers whose support has at most size_limit symbols."""
        return sum(w for w, size in zip(self.weights, self.sizes) if size <= size_limit)


def decompose_into_uniforms(p) -> UniformDecomposition:
    """Layer a pmf into nested uniforms by slicing at its distinct values.

    With the distinct positive masses v_1 < ... < v_k, layer j is uniform
    on S_j = {x : p(x) >= v_j} with weight |S_1| v_1 for j = 1 and
    |S_j| (v_j - v_{j-1}) after; the layers reconstruct p exactly up to
    float accumulation. Every S_j is a prefix of one descending sort of p.
    """
    arr = as_distribution(p)
    ascending = np.argsort(arr)
    values = np.unique(arr[arr > 0])
    sizes = arr.size - np.searchsorted(arr[ascending], values, side="left")
    weights = (sizes * np.diff(values, prepend=0.0)).tolist()
    total = sum(weights)
    if abs(total - 1.0) > 1e-9:
        raise InvariantViolation(f"layer weights sum to {total!r}, expected 1")
    return UniformDecomposition(
        alphabet_size=arr.size,
        weights=tuple(weights),
        order=tuple((ascending[::-1] + 1).tolist()),
        sizes=tuple(sizes.tolist()),
    )


def tail_mass_bound(entropy_bits_value: float, alphabet_size: int, subset_size: int) -> float:
    """Upper bound on the mass any subset of subset_size symbols can carry,
    given only the pmf's entropy:

        bound = K * (1 - (H - 1) / log2(N)),  K = (1 - log2(|T|) / log2(N))^-1.
    """
    if not isinstance(alphabet_size, int) or alphabet_size < 2:
        raise ValueError(f"alphabet_size must be an integer >= 2, got {alphabet_size!r}")
    if not isinstance(subset_size, int) or subset_size < 1:
        raise ValueError(f"subset_size must be a positive integer, got {subset_size!r}")
    if subset_size >= alphabet_size:
        raise ValueError(
            f"subset_size must be < alphabet_size, got {subset_size} >= {alphabet_size}"
        )
    log_n = np.log2(alphabet_size)
    if not -1e-9 <= entropy_bits_value <= log_n + 1e-9:
        raise ValueError(
            f"entropy must lie in [0, log2({alphabet_size})], got {entropy_bits_value}"
        )
    k_factor = 1.0 / (1.0 - np.log2(subset_size) / log_n)
    return float(k_factor * (1.0 - (entropy_bits_value - 1.0) / log_n))
