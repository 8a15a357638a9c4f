import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopcap import brute_force_sum_capacity, maximize_sum_rate, sum_rate
from coopcap import capacity
from coopcap.capacity import (
    ProbVector,
    UniformDecomposition,
    _ba_step,
    _entropy_from_products,
    _first_best_pair,
    _fixed_stats,
    _maximize_marginal,
    alternating_maximization,
    as_distribution,
    decompose_into_uniforms,
    entropy_bits,
    tail_mass_bound,
    xlog2x,
)
from coopcap.channel import (
    ERASURE,
    ChannelMatrix,
    ConstructionParams,
    channel_from_matrix,
    construct_channel,
    sample_matrix,
)
from oracles import (
    alternating_maximization_oracle,
    brute_force_oracle,
    grid_score_chunks,
    maximize_marginal_oracle,
    output_stats,
    rate_triple,
    uniform,
)
from strips import STRIP_BITS, many_strips


def make_channel(rows, g=1, verify=True):
    return channel_from_matrix(
        ChannelMatrix.from_dense(np.array(rows, dtype=np.uint8)), g=g, verify=verify
    )


def antidiag_channel():
    # good entries on the antidiagonal only
    return make_channel([[1, 0], [0, 1]])


def all_good_channel(m):
    n = 1 << m
    return make_channel(np.zeros((n, n), dtype=np.uint8), g=1)


def all_bad_channel(m):
    n = 1 << m
    return make_channel(np.ones((n, n), dtype=np.uint8), g=1, verify=False)


def random_channel(m, seed, density=0.5):
    rng = np.random.default_rng(seed)
    n = 1 << m
    dense = (rng.random((n, n)) < density).astype(np.uint8)
    return make_channel(dense, g=1, verify=False)


def dict_entropy(y_distribution):
    """Entropy of an output law stored as a dict, independent of sum_rate."""
    return -math.fsum(p * math.log2(p) for p in y_distribution.values() if p > 0)


# ----------------------------------------------------------------------
# Scalar helpers
# ----------------------------------------------------------------------


def test_xlog2x_values():
    assert xlog2x(0.0) == 0.0
    assert xlog2x(1.0) == 0.0
    assert xlog2x(0.5) == -0.5
    assert np.allclose(xlog2x(np.array([0.0, 0.25, 1.0])), [0.0, -0.5, 0.0])


def test_entropy_bits_values():
    assert entropy_bits([1.0]) == 0.0
    assert entropy_bits([0.5, 0.5]) == 1.0
    assert entropy_bits([0.25] * 4) == 2.0
    assert abs(entropy_bits([0.5, 0.25, 0.25]) - 1.5) < 1e-12


def test_prob_vector_constructors():
    u = uniform(4)
    assert len(u) == 4
    assert entropy_bits(u.probs) == 2.0
    point = ProbVector([0.0, 1.0, 0.0, 0.0])
    assert point.probs.tolist() == [0.0, 1.0, 0.0, 0.0]
    assert entropy_bits(point.probs) == 0.0


def test_prob_vector_validation():
    ProbVector(np.array([0.5, 0.5]))
    for bad in [
        np.array([0.5, 0.6]),
        np.array([-0.1, 1.1]),
        np.array([[0.5, 0.5]]),
        np.array([]),
    ]:
        with pytest.raises(ValueError):
            ProbVector(bad)


def test_prob_vector_immutable_and_eq():
    u = uniform(2)
    with pytest.raises(ValueError):
        u.probs[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        u.probs = np.array([1.0, 0.0])
    assert u == ProbVector(np.array([0.5, 0.5]))
    assert u != ProbVector(np.array([0.4, 0.6]))
    assert u != [0.5, 0.5]


def test_as_distribution():
    arr = as_distribution([0.25, 0.75])
    assert arr.tolist() == [0.25, 0.75]
    assert as_distribution(uniform(2)).tolist() == [0.5, 0.5]
    with pytest.raises(ValueError):
        as_distribution([0.25, 0.75], n=3)
    with pytest.raises(ValueError):
        as_distribution([0.5, 0.6])


# ----------------------------------------------------------------------
# Output statistics and rates
# ----------------------------------------------------------------------


def test_output_stats_antidiagonal():
    stats = output_stats(antidiag_channel(), [0.5, 0.5], [0.5, 0.5])
    assert stats.gamma == 0.5
    assert np.allclose(stats.gamma_by_x1, [0.25, 0.25])
    assert stats.y_distribution == {(1, 2): 0.25, (2, 1): 0.25, ERASURE: 0.5}


def test_output_stats_all_good_has_no_erasure():
    stats = output_stats(all_good_channel(1), [0.5, 0.5], [0.5, 0.5])
    assert ERASURE not in stats.y_distribution
    assert stats.gamma == 1.0
    assert stats.y_distribution == {
        (1, 1): 0.25,
        (1, 2): 0.25,
        (2, 1): 0.25,
        (2, 2): 0.25,
    }


def test_output_stats_drops_zero_probability_outputs():
    stats = output_stats(all_good_channel(1), [1.0, 0.0], [0.5, 0.5])
    assert set(stats.y_distribution) == {(1, 1), (1, 2)}


def test_sum_rate_anchors():
    assert sum_rate(antidiag_channel(), [0.5, 0.5], [0.5, 0.5]) == 1.5
    assert sum_rate(all_good_channel(2), uniform(4), uniform(4)) == 4.0
    dead = sum_rate(all_bad_channel(2), uniform(4), uniform(4))
    assert dead == 0.0 and math.copysign(1.0, dead) == 1.0


@given(
    st.integers(1, 3),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_sum_rate_matches_dict_entropy(m, seed):
    channel = random_channel(m, seed)
    rng = np.random.default_rng(seed + 1)
    n = channel.n
    p1 = rng.dirichlet(np.ones(n))
    p2 = rng.dirichlet(np.ones(n))
    direct = sum_rate(channel, p1, p2)
    via_dict = dict_entropy(output_stats(channel, p1, p2).y_distribution)
    assert abs(direct - via_dict) <= 1e-12


def test_rate_triple_anchors():
    triple = rate_triple(antidiag_channel(), [0.5, 0.5], [0.5, 0.5])
    assert (triple.i1, triple.i2, triple.i12) == (1.0, 1.0, 1.5)
    full = rate_triple(all_good_channel(1), [0.5, 0.5], [0.5, 0.5])
    assert (full.i1, full.i2, full.i12) == (1.0, 1.0, 2.0)


@given(st.integers(1, 2), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_rate_triple_ordering_property(m, seed):
    channel = random_channel(m, seed)
    rng = np.random.default_rng(seed + 2)
    n = channel.n
    p1, p2 = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    triple = rate_triple(channel, p1, p2)
    assert abs(triple.i12 - sum_rate(channel, p1, p2)) <= 1e-12
    tol = 1e-9
    assert max(triple.i1, triple.i2) <= triple.i12 + tol
    assert triple.i12 <= triple.i1 + triple.i2 + tol
    assert triple.i12 <= 2 * m + tol


# ----------------------------------------------------------------------
# Optimization
# ----------------------------------------------------------------------


def test_alternating_maximization_all_good():
    result = alternating_maximization(all_good_channel(2))
    assert result.value == 4.0
    assert result.converged
    assert result.iterations == 1
    assert np.allclose(result.p1.probs, 0.25)
    assert np.allclose(result.p2.probs, 0.25)


def test_alternating_maximization_all_bad():
    result = alternating_maximization(all_bad_channel(1))
    assert result.value == 0.0
    assert math.copysign(1.0, result.value) == 1.0
    assert result.converged
    assert result.kkt_gap == 0.0


def test_alternating_maximization_monotone_sweeps():
    channel = random_channel(2, seed=42, density=0.4)
    result = alternating_maximization(channel)
    values = result.sweep_values
    assert values == tuple(sorted(values))
    assert result.value >= sum_rate(channel, uniform(4), uniform(4)) - 1e-12


def test_alternating_maximization_accepts_inits():
    channel = antidiag_channel()
    result = alternating_maximization(channel, init2=[0.1, 0.9])
    assert result.value <= 1.5 + 1e-9


def best_responses(s, t):
    """The batched exact update for the rows of the blocks s and t, and the
    value the solver scores each row's update with."""
    s, t = np.atleast_2d(s), np.atleast_2d(t)
    u = _maximize_marginal(s, t)
    return u, _entropy_from_products(u, xlog2x(u), s, t)


def good_products(channel, p, transpose=False):
    """(good @ p, good @ xlog2x(p)) from the dense matrix, apart from the
    package's operator; good.T with transpose=True."""
    good = 1.0 - channel.matrix.to_dense().astype(np.float64)
    if transpose:
        good = good.T
    return good @ p, good @ xlog2x(p)


def simplex_projection(v):
    """Euclidean projection onto the probability simplex (sort-based)."""
    mu = np.sort(v)[::-1]
    cssv = np.cumsum(mu) - 1.0
    rho = np.nonzero(mu * np.arange(1, v.size + 1) > cssv)[0][-1]
    w = np.maximum(v - cssv[rho] / (rho + 1.0), 0.0)
    return w / w.sum()


def one_marginal_value(u, s, t):
    erased = min(max(1.0 - float(u @ s), 0.0), 1.0)
    return float(-(xlog2x(u) @ s) - u @ t - xlog2x(erased))


def projected_gradient_update(s, t, u, iters=200):
    """The projected-gradient ascent with halving line search that the
    exact update replaced; an oracle the exact update must never lose to."""
    f = one_marginal_value(u, s, t)
    step = 1.0
    for _ in range(iters):
        grad = (
            -s * np.log2(np.maximum(u, 1e-300)) - t
            + s * np.log2(max(1.0 - float(u @ s), 1e-300))
        )
        stp = step
        while stp >= 1e-16:
            trial = simplex_projection(u + stp * grad)
            ft = one_marginal_value(trial, s, t)
            if ft > f:
                break
            stp *= 0.5
        else:
            break
        gain = ft - f
        u, f = trial, ft
        step = min(2.0 * stp, 64.0)
        if gain < 1e-12:
            break
    return u, f


@given(st.integers(1, 3), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_exact_update_is_the_best_response(m, seed):
    rng = np.random.default_rng(seed)
    channel = random_channel(m, seed, density=rng.uniform(0.1, 0.9))
    n = channel.n
    others, blocks = [], []
    for transpose in (False, True):
        other = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.7)  # some zero masses
        if other.sum() == 0:
            other[rng.integers(n)] = 1.0
        other /= other.sum()
        others.append(other)
        blocks.append(good_products(channel, other, transpose))
    # both orientations go through the update as one two-row block
    us, values = best_responses(*(np.array(rows) for rows in zip(*blocks)))
    for transpose, other, (s, t), u, value in zip((False, True), others, blocks, us, values):
        assert u.min() >= 0.0 and abs(u.sum() - 1.0) <= 1e-12
        pair = (other, u) if transpose else (u, other)
        assert abs(value - dict_entropy(output_stats(channel, *pair).y_distribution)) <= 1e-9
        _, old = projected_gradient_update(s, t, np.full(n, 1.0 / n))
        assert value >= old - 1e-12
        for point in rng.dirichlet(np.ones(n), size=200):
            assert value >= one_marginal_value(point, s, t) - 1e-12


def test_exact_update_edge_cases():
    # every s_i = 1: nothing erases and u is proportional to 2^(-t_i)
    t = np.array([-1.0, -2.0, 0.0])
    (u,), _ = best_responses(np.ones(3), t)
    assert np.allclose(u, [2 / 7, 4 / 7, 1 / 7], rtol=0, atol=1e-15)
    # a row with s_i = 0 next to one with s_i = 1: they split like an
    # erasure against one good output, half and half
    (u,), (value,) = best_responses(np.array([1.0, 0.0]), np.zeros(2))
    assert np.allclose(u, [0.5, 0.5], rtol=0, atol=1e-15) and abs(value - 1.0) <= 1e-15
    # every s_i = 0: all inputs erase
    (u,), (value,) = best_responses(np.zeros(4), np.zeros(4))
    assert np.array_equal(u, np.full(4, 0.25))
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


@given(st.integers(1, 3), st.integers(0, 2**31 - 1), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_kkt_gap_bounds_one_more_step(m, seed, sweeps):
    channel = random_channel(m, seed)
    rng = np.random.default_rng(seed + 4)
    n = channel.n
    result = alternating_maximization(channel, rng.dirichlet(np.ones(n)), max_iters=sweeps)
    u, v = result.p1.probs, result.p2.probs
    here = sum_rate(channel, u, v)
    _, (better_u,) = best_responses(*good_products(channel, v))
    _, (better_v,) = best_responses(*good_products(channel, u, transpose=True))
    assert result.kkt_gap >= 0.0
    assert result.kkt_gap >= max(better_u, better_v) - here - 1e-12


def test_operator_cache_drops_collected_channels():
    channels = [random_channel(10, seed) for seed in range(4)]
    refs = []
    for channel in channels:
        maximize_sum_rate(channel, restarts=0, max_iters=2)
        refs.append(weakref.ref(channel.matrix.good))
    assert all(ref() is not None for ref in refs)
    del channels, channel
    gc.collect()
    assert all(ref() is None for ref in refs)


@given(
    st.integers(1, 7),
    st.integers(0, 2**31 - 1),
    st.sampled_from(["random", "good", "bad"]),
    st.sampled_from(STRIP_BITS),
)
@settings(max_examples=60, deadline=None)
def test_good_pattern_products_match_dense(m, seed, kind, strip_bits):
    rng = np.random.default_rng(seed)
    if kind == "random":
        channel = random_channel(m, seed, density=rng.uniform(0.05, 0.95))
    else:
        channel = all_good_channel(m) if kind == "good" else all_bad_channel(m)
    with many_strips(strip_bits):
        good = channel.matrix.good
    dense_good = channel.matrix.to_dense() == 0
    assert np.array_equal(good.indptr, np.r_[0, np.cumsum(dense_good.sum(axis=1))])
    assert np.array_equal(good.indices, np.nonzero(dense_good)[1])
    assert good is channel.matrix.good
    assert good.indices.dtype == good.indptr.dtype == np.int32
    assert good.dtype == np.float64 and not good.data.flags.writeable
    p = rng.dirichlet(np.ones(channel.n)) * (rng.random(channel.n) < 0.8)
    X = np.column_stack([p, xlog2x(p)])
    for product, transpose in ((good @ X, False), (good.T @ X, True)):
        s, t = good_products(channel, p, transpose)
        assert np.allclose(product, np.column_stack([s, t]), rtol=0, atol=1e-13)


@given(
    st.integers(1, 8),
    st.integers(0, 2**31 - 1),
    st.sampled_from(STRIP_BITS),
    st.sampled_from([1, 3]),
)
@settings(max_examples=40, deadline=None)
def test_sum_rate_streams_the_cached_pattern_product(m, seed, strip_bits, workers):
    # the one-shot product leaves good unbuilt and matches both the dense
    # output law and, bit for bit, the optimizer's product with good
    rng = np.random.default_rng(seed)
    channel = random_channel(m, seed, density=rng.uniform(0.05, 0.95))
    p1, p2 = rng.dirichlet(np.ones(channel.n), size=2)
    p2[1:][rng.random(channel.n - 1) < 0.3] = 0.0  # zeros, never all of them
    p2 /= p2.sum()
    with many_strips(strip_bits, workers):
        value = sum_rate(channel, p1, p2)
    assert "good" not in channel.matrix.__dict__
    law = np.outer(p1, p2)[channel.matrix.to_dense() == 0]
    dense = -float(xlog2x(law).sum()) - xlog2x(max(1.0 - float(law.sum()), 0.0))
    assert abs(value - dense) <= 1e-12
    s, t = capacity._products(channel.matrix.good, p2, xlog2x(p2))
    assert value == float(_entropy_from_products(p1, xlog2x(p1), s, t))


def test_sum_rate_uniform_m13():
    # n = 8192: the good pattern is built in 256 strips of 32 rows on the worker threads
    m = 13
    matrix = sample_matrix(m, 0.85, 13)
    channel = channel_from_matrix(matrix, g=1, verify=False)
    bad = int(np.unpackbits(matrix.packed_rows).sum(dtype=np.int64))
    gamma = 1.0 - bad / 4**m
    expected = gamma * 2 * m - (1.0 - gamma) * math.log2(1.0 - gamma)
    flat = uniform(1 << m)
    assert abs(sum_rate(channel, flat, flat) - expected) <= 1e-9


def test_maximize_sum_rate_deterministic():
    channel = random_channel(2, seed=5, density=0.5)
    a = maximize_sum_rate(channel, restarts=3, seed=9)
    b = maximize_sum_rate(channel, restarts=3, seed=9)
    assert a.value == b.value
    assert a.p1 == b.p1 and a.p2 == b.p2
    with pytest.raises(ValueError):
        maximize_sum_rate(channel, restarts=-1)
    with pytest.raises(ValueError):
        maximize_sum_rate(channel, max_iters=0)
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="tol"):
            maximize_sum_rate(channel, tol=tol)


def test_maximize_sum_rate_restarts_never_hurt():
    channel = random_channel(2, seed=17, density=0.6)
    base = maximize_sum_rate(channel, restarts=0)
    more = maximize_sum_rate(channel, restarts=4, seed=1)
    assert more.value >= base.value - 1e-12


def sweep_channel(m):
    """The channel a sweep with config seed 0, eps 0.05 and p_override 0.85
    builds at width m; at m = 12 also the capacity benchmark's channel."""
    return construct_channel(ConstructionParams.with_defaults(m, epsilon=0.05, seed=m, p=0.85))


@pytest.mark.parametrize("m, restarts", [(6, 8), (8, 8), (10, 8), (12, 0)])
def test_lockstep_runs_match_one_run_oracle(m, restarts):
    # every run of the lockstep solve against the same start run alone
    channel = sweep_channel(m)
    result = maximize_sum_rate(channel, restarts=restarts, seed=20000 + m)
    rng = np.random.default_rng(20000 + m)
    inits = [None] + [rng.dirichlet(np.ones(channel.n)) for _ in range(restarts)]
    alone = [alternating_maximization_oracle(channel, init2) for init2 in inits]
    assert [run.start for run in result.runs] == ["uniform"] + ["dirichlet"] * restarts
    best = alone[0]
    for run, ref in zip(result.runs, alone, strict=True):
        assert (run.sweeps, run.converged) == (ref.iterations, ref.converged)
        assert abs(run.value - ref.value) <= 1e-12
        assert abs(run.kkt_gap - ref.kkt_gap) <= 1e-12
        best = ref if ref.value > best.value else best
    assert (result.iterations, result.converged) == (best.iterations, best.converged)
    assert abs(result.value - best.value) <= 1e-12
    for got, want in ((result.p1, best.p1), (result.p2, best.p2)):
        assert np.abs(got.probs - want.probs).max() <= 1e-12
    assert np.abs(np.subtract(result.sweep_values, best.sweep_values)).max() <= 1e-12
    assert result.spread == result.value - min(run.value for run in result.runs) >= 0.0
    if m == 6:  # the uniform start stalls; the Dirichlet starts converge
        assert (result.runs[0].sweeps, result.runs[0].converged) == (100, False)


@given(st.integers(1, 3), st.integers(0, 2**31 - 1), st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_one_start_matches_one_run_oracle(m, seed, max_iters):
    channel = random_channel(m, seed, density=np.random.default_rng(seed).uniform(0.1, 0.9))
    init2 = np.random.default_rng(seed + 1).dirichlet(np.ones(channel.n))
    for start in (None, init2):
        got = alternating_maximization(channel, start, max_iters=max_iters)
        want = alternating_maximization_oracle(channel, start, max_iters=max_iters)
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert [run.start for run in got.runs] == [run.start for run in want.runs]
        assert abs(got.value - want.value) <= 1e-12
        assert abs(got.kkt_gap - want.kkt_gap) <= 1e-12
        for a, b in ((got.p1, want.p1), (got.p2, want.p2)):
            assert np.abs(a.probs - b.probs).max() <= 1e-12


def test_mixed_block_takes_every_branch():
    # One block, one row per branch of the update, each against the update
    # solved alone: s = 0 entries beside erasing ones (Newton, the s = 0
    # entries get nothing), full entries beside erasing ones (one rounded
    # past 1), a zero share (the erasing entries leave mass that the s = 0
    # entries split), an ordinary row, every entry full, every entry zero.
    rng = np.random.default_rng(3)
    n = 8
    s = rng.uniform(0.05, 0.95, size=(6, n))
    s[0, :3] = 0.0
    s[1, :3] = [1.0, 1.0, 1.0 + 2.0**-52]
    s[2] = [0.9, 0.95, 0.0, 0.0, 0.97, 0.0, 0.99, 0.0]
    s[4] = 1.0
    s[5] = 0.0
    t = np.minimum(s, 1.0) * np.log2(rng.uniform(0.2, 1.0, size=(6, n)))
    u, values = best_responses(s, t)
    for k in range(6):
        want_u, want_value = maximize_marginal_oracle(s[k], t[k])
        assert np.abs(u[k] - want_u).max() <= 1e-12
        assert abs(values[k] - want_value) <= 1e-12
    assert np.all(u[0, :3] == 0.0) and np.all(u[0, 3:] > 0.0)
    assert np.all(u[2, s[2] == 0] > 0.0)
    assert np.array_equal(u[5], np.full(n, 1.0 / n)) and values[5] == 0.0


def test_no_restarts_is_the_one_start_call():
    channel = random_channel(3, seed=11)
    assert maximize_sum_rate(channel, restarts=0, seed=5) == alternating_maximization(channel)


# ----------------------------------------------------------------------
# Exhaustive grid oracle
# ----------------------------------------------------------------------


def test_brute_force_antidiagonal_exact():
    result = brute_force_sum_capacity(antidiag_channel(), grid_steps=64)
    assert result.value == 1.5
    assert np.allclose(result.p1.probs, [0.5, 0.5])
    assert np.allclose(result.p2.probs, [0.5, 0.5])


def test_brute_force_all_good():
    assert brute_force_sum_capacity(all_good_channel(1), grid_steps=4).value == 2.0


def test_brute_force_validation():
    with pytest.raises(ValueError):
        brute_force_sum_capacity(all_good_channel(3), grid_steps=4)
    channel = all_good_channel(1)
    for steps in (0, 256):
        with pytest.raises(ValueError):
            brute_force_sum_capacity(channel, grid_steps=steps)


def test_brute_force_argmax_independent_of_chunk(monkeypatch):
    # the m = 2 channels of acceptance 5 on a coarser grid, where a handful
    # of pairs survive the bounds, and the all-bad channel, where none is
    # dropped and the scan covers all K^2 pairs in chunks
    channels = [random_channel(2, seed) for seed in range(100, 108)] + [all_bad_channel(2)]
    for channel in channels:
        results = []
        for chunk in (37, 256, 4096):
            monkeypatch.setattr(capacity, "_BF_CHUNK", chunk)
            results.append(brute_force_sum_capacity(channel, grid_steps=24))
        assert all(r == results[0] for r in results[1:])
    assert results[0] == brute_force_oracle(channels[-1], 24)


@pytest.fixture
def scanned_pairs(monkeypatch):
    """The number of pairs each grid search scores, in call order."""
    counts = []

    def spy(dense, comps, steps, rows, cols):
        counts.append(rows.size * cols.size)
        return _first_best_pair(dense, comps, steps, rows, cols)

    monkeypatch.setattr(capacity, "_first_best_pair", spy)
    return counts


def test_brute_force_all_bad_scans_every_pair(scanned_pairs):
    result = brute_force_sum_capacity(all_bad_channel(2), grid_steps=16)
    assert result.value == 0.0 and math.copysign(1.0, result.value) == 1.0
    assert scanned_pairs == [len(capacity._simplex_grid(4, 16)) ** 2]
    # the first pair of the grid: every pair ties at 0
    assert result.p1.probs.tolist() == result.p2.probs.tolist() == [0.0, 0.0, 0.0, 1.0]


def test_brute_force_prunes_to_few_pairs(scanned_pairs):
    for seed in range(100, 104):
        brute_force_sum_capacity(random_channel(2, seed), grid_steps=64)
    # of 2,294,889,025 pairs each, 1 to 15 are scored on these channels
    assert max(scanned_pairs) <= 100


def test_scan_of_one_line_matches_full_scan():
    # The survivors' scan must score every pair as the full scan does, also
    # when a single p1 or p2 survives: each line's first minimum.
    for seed in range(4):
        rng = np.random.default_rng(seed)
        dense = (rng.random((4, 4)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
        dense[1] = dense[0]  # mirrored p1 tie in exact arithmetic
        channel = make_channel(dense, verify=False)
        steps = 8 + seed
        scores = np.vstack([chunk for _, chunk in grid_score_chunks(channel, steps)])
        comps = capacity._simplex_grid(4, steps)
        every = np.arange(len(comps))
        good = channel.matrix.good.toarray()
        for k in every:
            one = np.array([k])
            assert _first_best_pair(good, comps, steps, every, one) == (np.argmin(scores[:, k]), k)
            assert _first_best_pair(good, comps, steps, one, every) == (k, np.argmin(scores[k]))


@st.composite
def grid_channels(draw):
    """m <= 2 channels with bad density anywhere in [0, 1] (all-good and
    all-bad included) and optionally a duplicated row or column, which
    forces ties between mirrored grid pairs."""
    m = draw(st.integers(1, 2))
    n = 1 << m
    density = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dense = (rng.random((n, n)) < density).astype(np.uint8)
    if draw(st.booleans()):
        dense[draw(st.integers(0, n - 1))] = dense[draw(st.integers(0, n - 1))]
    if draw(st.booleans()):
        dense[:, draw(st.integers(0, n - 1))] = dense[:, draw(st.integers(0, n - 1))]
    return make_channel(dense, verify=False)


@given(grid_channels(), st.integers(1, 24), st.sampled_from([1, 2, capacity._BF_BA_STEPS]))
@settings(max_examples=60, deadline=None)
def test_brute_force_matches_full_scan_oracle(channel, steps, ba_steps):
    # few Blahut-Arimoto steps leave rows undecided, and those must be kept
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(capacity, "_BF_BA_STEPS", ba_steps)
        result = brute_force_sum_capacity(channel, steps)
    assert result == brute_force_oracle(channel, steps)


def test_brute_force_margin_covers_float32_error():
    # The margin must be at least twice the scan's worst float32 error:
    # score every pair of a 16-step grid in float32 as the scan does and in
    # float64, on channels from all-good to all-bad.
    steps = 16
    comps = capacity._simplex_grid(4, steps)
    u64 = comps / steps
    ul64 = xlog2x(u64)
    s2 = steps * steps
    table = xlog2x(1.0 - np.arange(s2 + 1) / s2).astype(np.float32)
    worst = 0.0
    for seed, density in [(0, 0.0), (1, 0.2), (2, 0.5), (3, 0.5), (4, 0.8), (5, 1.0)]:
        good = 1.0 - random_channel(2, seed, density).matrix.to_dense()
        s, t = good @ u64.T, good @ ul64.T
        exact = -(ul64 @ s) - u64 @ t - xlog2x(np.clip(1.0 - u64 @ s, 0.0, 1.0))
        g32, u32, ul32 = good.astype(np.float32), u64.astype(np.float32), ul64.astype(np.float32)
        gamma = np.rint(comps.astype(np.float32) @ (g32 @ comps.T.astype(np.float32)))
        score = np.hstack([ul32, u32]) @ np.vstack([g32 @ u32.T, g32 @ ul32.T])
        score += table[gamma.astype(np.int64)]
        worst = max(worst, float(np.abs(score.astype(np.float64) + exact).max()))
    assert 0 < 2 * worst <= capacity._BF_MARGIN


@st.composite
def grid_marginals(draw):
    """A channel with m <= 3 and eight grid pmfs of it, some with zero
    masses (boundary points of the simplex)."""
    m = draw(st.integers(1, 3))
    n = 1 << m
    steps = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    channel = random_channel(m, int(rng.integers(2**31)), density=draw(st.floats(0.0, 1.0)))
    comps = rng.multinomial(steps, rng.dirichlet(np.ones(n)), size=8)
    comps[rng.random(comps.shape) < 0.3] = 0  # push points onto faces
    comps[:, 0] += steps - comps.sum(axis=1)
    return channel, comps, steps


@given(grid_marginals())
@settings(max_examples=60, deadline=None)
def test_grid_bounds_hold_after_every_step(case):
    # After each of 50 steps, each fixed marginal's Gibbs bound is at least
    # its exact best response, and its Blahut-Arimoto value at most that.
    channel, comps, steps = case
    dense = 1.0 - channel.matrix.to_dense()
    for (s, t), transpose in zip(_fixed_stats(dense, comps, steps), (True, False)):
        products = [good_products(channel, c / steps, transpose) for c in comps]
        _, best = best_responses(*(np.array(rows) for rows in zip(*products)))
        b = np.full(s.shape, 1.0 / s.shape[1])
        for _ in range(50):
            upper, lower, b = _ba_step(s, t, b)
            assert np.all(upper >= best - 1e-12)
            assert np.all(lower <= best + 1e-12)


def naive_grid_max(channel, steps):
    """Literal double loop over the grid through the dict-entropy route."""
    n = channel.n
    from itertools import combinations

    points = []
    for cuts in combinations(range(steps + n - 1), n - 1):
        prev = -1
        counts = []
        for c in list(cuts) + [steps + n - 1]:
            counts.append(c - prev - 1)
            prev = c
        points.append(np.array(counts) / steps)
    best = -1.0
    for a in points:
        for b in points:
            value = dict_entropy(output_stats(channel, a, b).y_distribution)
            if value > best:
                best = value
    return best


def test_brute_force_matches_naive_grid():
    channel = random_channel(2, seed=23, density=0.5)
    steps = 6
    result = brute_force_sum_capacity(channel, grid_steps=steps)
    assert abs(result.value - naive_grid_max(channel, steps)) <= 1e-6


def test_brute_force_result_is_attained():
    channel = random_channel(2, seed=31, density=0.5)
    result = brute_force_sum_capacity(channel, grid_steps=8)
    assert abs(result.value - sum_rate(channel, result.p1, result.p2)) <= 1e-12


# ----------------------------------------------------------------------
# Uniform layering
# ----------------------------------------------------------------------


def test_decompose_simple():
    deco = decompose_into_uniforms([0.5, 0.25, 0.25])
    assert deco.alphabet_size == 3
    assert deco.weights == (0.75, 0.25)
    assert deco.sizes == (3, 1) and deco.order[0] == 1
    assert deco.supports == (frozenset({1, 2, 3}), frozenset({1}))


def test_decompose_uniform_single_layer():
    deco = decompose_into_uniforms([0.25] * 4)
    assert deco.weights == (1.0,)
    assert deco.supports == (frozenset({1, 2, 3, 4}),)


def test_decompose_point_mass():
    deco = decompose_into_uniforms([0.0, 1.0, 0.0])
    assert deco.weights == (1.0,)
    assert deco.supports == (frozenset({2}),)


def test_decomposition_validation():
    UniformDecomposition(2, (0.5, 0.5), (1, 2), (2, 1))
    cases = [
        ((), (1, 2), ()),  # no layers
        ((1.0,), (1, 2), (2, 1)),  # one weight for two layers
        ((0.5, 0.5), (1, 2), (1, 2)),  # not nested: sizes grow
        ((0.5, 0.5), (1, 2), (2, 2)),  # not strictly nested
        ((1.5, -0.5), (1, 2), (2, 1)),  # negative weight
        ((0.5, 0.4), (1, 2), (2, 1)),  # weights do not sum to 1
        ((1.0,), (1, 1), (2,)),  # order not a permutation
        ((1.0,), (1, 2), (3,)),  # support wider than the alphabet
    ]
    for weights, order, sizes in cases:
        with pytest.raises(ValueError):
            UniformDecomposition(2, weights, order, sizes)


def test_mass_on_supports_at_most():
    deco = decompose_into_uniforms([0.5, 0.25, 0.25])
    assert deco.mass_on_supports_at_most(0.5) == 0.0
    assert deco.mass_on_supports_at_most(1) == 0.25
    assert deco.mass_on_supports_at_most(2.7) == 0.25
    assert deco.mass_on_supports_at_most(3) == 1.0


@given(st.integers(2, 64), st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_decompose_reconstructs_property(n, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n) * rng.uniform(0.2, 3.0))
    deco = decompose_into_uniforms(p)
    assert np.max(np.abs(deco.reconstruct() - p)) <= 1e-12
    thresholds = sorted(set(p[p > 0].tolist()))
    assert deco.supports == tuple(
        frozenset(i + 1 for i in range(n) if p[i] >= v) for v in thresholds
    )
    sizes = [len(s) for s in deco.supports]
    assert sizes == sorted(sizes, reverse=True)
    assert len(set(sizes)) == len(sizes)


# ----------------------------------------------------------------------
# Entropy tail bound
# ----------------------------------------------------------------------


def test_tail_mass_bound_values():
    assert tail_mass_bound(4.0, 16, 4) == 0.5
    assert abs(tail_mass_bound(4.0, 16, 2) - 1.0 / 3.0) <= 1e-12
    assert tail_mass_bound(1.0, 2, 1) == 1.0


def test_tail_mass_bound_validation():
    for args in [
        (1.0, 1, 1),
        (1.0, 16, 0),
        (1.0, 16, 16),
        (1.0, 16, 17),
        (-0.5, 16, 4),
        (5.0, 16, 4),
        (1.0, 16.0, 4),
        (1.0, 16, 4.0),
    ]:
        with pytest.raises(ValueError):
            tail_mass_bound(*args)


@given(st.integers(2, 128), st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_tail_mass_bound_holds_property(n, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n) * rng.uniform(0.2, 2.0))
    h = entropy_bits(p)
    size = int(rng.integers(1, n))
    subset = rng.choice(n, size=size, replace=False)
    bound = tail_mass_bound(h, n, size)
    assert p[subset].sum() <= bound + 1e-9
