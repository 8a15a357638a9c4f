import math

import numpy as np
import pytest

from coopcap import cf_inner_region, cf_outer_region
from coopcap import bounds as bounds_module
from coopcap.bounds import (
    HyperbolaRegion,
    RateRegion,
    bound_sequences,
    construction_failure_bounds,
    hull_max_sum,
    ie_inner_sum,
    ie_outer_sum,
    ie_outer_sum_asymptotic,
    theorem_gap,
)
from coopcap.channel import ChannelMatrix, channel_from_matrix, default_g
from coopcap.coding import build_ie_code
from coopcap.errors import HypothesisViolation
from oracles import hyperbola_feasible, numeric_hull_max


# ----------------------------------------------------------------------
# Rate regions
# ----------------------------------------------------------------------


def test_cf_inner_region_pentagon():
    region = cf_inner_region(4, 2)
    assert region.vertices == ((0.0, 0.0), (4.0, 0.0), (4.0, 2.0), (2.0, 4.0), (0.0, 4.0))
    assert region.max_sum() == 6.0


def test_cf_inner_region_triangle():
    region = cf_inner_region(1, 1)
    assert region.vertices == ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    assert region.max_sum() == 1.0


def test_cf_outer_region_shapes():
    square = cf_outer_region(4, 0.0)
    assert square.vertices == ((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0))
    assert square.max_sum() == 8.0
    clipped = cf_outer_region(3, 2.0)
    assert clipped.vertices == (
        (0.0, 0.0),
        (5.0, 0.0),
        (5.0, 1.0),
        (1.0, 5.0),
        (0.0, 5.0),
    )
    assert clipped.max_sum() == 6.0


def test_region_contains():
    region = cf_inner_region(4, 2)
    assert region.contains(0, 0)
    assert region.contains(4, 2)  # boundary
    assert region.contains(2, 4)
    assert region.contains(3, 2.99)
    assert not region.contains(3, 3.1)
    assert not region.contains(4.1, 0)
    assert not region.contains(-0.1, 0)


def test_region_vertices_satisfy_constraints():
    for m in (1, 2, 5, 9):
        for g in range(1, m + 1):
            region = cf_inner_region(m, g)
            for x, y in region.vertices:
                for a1, a2, rhs in region.constraints:
                    assert a1 * x + a2 * y <= rhs + 1e-9


def test_inner_contained_in_outer():
    for m in range(1, 21):
        for g in range(1, m + 1):
            inner = cf_inner_region(m, g)
            assert cf_outer_region(m, 0.0).contains_region(inner)
            assert cf_outer_region(m, float(g)).contains_region(inner)
    assert not cf_inner_region(4, 2).contains_region(cf_outer_region(4, 0.0))


def test_region_validation():
    with pytest.raises(ValueError):
        RateRegion(())
    with pytest.raises(ValueError):
        RateRegion(((1.0, 0.0, 5.0),))  # r2 unbounded
    with pytest.raises(ValueError):
        RateRegion(((1.0, 0.0, -1.0), (0.0, 1.0, 5.0)))  # empty
    with pytest.raises(ValueError):
        cf_inner_region(4, 5)
    with pytest.raises(ValueError):
        cf_inner_region(0, 1)
    with pytest.raises(ValueError):
        cf_outer_region(4, -0.5)


def test_ie_inner_sum():
    assert ie_inner_sum(4, 2) == 2.0
    assert ie_inner_sum(3, 3) == 0.0
    with pytest.raises(ValueError):
        ie_inner_sum(2, 3)
    # matches the rate of an actually buildable single-user code
    dense = np.fromfunction(lambda i, j: (i + j) % 2, (4, 4)).astype(np.uint8)
    channel = channel_from_matrix(ChannelMatrix.from_dense(dense), g=1)
    assert build_ie_code(channel, 1).sum_rate == ie_inner_sum(2, 1)


# ----------------------------------------------------------------------
# Converse constant sequences
# ----------------------------------------------------------------------


def test_bound_sequences_against_direct_formula():
    m, eps, f = 10, 0.1, 100
    seqs = bound_sequences(m, eps, f)
    k = 1.0 / (1.0 - math.log2(f) / m)
    assert abs(seqs.k_m - k) <= 1e-12
    assert abs(seqs.k_m - 2.9796101018) <= 1e-9
    a = 1.0 + 1.0 / m - 1.0 / k
    b = -1.0 - 1.0 / m + 1.0 / k + 1.0 / k**2
    c = (
        -1.0
        - 2.0 / m
        - 1.0 / m**2
        + (2.0 + 2.0 / m) / k
        + (eps + 1.0 / m) / k**2
        - a * b
    )
    assert abs(seqs.a_m - a) <= 1e-12
    assert abs(seqs.b_m - b) <= 1e-12
    assert abs(seqs.c_m - c) <= 1e-12
    assert seqs.m == m


def test_bound_sequences_domain():
    with pytest.raises(ValueError):
        bound_sequences(6, 0.1, 64)  # log2(f) == m
    with pytest.raises(ValueError):
        bound_sequences(3, 0.1, 16)  # log2(f) > m
    with pytest.raises(ValueError):
        bound_sequences(0, 0.1, 1)
    with pytest.raises(ValueError):
        bound_sequences(4, 0.1, 0)
    assert bound_sequences(4, 0.1, 1).k_m == 1.0
    assert bound_sequences(10, 0.1, 4).k_m > 1.0


def test_bound_sequences_tend_to_limits():
    # with f = m^2 the triple approaches (0, 1, 1 + eps)
    eps = 0.1
    ms = [100, 200, 500, 1000, 2000, 5000]
    a_err, b_err, c_err = [], [], []
    for m in ms:
        seqs = bound_sequences(m, eps, m * m)
        a_err.append(abs(seqs.a_m))
        b_err.append(abs(seqs.b_m - 1.0))
        c_err.append(abs(seqs.c_m - (1.0 + eps)))
    for errs in (a_err, b_err, c_err):
        assert all(x > y for x, y in zip(errs, errs[1:])), errs
    assert a_err[-1] < 0.01
    assert b_err[-1] < 0.02
    assert c_err[-1] < 0.02


# ----------------------------------------------------------------------
# Hyperbola hull maximum
# ----------------------------------------------------------------------


def test_hull_max_sum_anchors():
    assert abs(hull_max_sum(HyperbolaRegion(0.0, 1.0, 1.0)) - (math.sqrt(5) - 1)) <= 1e-12
    assert abs(hull_max_sum(HyperbolaRegion(0.0, 1.0, 1.1)) - (math.sqrt(5.4) - 1)) <= 1e-12
    assert abs(hull_max_sum(HyperbolaRegion(1.0, 1.0, 1.0)) - math.sqrt(8)) <= 1e-12


def test_hypothesis_failures_labels():
    assert HyperbolaRegion(0.0, 1.0, 1.0).hypothesis_failures() == ()
    sqrt_only = HyperbolaRegion(0.0, 1.0, 3.0).hypothesis_failures()
    assert len(sqrt_only) == 1 and "sqrt" in sqrt_only[0]
    bad_b = HyperbolaRegion(1.0, -1.0, 1.0).hypothesis_failures()
    assert any(f.startswith("b > 0") for f in bad_b)
    bad_c = HyperbolaRegion(1.0, 1.0, -1.0).hypothesis_failures()
    assert any(f.startswith("c > 0") for f in bad_c)
    assert any(f.startswith("a*b + c") for f in bad_c)


def test_hull_max_sum_raises_with_details():
    with pytest.raises(HypothesisViolation) as err:
        hull_max_sum(HyperbolaRegion(0.0, 1.0, 3.0))
    assert len(err.value.failed) == 1
    assert "sqrt" in err.value.failed[0]
    assert "sqrt" in str(err.value)


def test_hull_max_root_substitution():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 50:
        a, b, c = rng.uniform(0.0, 3.0, size=3)
        region = HyperbolaRegion(a, b, c)
        if region.hypothesis_failures():
            continue
        x0 = hull_max_sum(region) / 2.0
        assert abs((x0 - a) * (x0 + b) - c) <= 1e-9 * max(1.0, c)
        # the symmetric maximizer lies in the region
        assert hyperbola_feasible(region, x0 - 1e-12, x0 - 1e-12)
        checked += 1


def test_numeric_hull_max_matches_closed_form():
    for triple in [(0.0, 1.0, 1.0), (0.0, 1.0, 1.1), (1.0, 1.0, 1.0), (0.5, 2.0, 0.3)]:
        region = HyperbolaRegion(*triple)
        assert abs(numeric_hull_max(region) - hull_max_sum(region)) <= 2e-3


def test_numeric_hull_max_works_without_sqrt_hypothesis():
    # closed form invalid here; the grid scan still evaluates the hull
    region = HyperbolaRegion(0.0, 1.0, 3.0)
    with pytest.raises(HypothesisViolation):
        hull_max_sum(region)
    assert abs(numeric_hull_max(region, 4001) - 3.0) <= 2e-3


def test_numeric_hull_max_validation():
    with pytest.raises(ValueError):
        numeric_hull_max(HyperbolaRegion(-0.1, 1.0, 1.0))
    with pytest.raises(ValueError):
        numeric_hull_max(HyperbolaRegion(0.5, 0.0, 1.0))
    with pytest.raises(ValueError):
        numeric_hull_max(HyperbolaRegion(0.0, 1.0, 1.0), samples_per_axis=1)


def test_ie_outer_sum_finite_and_asymptotic():
    m, eps = 100, 0.1
    finite = ie_outer_sum(m, eps, m * m)
    asym = ie_outer_sum_asymptotic(m, eps)
    assert math.isfinite(finite)
    assert abs(finite - asym) / m < 0.1
    with pytest.raises(HypothesisViolation):
        ie_outer_sum(16, 0.1, 256)
    assert abs(ie_outer_sum_asymptotic(10, 0.0) - (math.sqrt(5) - 1) * 10) <= 1e-12
    with pytest.raises(ValueError):
        ie_outer_sum_asymptotic(10, -0.1)


def test_ie_outer_sum_approaches_asymptote():
    eps = 0.1
    gaps = [
        abs(ie_outer_sum(m, eps, m * m) - ie_outer_sum_asymptotic(m, eps)) / m
        for m in (100, 200, 500, 1000, 2000, 5000)
    ]
    assert all(x > y for x, y in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 0.01


# ----------------------------------------------------------------------
# Construction failure bounds
# ----------------------------------------------------------------------


def test_block_bound_hand_value():
    bounds = construction_failure_bounds(4, 0.9, 8, 3, 0.2)
    expected = 2.0 ** (2 * 4 - 3 + 1) * 0.9 ** (2**3)
    assert abs(2.0**bounds.block_bound_log2 - expected) <= 1e-9
    assert abs(2.0**bounds.block_bound_log2 - 27.55) <= 0.01
    assert abs(bounds.block_bound_log2 - math.log2(expected)) <= 1e-12


def test_block_bound_decreasing_in_m():
    values = [
        construction_failure_bounds(m, 0.9, 1, default_g(m), 0.2).block_bound_log2
        for m in (16, 32, 64)
    ]
    assert values[0] > values[1] > values[2]
    assert values[0] < 0  # already nonvacuous at m = 16


def test_block_bound_edge_cases():
    assert construction_failure_bounds(4, 0.0, 8, 3, 0.2).block_bound_log2 == float(
        "-inf"
    )
    assert construction_failure_bounds(2, 1.0, 2, 1, 0.5).block_bound_log2 == 2 * 2 - 1 + 1


def density_log2_oracle(m, p, f, epsilon):
    """Literal double sum in quad-ish precision via fsum of shifted exps."""
    ln2 = math.log(2.0)
    d2 = 2.0 * (p - 1.0 + epsilon) ** 2
    terms = []
    for i in range(f, (1 << m) + 1):
        for j in range(f, (1 << m) + 1):
            terms.append((i + j) * m * ln2 - d2 * i * j)
    peak = max(terms)
    return (peak + math.log(math.fsum(math.exp(t - peak) for t in terms))) / ln2


def test_density_bound_exact_branch_matches_oracle():
    cases = [(4, 0.95, 8, 0.1), (4, 0.8, 8, 0.3), (4, 0.99, 8, 0.005)]
    cases += [(m, p, f, eps) for m in (1, 2, 3, 5) for f in (1, 1 << (m - 1))
              for p, eps in ((0.9, 0.2), (0.85, 0.15), (0.6, 0.1))]
    for m, p, f, eps in cases:
        bounds = construction_failure_bounds(m, p, f, 1, eps)
        assert bounds.density_enumerated
        assert abs(bounds.density_bound_log2 - density_log2_oracle(m, p, f, eps)) <= 1e-10


def density_log2_chunked(m, p, f, epsilon, rows=256):
    """Literal log-sum-exp over every (i, j) term, a block of rows at a time."""
    ln2 = math.log(2.0)
    d2 = 2.0 * (p - 1.0 + epsilon) ** 2
    j = np.arange(f, (1 << m) + 1, dtype=np.float64)
    partial = []
    for lo in range(f, (1 << m) + 1, rows):
        i = np.arange(lo, min(lo + rows, (1 << m) + 1), dtype=np.float64)[:, None]
        h = (i + j) * (m * ln2) - d2 * i * j
        top = h.max()
        partial.append(top + math.log(np.exp(h - top).sum()))
    top = max(partial)
    return (top + math.log(math.fsum(math.exp(x - top) for x in partial))) / ln2


@pytest.mark.parametrize(
    "m, eps, p, expected",
    [(14, 0.05, 0.975, 226_329.9), (13, 0.3, 0.85, 18_814.3)],
)
def test_density_bound_matches_chunked_logsumexp(m, eps, p, expected):
    f = m * m
    bounds = construction_failure_bounds(m, p, f, default_g(m), eps)
    assert bounds.density_enumerated
    literal = density_log2_chunked(m, p, f, eps)
    assert abs(bounds.density_bound_log2 - literal) <= 1e-9 * literal
    assert round(bounds.density_bound_log2, 1) == expected


def density_log2_scipy(m, p, f, epsilon):
    """The exact branch's row sums, reduced by scipy.special.logsumexp."""
    from scipy.special import logsumexp

    n = 1 << m
    count = n - f + 1
    ln2 = math.log(2.0)
    a = m * ln2
    i = np.arange(f, n + 1, dtype=np.float64)
    c = a - 2.0 * (p - 1.0 + epsilon) ** 2 * i
    s = np.abs(c)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_series = np.where(
            s > 0,
            np.maximum(c, 0.0) * (count - 1)
            + np.log(-np.expm1(-s * count))
            - np.log(-np.expm1(-s)),
            math.log(count),
        )
    return float(logsumexp(i * a + c * f + log_series)) / ln2


def test_density_bound_matches_scipy_logsumexp():
    mismatches = []
    for m in range(1, 15):
        for eps in (0.005, 0.05, 0.1, 0.3):
            for p in (0.6, 0.85, 0.95, 0.975, 1.0):
                for f in sorted({1, 1 << (m - 1), min(m * m, 1 << m)}):
                    got = construction_failure_bounds(m, p, f, 1, eps)
                    assert got.density_enumerated
                    want = density_log2_scipy(m, p, f, eps)
                    if abs(got.density_bound_log2 - want) > 1e-15 * abs(want):
                        mismatches.append((m, eps, p, f, got.density_bound_log2, want))
    assert not mismatches, mismatches


def test_density_bound_past_exact_limit_over_estimates(monkeypatch):
    cases = [(m, p, eps) for m in (5, 8, 10) for p, eps in ((0.975, 0.05), (0.85, 0.3), (1.0, 0.0))]
    exact = {case: construction_failure_bounds(case[0], case[1], case[0] ** 2 // 4, 1, case[2])
             for case in cases}
    monkeypatch.setattr(bounds_module, "_DENSITY_EXACT_LIMIT", 8)
    for (m, p, eps), want in exact.items():
        f = m * m // 4
        got = construction_failure_bounds(m, p, f, 1, eps)
        assert not got.density_enumerated and want.density_enumerated
        # count^2 times the largest term lies between the sum and count^2 times it
        terms_log2 = 2 * math.log2((1 << m) - f + 1)
        assert want.density_bound_log2 - 1e-9 <= got.density_bound_log2
        assert got.density_bound_log2 <= want.density_bound_log2 + terms_log2 + 1e-9


def test_density_bound_beyond_float_range():
    # 2^m overflows a float past m = 1023; the corners are taken exactly
    bounds = construction_failure_bounds(2000, 0.95, 2000**2, 22, 0.1)
    assert not bounds.density_enumerated
    assert -1e11 < bounds.density_bound_log2 < 0
    assert construction_failure_bounds(2000, 1.0, 4, 22, 0.0).density_bound_log2 == math.inf


def test_construction_failure_bounds_validation():
    with pytest.raises(ValueError):
        construction_failure_bounds(4, 0.9, 8, 0, 0.2)
    with pytest.raises(ValueError):
        construction_failure_bounds(4, 0.9, 8, 5, 0.2)
    with pytest.raises(ValueError):
        construction_failure_bounds(4, 0.9, 17, 3, 0.2)
    with pytest.raises(ValueError):
        construction_failure_bounds(4, 1.5, 8, 3, 0.2)


# ----------------------------------------------------------------------
# Gap bracket
# ----------------------------------------------------------------------


def test_theorem_gap_values():
    gap = theorem_gap(10, 5.06, 0.01)
    assert abs(gap.lower - ((3.0 - math.sqrt(5.04)) * 10 - 5.06)) <= 1e-12
    assert abs(gap.upper - 15.06) <= 1e-12
    assert abs(gap.lower - 2.4899) <= 1e-3


def test_theorem_gap_small_epsilon_limit():
    gap = theorem_gap(100, 0.0, 1e-12)
    assert abs(gap.lower - (3.0 - math.sqrt(5.0)) * 100) <= 1e-6


def test_theorem_gap_order_property():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = int(rng.integers(1, 50))
        delta = float(rng.uniform(0, m))
        eps = float(rng.uniform(1e-6, 1.0))
        gap = theorem_gap(m, delta, eps)
        assert gap.lower <= gap.upper


def test_theorem_gap_validation():
    for args in [(0, 0.0, 0.1), (4, -0.1, 0.1), (4, 4.1, 0.1), (4, 1.0, 0.0), (4, 1.0, -1.0)]:
        with pytest.raises(ValueError):
            theorem_gap(*args)
