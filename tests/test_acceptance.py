"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``ACCEPTANCE <n>: PASS|FAIL ...`` line (visible
under ``pytest -s``) before asserting, so a full run doubles as a report.
Criterion 9 checks the converse constants' limit (0, 1, 1 + eps) at the
rate they actually have, 2 log2(m)/m with f = m^2: the package's triple
must match the hand-simplified error forms, and must first sit within 0.05
of the limit at m = 1305, where those forms first cross it.
"""

import math
import time

import numpy as np

from coopcap import (
    CfCode,
    ChannelMatrix,
    ConstructionParams,
    ExperimentConfig,
    HyperbolaRegion,
    Orientation,
    bound_sequences,
    brute_force_sum_capacity,
    channel_from_matrix,
    construct_channel,
    construction_failure_bounds,
    decompose_into_uniforms,
    default_g,
    entropy_bits,
    hull_max_sum,
    maximize_sum_rate,
    numeric_hull_max,
    run_sweep,
    sum_rate,
    tail_mass_bound,
    verify_zero_error,
)


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} {detail}")


def random_channel(m, seed):
    rng = np.random.default_rng(seed)
    n = 1 << m
    dense = (rng.random((n, n)) < 0.5).astype(np.uint8)
    return channel_from_matrix(ChannelMatrix.from_dense(dense), g=1, verify=False)


def test_acceptance_1_zero_error_facilitator_code():
    # epsilon per width chosen so the default p = 1 - eps/2 is dense enough
    # in bad entries to matter yet sparse enough to construct quickly
    eps_for = {6: 0.25, 8: 0.3, 10: 0.1}
    results = []
    ok = True
    for m, eps in eps_for.items():
        t0 = time.perf_counter()
        params = ConstructionParams.with_defaults(m, epsilon=eps)
        channel = construct_channel(params)
        g = params.g_of_m
        failures = 0
        for orientation in Orientation:
            code = CfCode(channel, orientation)
            rep = verify_zero_error(code)
            failures += rep.failures
            ok = ok and rep.pairs_checked == (1 << m) * (1 << (m - g))
            ok = ok and code.sum_rate == float(2 * m - g)
        elapsed = time.perf_counter() - t0
        ok = ok and failures == 0 and elapsed < 5.0
        results.append(f"m={m} g={g} failures={failures} time={elapsed:.2f}s")
    report(1, ok, "; ".join(results))
    assert ok


def test_acceptance_2_hull_closed_form_vs_grid():
    t0 = time.perf_counter()
    anchors_ok = (
        abs(hull_max_sum(HyperbolaRegion(0, 1, 1)) - (math.sqrt(5) - 1)) <= 1e-12
        and abs(hull_max_sum(HyperbolaRegion(0, 1, 1.1)) - (math.sqrt(5.4) - 1)) <= 1e-12
    )
    worst = 0.0
    for region in (HyperbolaRegion(0, 1, 1), HyperbolaRegion(0, 1, 1.1)):
        worst = max(worst, abs(hull_max_sum(region) - numeric_hull_max(region, 2000)))
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        a, b, c = rng.uniform(0.0, 3.0, size=3)
        region = HyperbolaRegion(a, b, c)
        if region.hypothesis_failures():
            continue
        worst = max(worst, abs(hull_max_sum(region) - numeric_hull_max(region, 2000)))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = anchors_ok and worst <= 2e-3 and elapsed < 10.0
    report(2, ok, f"worst |closed - grid| = {worst:.2e} over 102 regions, "
                  f"time={elapsed:.2f}s")
    assert ok


def test_acceptance_3_uniform_layering():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_err = 0.0
    nesting_ok = True
    part_c_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 257))
        p = rng.dirichlet(np.ones(n) * rng.uniform(0.2, 3.0))
        deco = decompose_into_uniforms(p)
        worst_err = max(worst_err, float(np.max(np.abs(deco.reconstruct() - p))))
        sizes = [len(s) for s in deco.supports]
        nesting_ok = nesting_ok and all(x > y for x, y in zip(sizes, sizes[1:]))
        h = entropy_bits(p)
        log_n = math.log2(n)
        for _ in range(10):
            limit = float(rng.uniform(1.0, n - 0.5))
            k = 1.0 / (1.0 - math.log2(limit) / log_n)
            rhs = k * (1.0 - (h - 1.0) / log_n)
            part_c_ok = part_c_ok and deco.mass_on_supports_at_most(limit) <= rhs + 1e-9
    elapsed = time.perf_counter() - t0
    ok = worst_err <= 1e-12 and nesting_ok and part_c_ok and elapsed < 5.0
    report(3, ok, f"1000 pmfs: worst reconstruction err {worst_err:.1e}, "
                  f"nesting={'ok' if nesting_ok else 'BROKEN'}, "
                  f"small-support mass bound={'ok' if part_c_ok else 'VIOLATED'}, "
                  f"time={elapsed:.2f}s")
    assert ok


def test_acceptance_4_entropy_tail_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 257))
        p = rng.dirichlet(np.ones(n) * rng.uniform(0.2, 3.0))
        size = int(rng.integers(1, n))
        subset = rng.choice(n, size=size, replace=False)
        bound = tail_mass_bound(entropy_bits(p), n, size)
        if float(p[subset].sum()) > bound + 1e-9:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 5.0
    report(4, ok, f"violations={violations}/1000, time={elapsed:.2f}s")
    assert ok


def test_acceptance_5_optimizer_vs_exhaustive_grid():
    t0 = time.perf_counter()
    worst = 0.0
    cases = [(1, seed) for seed in range(12)] + [(2, 100 + seed) for seed in range(8)]
    for m, seed in cases:
        channel = random_channel(m, seed)
        opt = maximize_sum_rate(channel, restarts=8, seed=seed)
        exact = brute_force_sum_capacity(channel, grid_steps=64)
        worst = max(worst, abs(opt.value - exact.value))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.02 and elapsed < 120.0
    report(5, ok, f"worst |optimizer - grid| = {worst:.2e} over 20 matrices, "
                  f"time={elapsed:.1f}s")
    assert ok


def test_acceptance_6_analytic_anchors():
    m = 3
    n = 1 << m
    all_zero = channel_from_matrix(
        ChannelMatrix.from_dense(np.zeros((n, n), dtype=np.uint8)), g=1
    )
    clean = maximize_sum_rate(all_zero, restarts=0).value
    all_one = channel_from_matrix(
        ChannelMatrix.from_dense(np.ones((n, n), dtype=np.uint8)), g=1, verify=False
    )
    dead = maximize_sum_rate(all_one, restarts=0).value
    anti_bad = channel_from_matrix(
        ChannelMatrix.from_dense(np.array([[0, 1], [1, 0]], dtype=np.uint8)), g=1
    )
    uniform_value = sum_rate(anti_bad, [0.5, 0.5], [0.5, 0.5])
    ok = (
        abs(clean - 2 * m) <= 1e-4
        and dead == 0.0
        and math.copysign(1.0, dead) == 1.0
        and uniform_value == 1.5
    )
    report(6, ok, f"all-good={clean!r} (target {2 * m}), all-bad={dead!r}, "
                  f"2x2 uniform={uniform_value!r}")
    assert ok


def test_acceptance_7_gap_bracket_sweep(tmp_path):
    t0 = time.perf_counter()
    config = ExperimentConfig(
        m_values=(8, 10, 12),
        epsilon=0.05,
        p_override=0.85,  # the default p = 0.975 is uncconstructible here
        output_dir=str(tmp_path / "sweep"),
    )
    records = run_sweep(config)
    elapsed = time.perf_counter() - t0
    ok = all(r.error is None for r in records)
    details = []
    for record in records:
        m, delta = record.m, record.delta
        row_ok = (
            record.cf_failures == 0
            and record.gap >= 0.0
            and 2 * m - delta <= record.cf_sum_rate <= 2 * m
            and record.ie_estimate <= 2 * m
        )
        if m >= 10:
            row_ok = row_ok and record.ie_estimate < record.cf_sum_rate
        ok = ok and row_ok
        details.append(
            f"m={m} cf={record.cf_sum_rate} ie={record.ie_estimate:.3f} "
            f"gap={record.gap:.3f}"
        )
    ok = ok and elapsed < 600.0
    report(7, ok, "; ".join(details) + f"; time={elapsed:.0f}s")
    assert ok


def test_acceptance_8_failure_bound_values():
    hand = construction_failure_bounds(4, 0.9, 8, 3, 0.2).block_bound
    hand_ok = abs(hand - 27.55) <= 0.01
    series = [
        construction_failure_bounds(m, 0.9, 1, default_g(m), 0.2).block_bound
        for m in (16, 32, 64)
    ]
    decreasing = series[0] > series[1] > series[2]
    ok = hand_ok and decreasing
    report(8, ok, f"hand value {hand:.4f} (target 27.55), "
                  f"m=16,32,64 bounds {[f'{v:.1e}' for v in series]}")
    assert ok


def converse_constant_errors(m, eps, f):
    """Distances of (a_m, b_m, c_m) from their limits (0, 1, 1 + eps),
    simplified by hand from the definitions in bounds.bound_sequences.

    With t = log2(f)/m, u = 1/m and 1/K_m = 1 - t:

        a_m             = t + u
        b_m - 1         = -3t + t^2 - u
        c_m - (1 + eps) = -(3 + 2 eps) t + (3 + eps) t^2 - t^3

    so with f = m^2 all three shrink like 2 log2(m)/m, not like 1/m.
    """
    t = math.log2(f) / m
    u = 1.0 / m
    return (
        t + u,
        -3.0 * t + t * t - u,
        -(3.0 + 2.0 * eps) * t + (3.0 + eps) * t * t - t**3,
    )


def test_acceptance_9_bound_sequence_limits():
    eps, tol = 0.1, 0.05

    def package_errors(m):
        seqs = bound_sequences(m, eps, m * m)
        return (seqs.a_m, seqs.b_m - 1.0, seqs.c_m - (1.0 + eps))

    def in_box(errors):
        return all(abs(e) < tol for e in errors)

    # From m = 5 on, log2(m^2) < m and t falls with m; each error grows
    # with t on [0, 1], so once all three are inside the box they stay.
    widths = range(5, 10001)
    hand_in_box = [in_box(converse_constant_errors(m, eps, m * m)) for m in widths]
    crossing = widths[hand_in_box.index(True)]
    stays = all(hand_in_box[crossing - widths.start:])

    checked = (1000, crossing - 1, crossing, 2000, 5000, 10000)
    worst = max(
        abs(p - h)
        for m in checked
        for p, h in zip(package_errors(m), converse_constant_errors(m, eps, m * m))
    )
    box_ok = not in_box(package_errors(crossing - 1)) and all(
        in_box(package_errors(m)) for m in (crossing, 2000, 5000, 10000)
    )
    a_err, b_err, c_err = (abs(e) for e in package_errors(1000))
    ok = worst <= 1e-12 and crossing == 1305 and stays and box_ok
    report(9, ok, f"m=1000: |a|={a_err:.4f} |b-1|={b_err:.4f} |c-1.1|={c_err:.4f} "
                  f"(hand forms match to {worst:.1e}); all three first < {tol} "
                  f"at m={crossing}; package triple out of the box at "
                  f"m={crossing - 1}, in it at m={crossing}, 2000, 5000, 10000: "
                  f"{'ok' if box_ok else 'FAILED'}")
    assert ok
