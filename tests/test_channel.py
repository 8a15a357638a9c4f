import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopcap import ConstructionParams, construct_channel
import coopcap.channel as chmod
from coopcap.channel import (
    _LISTED_FAILURES,
    DEFAULT_MAX_M,
    ERASURE,
    MAX_M_ENV_VAR,
    Channel,
    ChannelMatrix,
    channel_from_matrix,
    check_block_goodness,
    default_f,
    default_g,
    default_p,
    deserialize_channel,
    estimate_bad_density,
    first_good,
    memory_cap,
    sample_matrix,
    serialize_channel,
)
from coopcap.errors import (
    ChannelFormatError,
    ConstructionExhausted,
    MemoryCapExceeded,
)
from oracles import (
    channel_apply,
    col_block_bits,
    first_good_oracle,
    maccf_bytes_oracle,
    row_block_bits,
)
from strips import STRIP_BITS, many_strips


def dense_matrix(rows):
    return ChannelMatrix.from_dense(np.array(rows, dtype=np.uint8))


def random_dense(rng, m):
    n = 1 << m
    return (rng.random((n, n)) < 0.5).astype(np.uint8)


# ----------------------------------------------------------------------
# Defaults and parameters
# ----------------------------------------------------------------------


def test_default_g_schedule():
    assert default_g(1) == 1
    assert default_g(2) == 2
    assert default_g(3) == 3  # 2*ceil(log2 3) = 4 clamps to m
    assert default_g(4) == 4
    assert default_g(5) == 5
    assert default_g(8) == 6
    assert default_g(10) == 8
    assert default_g(12) == 8
    assert default_g(16) == 8
    with pytest.raises(ValueError):
        default_g(0)


def test_default_f_schedule():
    assert default_f(1) == 1
    assert default_f(2) == 4
    assert default_f(3) == 8  # m^2 = 9 clamps to 2^m
    assert default_f(4) == 16
    assert default_f(10) == 100
    with pytest.raises(ValueError):
        default_f(0)


def test_default_p():
    assert default_p(0.05) == 0.975
    assert default_p(0.5) == 0.75
    for eps in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            default_p(eps)


def test_construction_params_validation():
    good = dict(m=4, p=0.9, epsilon=0.1, f_of_m=16, g_of_m=4, seed=0)
    ConstructionParams(**good)
    for key, bad in [
        ("m", 0),
        ("m", 2.0),
        ("p", -0.1),
        ("p", 1.1),
        ("epsilon", 0.0),
        ("epsilon", 1.0),
        ("g_of_m", 0),
        ("g_of_m", 5),
        ("f_of_m", 0),
        ("f_of_m", 17),
        ("seed", -1),
        ("seed", 1 << 64),
        ("seed", "x"),
    ]:
        with pytest.raises(ValueError):
            ConstructionParams(**{**good, key: bad})


def test_with_defaults_fills_schedule():
    params = ConstructionParams.with_defaults(8, epsilon=0.2, seed=7)
    assert params.p == default_p(0.2)
    assert params.f_of_m == default_f(8)
    assert params.g_of_m == default_g(8)
    assert params.seed == 7
    explicit = ConstructionParams.with_defaults(8, p=0.5, f_of_m=10, g_of_m=3)
    assert (explicit.p, explicit.f_of_m, explicit.g_of_m) == (0.5, 10, 3)


def test_density_bound_applicable_window():
    assert ConstructionParams.with_defaults(4, epsilon=0.1).density_bound_applicable
    low = ConstructionParams.with_defaults(4, epsilon=0.1, p=0.5)
    assert not low.density_bound_applicable
    edge = ConstructionParams.with_defaults(4, epsilon=0.1, p=1.0)
    assert not edge.density_bound_applicable


# ----------------------------------------------------------------------
# ChannelMatrix
# ----------------------------------------------------------------------


def test_matrix_round_trip_and_accessors():
    rng = np.random.default_rng(0)
    for m in (1, 2, 3, 4):
        dense = random_dense(rng, m)
        mat = ChannelMatrix.from_dense(dense)
        assert mat.m == m
        assert mat.n == 1 << m
        assert np.array_equal(mat.to_dense(), dense)
        for i in range(mat.n):
            for j in range(mat.n):
                assert mat.bit(i + 1, j + 1) == dense[i, j]
        x1, x2 = np.indices(dense.shape) + 1
        assert np.array_equal(mat.bit(x1, x2), dense)
        assert np.array_equal(mat.bit(x1[:, :1], 1), dense[:, :1])


def test_matrix_block_accessors_match_dense():
    rng = np.random.default_rng(1)
    for m in (2, 3):
        dense = random_dense(rng, m)
        mat = ChannelMatrix.from_dense(dense)
        for g in range(1, m + 1):
            width = 1 << g
            for x in range(1, mat.n + 1):
                for k in range(mat.n >> g):
                    sl = slice(k * width, (k + 1) * width)
                    assert np.array_equal(
                        row_block_bits(mat, x, k, g), dense[x - 1, sl]
                    )
                    assert np.array_equal(
                        col_block_bits(mat, x, k, g), dense[sl, x - 1]
                    )


def test_matrix_bit_bounds_checked():
    mat = dense_matrix([[0, 1], [1, 0]])
    for pair in [(0, 1), (1, 0), (3, 1), (1, 3)]:
        with pytest.raises(ValueError):
            mat.bit(*pair)


def test_matrix_validation():
    with pytest.raises(ValueError):
        ChannelMatrix.from_dense(np.zeros((3, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        ChannelMatrix.from_dense(np.zeros((2, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        ChannelMatrix.from_dense(np.full((2, 2), 2, dtype=np.uint8))
    with pytest.raises(ValueError):
        ChannelMatrix(m=2, packed_rows=np.zeros((4, 2), dtype=np.uint8))
    # stray padding bits past column n
    with pytest.raises(ValueError):
        ChannelMatrix(m=1, packed_rows=np.array([[0b11100000], [0]], dtype=np.uint8))


def test_matrix_equality_by_content():
    a = dense_matrix([[0, 1], [1, 0]])
    b = dense_matrix([[0, 1], [1, 0]])
    c = dense_matrix([[0, 0], [1, 0]])
    assert a == b
    assert a != c
    assert a != "not a matrix"


def test_matrix_is_immutable():
    mat = dense_matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        mat.packed_rows[0, 0] = 255


@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_matrix_dense_pack_round_trip(m, seed):
    dense = random_dense(np.random.default_rng(seed), m)
    assert np.array_equal(ChannelMatrix.from_dense(dense).to_dense(), dense)


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------


def test_sample_matrix_deterministic():
    a = sample_matrix(4, 0.3, seed=11)
    b = sample_matrix(4, 0.3, seed=11)
    c = sample_matrix(4, 0.3, seed=12)
    assert a == b
    assert a != c


def test_sample_matrix_extremes():
    assert not sample_matrix(3, 0.0, seed=0).to_dense().any()
    assert sample_matrix(3, 1.0, seed=0).to_dense().all()


def test_sample_matrix_density_near_p():
    mat = sample_matrix(6, 0.3, seed=5)
    frac = mat.to_dense().mean()
    # 64*64 draws, sigma ~ 0.0072; allow 4 sigma
    assert abs(frac - 0.3) < 0.03


def test_sample_matrix_chunk_size_does_not_change_stream():
    # the oracle is one generator drawing the whole matrix row-major; the
    # sampler's strips must reproduce it whatever their size and threads
    for m in range(1, 10):
        n = 1 << m
        for p in (0.0, 0.3, 0.85, 1.0):
            seed = 1000 * m + int(100 * p)
            oracle = np.packbits(np.random.default_rng(seed).random((n, n)) < p, axis=1)
            # one strip, strips of 3 rows (not dividing n), strips of one row
            for strip_bits, workers in ((None, 1), (3 * n, 3), (1, 3), (3 * n, 1)):
                with many_strips(strip_bits, workers):
                    packed = sample_matrix(m, p, seed).packed_rows
                assert np.array_equal(packed, oracle), (m, p, strip_bits, workers)


def test_sample_matrix_validation():
    with pytest.raises(ValueError):
        sample_matrix(0, 0.5, seed=0)
    with pytest.raises(ValueError):
        sample_matrix(2, 1.5, seed=0)


def test_memory_cap_enforced(monkeypatch):
    assert memory_cap() == DEFAULT_MAX_M
    with pytest.raises(MemoryCapExceeded):
        sample_matrix(DEFAULT_MAX_M + 1, 0.5, seed=0)
    monkeypatch.setenv(MAX_M_ENV_VAR, "4")
    assert memory_cap() == 4
    with pytest.raises(MemoryCapExceeded):
        sample_matrix(5, 0.5, seed=0)
    sample_matrix(4, 0.5, seed=0)
    monkeypatch.setenv(MAX_M_ENV_VAR, "zero")
    with pytest.raises(ValueError):
        memory_cap()
    monkeypatch.setenv(MAX_M_ENV_VAR, "0")
    with pytest.raises(ValueError):
        memory_cap()


# ----------------------------------------------------------------------
# Block property check
# ----------------------------------------------------------------------


def block_check_oracle(dense, g):
    """Direct nested-loop reading of the definition."""
    n = dense.shape[0]
    width = 1 << g
    failures = []
    for x in range(n):
        for k in range(n // width):
            if dense[x, k * width : (k + 1) * width].all():
                failures.append(("row", x + 1, k))
    for k in range(n // width):
        for x in range(n):
            if dense[k * width : (k + 1) * width, x].all():
                failures.append(("col", x + 1, k))
    return failures


def test_block_check_trivial_cases():
    # with the default strips and with many strips, each listing its own
    # failures before the merge cuts the list
    for strip_bits in (None, 100):
        for n in (8, 64):
            good = ChannelMatrix.from_dense(np.zeros((n, n), dtype=np.uint8))
            bad = np.ones((n, n), dtype=np.uint8)
            for g in (1, 2, 3):
                with many_strips(strip_bits):
                    assert check_block_goodness(good, g).passed
                    result = check_block_goodness(ChannelMatrix.from_dense(bad), g)
                oracle = block_check_oracle(bad, g)
                assert not result.passed
                assert result.failure_count == len(oracle) == 2 * n * (n >> g)
                # at n = 64, g = 1 that is 4096 failures, so only a prefix is kept
                assert result.failures == tuple(oracle[:_LISTED_FAILURES])


def test_block_check_strips_hold_only_their_listed_failures(monkeypatch):
    # each strip's result must own its few positions: a view of the strip's
    # whole nonzero result would keep that alive until the merge
    kept = []
    strips = chmod._strips

    def recording(n, fn, align=1):
        results = strips(n, fn, align)
        kept.extend(results)
        return results

    monkeypatch.setattr(chmod, "_strips", recording)
    monkeypatch.setattr(chmod, "_LISTED_FAILURES", 10)
    bad = np.ones((128, 128), dtype=np.uint8)
    for strip_bits in (None, 1000):
        with many_strips(strip_bits):
            result = check_block_goodness(ChannelMatrix.from_dense(bad), 1)
        assert result.failure_count == 2 * 128 * 64
        assert result.failures == tuple(block_check_oracle(bad, 1)[:10])
    assert len(kept) > 40
    for count, positions in kept:
        assert count > 10 and len(positions) == 10 and positions.base is None


def test_block_check_pinpoints_failure():
    dense = np.zeros((4, 4), dtype=np.uint8)
    dense[1, 2:4] = 1
    result = check_block_goodness(ChannelMatrix.from_dense(dense), 1)
    assert not result.passed
    assert result.failures == (("row", 2, 1),)


def test_block_check_checkerboard_passes():
    dense = np.fromfunction(lambda i, j: (i + j) % 2, (4, 4)).astype(np.uint8)
    assert check_block_goodness(ChannelMatrix.from_dense(dense), 1).passed


def test_block_check_validation():
    mat = dense_matrix([[0, 1], [1, 0]])
    for g in (0, 2):
        with pytest.raises(ValueError):
            check_block_goodness(mat, g)


@given(
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.sampled_from([0.0, 0.7, 0.9, 1.0]),
    st.sampled_from(STRIP_BITS),
)
@settings(max_examples=80, deadline=None)
def test_block_check_matches_oracle(m, seed, g, p, strip_bits):
    g = min(g, m)
    dense = (np.random.default_rng(seed).random((1 << m, 1 << m)) < p).astype(np.uint8)
    with many_strips(strip_bits):
        result = check_block_goodness(ChannelMatrix.from_dense(dense), g)
    oracle = block_check_oracle(dense, g)
    assert result.failure_count == len(oracle)
    assert result.failures == tuple(oracle[:_LISTED_FAILURES])
    assert result.passed == (not oracle)


# ----------------------------------------------------------------------
# Good-entry pattern
# ----------------------------------------------------------------------


def test_good_product_matches_cached_pattern():
    # m = 1 and 2 have padding bits (n % 8 != 0); x is a vector or has 1, 2
    # or 18 columns; the pattern is cached only after the streamed products
    rng = np.random.default_rng(7)
    matrices = [sample_matrix(m, 0.3 + 0.06 * m, seed=m) for m in range(1, 11)]
    matrices += [ChannelMatrix.from_dense(np.full((4, 4), b, np.uint8)) for b in (0, 1)]
    for matrix in matrices:
        n = matrix.n
        xs = [rng.random(n)] + [rng.random((n, k)) for k in (1, 2, 18)]
        streamed = []
        for strip_bits in STRIP_BITS:
            for workers in (1, 3):
                with many_strips(strip_bits, workers):
                    streamed.append([matrix.good_product(x) for x in xs])
        assert "good" not in matrix.__dict__
        expected = [matrix.good @ x for x in xs]
        for products in streamed:
            for product, want in zip(products, expected):
                assert product.shape == want.shape and np.array_equal(product, want)


# ----------------------------------------------------------------------
# First-good table
# ----------------------------------------------------------------------


@given(
    st.integers(1, 7),
    st.integers(1, 7),
    st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(STRIP_BITS),
)
@settings(max_examples=80, deadline=None)
def test_first_good_matches_dense_oracle(m, g, p, seed, strip_bits):
    g = min(g, m)
    dense = (np.random.default_rng(seed).random((1 << m, 1 << m)) < p).astype(np.uint8)
    matrix = ChannelMatrix.from_dense(dense)
    with many_strips(strip_bits):
        tables = [first_good(matrix, g, axis) for axis in ("row", "col")]
        passed = check_block_goodness(matrix, g).passed
    for axis, table in zip(("row", "col"), tables):
        assert table.dtype == np.uint16
        assert table.shape == (1 << m, 1 << (m - g))
        assert np.array_equal(table, first_good_oracle(dense, g, axis))
    # the block check passes exactly when neither table has a 0
    assert passed == all(t.all() for t in tables)


def test_first_good_m13_bands():
    # n = 8192: the column walk runs over many strips, with several bands per
    # strip at g <= 3, one band per strip and several stop tests per band at
    # g = 8 and 12, and the whole matrix as one band at g = 13. Column 5 is
    # good only in the last row, the last row of every g's last band, and
    # column n - 3 is all bad. Rows are read as byte tables at g = 3 and as
    # whole bytes at g = 8.
    dense = sample_matrix(13, 0.97, seed=13).to_dense()
    n = dense.shape[0]
    dense[:, 5] = 1
    dense[n - 1, 5] = 0
    dense[:, n - 3] = 1
    matrix = ChannelMatrix.from_dense(dense)
    for g in (1, 3, 8, 12, 13):
        width, bands = 1 << g, n >> g
        cols = first_good(matrix, g, "col")
        assert cols[5, bands - 1] == width and not cols[n - 3].any()
        tables = {"col": cols}
        if g in (3, 8):
            tables["row"] = first_good(matrix, g, "row")
        for axis, table in tables.items():
            assert table.dtype == np.uint16 and table.shape == (n, bands)
            assert np.array_equal(table, first_good_oracle(dense, g, axis))


def test_first_good_validation():
    matrix = dense_matrix([[0, 1], [1, 0]])
    for g in (0, 2):
        with pytest.raises(ValueError):
            first_good(matrix, g, "row")
    with pytest.raises(ValueError):
        first_good(matrix, 1, "diagonal")


# ----------------------------------------------------------------------
# Density estimation
# ----------------------------------------------------------------------


def test_density_all_bad_never_violates():
    mat = ChannelMatrix.from_dense(np.ones((8, 8), dtype=np.uint8))
    report = estimate_bad_density(mat, f=4, epsilon=0.2, trials=20, seed=0)
    assert report.violations == 0
    assert report.min_bad_fraction_observed == 1.0
    assert report.trials == 20
    assert report.submatrix_size_used == 4


def test_density_all_good_always_violates():
    mat = ChannelMatrix.from_dense(np.zeros((8, 8), dtype=np.uint8))
    report = estimate_bad_density(mat, f=4, epsilon=0.2, trials=20, seed=0)
    assert report.violations == 20
    assert report.min_bad_fraction_observed == 0.0


def test_density_threshold_is_strict():
    # exactly 1 - epsilon bad must count as a violation
    dense = np.ones((2, 2), dtype=np.uint8)
    dense[0, 0] = 0
    mat = ChannelMatrix.from_dense(dense)
    report = estimate_bad_density(mat, f=2, epsilon=0.25, trials=5, seed=0)
    assert report.violations == 5
    assert report.min_bad_fraction_observed == 0.75


def test_density_validation():
    mat = dense_matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        estimate_bad_density(mat, 3, 0.5, 4, 0)
    with pytest.raises(ValueError):
        estimate_bad_density(mat, 2, 0.0, 4, 0)
    with pytest.raises(ValueError):
        estimate_bad_density(mat, 2, 0.5, 0, 0)


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------


def test_construct_channel_reproducible_and_indexed():
    params = ConstructionParams(m=3, p=0.6, epsilon=0.3, f_of_m=4, g_of_m=2, seed=1)
    ch = construct_channel(params)
    assert ch.block_property_verified
    assert ch.construction_attempts >= 1
    # attempt i uses seed + i
    expected = sample_matrix(3, 0.6, params.seed + ch.construction_attempts - 1)
    assert ch.matrix == expected
    again = construct_channel(params)
    assert again.matrix == ch.matrix
    assert again.construction_attempts == ch.construction_attempts


def test_construct_channel_attaches_density_report():
    params = ConstructionParams(m=3, p=0.5, epsilon=0.4, f_of_m=4, g_of_m=3, seed=0)
    ch = construct_channel(params, density_trials=17)
    assert ch.density_report is not None
    assert ch.density_report.trials == 17
    bare = construct_channel(params, density_trials=0)
    assert bare.density_report is None
    with pytest.raises(ValueError, match="density_trials"):
        construct_channel(params, density_trials=-3)


def test_construct_channel_exhaustion():
    params = ConstructionParams(m=2, p=1.0, epsilon=0.5, f_of_m=4, g_of_m=1, seed=0)
    with pytest.raises(ConstructionExhausted) as err:
        construct_channel(params, max_attempts=3)
    assert "3 attempts" in str(err.value)
    assert "2^" in str(err.value)
    with pytest.raises(ValueError):
        construct_channel(params, max_attempts=0)


def test_channel_from_matrix_verifies_honestly():
    goodmat = ChannelMatrix.from_dense(np.zeros((4, 4), dtype=np.uint8))
    assert channel_from_matrix(goodmat, g=1).block_property_verified
    badmat = ChannelMatrix.from_dense(np.ones((4, 4), dtype=np.uint8))
    assert not channel_from_matrix(badmat, g=1).block_property_verified
    assert not channel_from_matrix(goodmat, g=1, verify=False).block_property_verified


def test_channel_m_mismatch_rejected():
    mat = dense_matrix([[0, 1], [1, 0]])
    params = ConstructionParams(m=2, p=0.5, epsilon=0.5, f_of_m=4, g_of_m=1, seed=0)
    with pytest.raises(ValueError):
        Channel(matrix=mat, params=params, block_property_verified=False)


def test_channel_apply():
    ch = channel_from_matrix(dense_matrix([[0, 1], [1, 0]]), g=1)
    assert channel_apply(ch, 1, 1) == (1, 1)
    assert channel_apply(ch, 1, 2) == ERASURE
    assert channel_apply(ch, 2, 1) == ERASURE
    assert channel_apply(ch, 2, 2) == (2, 2)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------


def roundtrip(tmp_path, channel, binary):
    path = tmp_path / ("b.maccf" if binary else "t.maccf")
    serialize_channel(channel, path, binary=binary)
    return path, deserialize_channel(path)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("binary", [False, True])
def test_serialize_round_trip(tmp_path, m, binary):
    params = ConstructionParams(
        m=m, p=0.4, epsilon=0.3, f_of_m=min(4, 1 << m), g_of_m=1, seed=13
    )
    channel = Channel(
        matrix=sample_matrix(m, 0.4, 13), params=params, block_property_verified=False
    )
    _, loaded = roundtrip(tmp_path, channel, binary)
    assert loaded.matrix == channel.matrix
    assert loaded.params == channel.params


def test_text_format_shape(tmp_path):
    ch = channel_from_matrix(dense_matrix([[0, 1], [1, 0]]), g=1, p=0.25, epsilon=0.5)
    path = tmp_path / "c.maccf"
    serialize_channel(ch, path)
    lines = path.read_bytes().split(b"\n")
    assert lines[0].startswith(b"MACCF 1 m=1 p=0.25 eps=0.5 ")
    assert lines[1:] == [b"01", b"10", b""]


def test_text_missing_final_newline_accepted(tmp_path):
    ch = channel_from_matrix(dense_matrix([[0, 1], [1, 0]]), g=1)
    path = tmp_path / "c.maccf"
    serialize_channel(ch, path)
    data = path.read_bytes()
    assert data.endswith(b"\n")
    path.write_bytes(data[:-1])
    assert deserialize_channel(path).matrix == ch.matrix


def test_deserialize_reverifies_block_property(tmp_path):
    badmat = ChannelMatrix.from_dense(np.ones((4, 4), dtype=np.uint8))
    ch = channel_from_matrix(badmat, g=1, verify=False)
    path = tmp_path / "bad.maccf"
    serialize_channel(ch, path)
    assert not deserialize_channel(path).block_property_verified
    assert not deserialize_channel(path, verify=False).block_property_verified
    goodmat = ChannelMatrix.from_dense(np.zeros((4, 4), dtype=np.uint8))
    path2 = tmp_path / "good.maccf"
    serialize_channel(channel_from_matrix(goodmat, g=1, verify=False), path2)
    assert deserialize_channel(path2).block_property_verified


def write_variant(tmp_path, text, body=b""):
    path = tmp_path / "x.maccf"
    path.write_bytes(text.encode() + body)
    return path


def test_deserialize_header_errors(tmp_path):
    cases = [
        ("", None),  # no newline at all
        ("MACCX 1 m=1 p=0.5 eps=0.5 f=2 g=1 seed=0\n", 0),
        ("MACCF 9 m=1 p=0.5 eps=0.5 f=2 g=1 seed=0\n", 6),
        ("MACCF 1 m=1 p=0.5 eps=0.5 f=2 g=1\n", 0),  # token count
        ("MACCF 1 q=1 p=0.5 eps=0.5 f=2 g=1 seed=0\n", 8),
        ("MACCF 1 m=one p=0.5 eps=0.5 f=2 g=1 seed=0\n", 10),
        ("MACCF 1 m=2 p=0.5 eps=0.5 f=2 g=3 seed=0\n", 0),  # g > m
        # forms int() and float() read but the format does not define
        ("MACCF 1 m=0_1 p=0.5 eps=0.5 f=2 g=1 seed=0\n", 10),
        ("MACCF 1 m=+1 p=0.5 eps=0.5 f=2 g=1 seed=0\n", 10),
        ("MACCF 1 m=-1 p=0.5 eps=0.5 f=2 g=1 seed=0\n", 10),
        ("MACCF 1 m=1 p=5_0e-2 eps=0.5 f=2 g=1 seed=0\n", 14),
        ("MACCF 1 m=1 p=+0.5 eps=0.5 f=2 g=1 seed=0\n", 14),
        ("MACCF 1 m=1 p=0.5 eps=0.5\t f=2 g=1 seed=0\n", 22),
        ("MACCF 1 m=1 p=0.5 eps=0.5 f=2 g=1 seed=0_0\n", 39),
    ]
    for text, offset in cases:
        # a valid m = 1 text body, so a header error is the only error
        path = write_variant(tmp_path, text, b"01\n10\n" if text else b"")
        with pytest.raises(ChannelFormatError) as err:
            deserialize_channel(path)
        if offset is not None:
            assert err.value.offset == offset, text


def test_serialized_headers_read_back(tmp_path):
    # repr floats with exponents, trailing ".0" and many digits
    matrix = dense_matrix([[0, 1], [1, 0]])
    for p, eps in ((1e-05, 0.05), (1.0, 0.5), (0.0, 1e-300), (0.975, 0.1 + 0.2)):
        channel = channel_from_matrix(matrix, g=1, p=p, epsilon=eps, seed=2**64 - 1)
        for binary in (False, True):
            _, loaded = roundtrip(tmp_path, channel, binary)
            assert loaded.params == channel.params


def test_deserialize_body_errors(tmp_path):
    header = "MACCF 1 m=1 p=0.5 eps=0.5 f=2 g=1 seed=0\n"
    with pytest.raises(ChannelFormatError, match="expected"):
        deserialize_channel(write_variant(tmp_path, header, b"01\n10\n99"))
    with pytest.raises(ChannelFormatError, match="0/1"):
        deserialize_channel(write_variant(tmp_path, header, b"0x\n10\n"))
    with pytest.raises(ChannelFormatError, match="newline"):
        deserialize_channel(write_variant(tmp_path, header, b"01010\n"))
    bad = write_variant(tmp_path, header, b"0a\n10\n")
    with pytest.raises(ChannelFormatError) as err:
        deserialize_channel(bad)
    assert err.value.offset == len(header) + 1


def text_body_error_oracle(body: bytes, n: int, body_start: int):
    """Row-by-row reading of a text body: the error deserialize_channel must
    raise for it (the first bad byte in file order), or None if valid."""
    text = np.frombuffer(body, dtype=np.uint8)
    for i in range(n):
        line_start = i * (n + 1)
        line = text[line_start : line_start + n]
        bad = np.nonzero((line != ord("0")) & (line != ord("1")))[0]
        if len(line) < n or bad.size:
            bad_at = int(bad[0]) if bad.size else len(line)
            return ChannelFormatError(
                f"row {i + 1} is not {n} characters of 0/1",
                offset=body_start + line_start + bad_at,
            )
        if line_start + n < len(text) and text[line_start + n] != ord("\n"):
            return ChannelFormatError(
                f"row {i + 1} not terminated by newline",
                offset=body_start + line_start + n,
            )
    return None


@given(
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.lists(
        st.tuples(
            st.sampled_from(["char", "newline", "last row"]),
            st.integers(0, 7),
            st.integers(0, 7),
            st.one_of(st.sampled_from(b"/012\n\r"), st.integers(0, 255)),
        ),
        min_size=1,
        max_size=3,
    ),
    # the body is read in one strip, in strips of 3 rows or in single rows
    st.sampled_from([None, 12, 1]),
)
@settings(max_examples=200, deadline=None)
def test_text_body_errors_match_oracle(m, seed, final_newline, corruptions, strip_bits):
    import tempfile

    n = 1 << m
    dense = random_dense(np.random.default_rng(seed), m)
    body = bytearray(b"".join(bytes(row + ord("0")) + b"\n" for row in dense))
    if not final_newline:
        del body[-1]
    for kind, row, col, value in corruptions:
        row = n - 1 if kind == "last row" else row % n
        col = n if kind == "newline" else col % n
        body[min(row * (n + 1) + col, len(body) - 1)] = value
    header = f"MACCF 1 m={m} p=0.5 eps=0.5 f=1 g=1 seed=0\n".encode()
    expected = text_body_error_oracle(bytes(body), n, len(header))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/c.maccf"
        with open(path, "wb") as fh:
            fh.write(header + body)
        if expected is None:
            rows = [list(row) for row in bytes(body).split(b"\n")[:n]]
            with many_strips(strip_bits):
                loaded = deserialize_channel(path, verify=False).matrix.to_dense()
            assert np.array_equal(loaded, np.array(rows) - ord("0"))
            return
        with many_strips(strip_bits), pytest.raises(ChannelFormatError) as err:
            deserialize_channel(path, verify=False)
    assert str(err.value) == str(expected)
    assert err.value.offset == expected.offset


def test_deserialize_file_edges_keep_messages(tmp_path):
    header = "MACCF 1 m=1 p=0.5 eps=0.5 f=2 g=1 seed=0\n"
    lengths = "expected 1 (binary) or 6 / 5 (text)"
    cases = [
        ("MACCF 1 m=1 p=0.5", b"", "missing header line (byte offset 17)"),
        (header[:-1], b" 0110", "missing header line (byte offset 45)"),
        (header, b"01\n1", f"body has 4 bytes; {lengths} (byte offset 41)"),
        (header, b"01\n10\n\n", f"body has 7 bytes; {lengths} (byte offset 41)"),
        (header, b"", f"body has 0 bytes; {lengths} (byte offset 41)"),
        # a full-length body whose last byte is not the optional newline
        (header, b"01\n10x", "row 2 not terminated by newline (byte offset 46)"),
    ]
    for text, body, message in cases:
        with pytest.raises(ChannelFormatError) as err:
            deserialize_channel(write_variant(tmp_path, text, body))
        assert str(err.value) == message, (text, body)
    # a file that shrinks after its length was checked
    path = write_variant(tmp_path, header, b"01\n10\n")
    with open(path, "rb") as fh:
        with pytest.raises(ChannelFormatError, match="file ended while being read") as err:
            chmod._read_at(fh, len(header), np.empty(8, dtype=np.uint8))
    assert err.value.offset == len(header) + 6


def through_fifo(path, reader=None, writer=None, data=b""):
    """Make a FIFO at path and run reader(path) or writer(path) on it while a
    second thread feeds it data or drains it; return (result, drained bytes)."""
    import threading

    os.mkfifo(path)
    drained = []

    def other_end():
        if reader is not None:
            with open(path, "wb") as fh:
                fh.write(data)
        else:
            with open(path, "rb") as fh:
                drained.append(fh.read())

    thread = threading.Thread(target=other_end, daemon=True)
    thread.start()
    try:
        result = reader(path) if reader is not None else writer(path)
    finally:
        thread.join(timeout=60)
    assert not thread.is_alive()
    return result, b"".join(drained)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX FIFOs")
@pytest.mark.parametrize("binary", [False, True])
def test_io_through_fifo(tmp_path, binary):
    # a pipe has no length and no offsets: the writer goes front to back and
    # the reader takes the body whole, with the same checks and messages
    m = 6
    params = ConstructionParams(m=m, p=0.4, epsilon=0.3, f_of_m=1, g_of_m=1, seed=5)
    channel = Channel(
        matrix=sample_matrix(m, 0.4, 5), params=params, block_property_verified=False
    )
    expected = maccf_bytes_oracle(channel, binary)
    with many_strips():
        _, written = through_fifo(
            tmp_path / "w.fifo",
            writer=lambda path: serialize_channel(channel, path, binary=binary),
        )
        assert written == expected
        loaded, _ = through_fifo(
            tmp_path / "r.fifo",
            reader=lambda path: deserialize_channel(path, verify=False),
            data=expected,
        )
        assert loaded.matrix == channel.matrix and loaded.params == params
        with pytest.raises(ChannelFormatError) as err:
            through_fifo(tmp_path / "e.fifo", reader=deserialize_channel, data=expected[:-2])
    size = len(expected) - 2 - (expected.index(b"\n") + 1)
    assert str(err.value).startswith(f"body has {size} bytes;")


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_writes_match_whole_matrix_oracle(tmp_path, m):
    params = ConstructionParams(m=m, p=0.4, epsilon=0.3, f_of_m=1, g_of_m=1, seed=13)
    channel = Channel(
        matrix=sample_matrix(m, 0.4, 13), params=params, block_property_verified=False
    )
    for binary in (False, True):
        expected = maccf_bytes_oracle(channel, binary)
        for strip_bits in STRIP_BITS:
            path = tmp_path / f"{binary}-{strip_bits}.maccf"
            path.write_bytes(b"x" * (2 * len(expected)))  # a longer file is replaced
            with many_strips(strip_bits):
                serialize_channel(channel, path, binary=binary)
            assert path.read_bytes() == expected


def test_text_io_holds_strips_not_the_file(tmp_path):
    import tracemalloc

    m = 11  # a 4.2 MB text body; 0.5 MB of packed rows
    params = ConstructionParams(m=m, p=0.5, epsilon=0.5, f_of_m=1, g_of_m=1, seed=11)
    channel = Channel(
        matrix=sample_matrix(m, 0.5, 11), params=params, block_property_verified=False
    )
    path = tmp_path / "c.maccf"
    limit = channel.matrix.packed_rows.nbytes + (2 << 20)  # two threads' strips
    peaks = {}
    with many_strips(None, workers=2):
        for step in ("write", "read"):
            tracemalloc.start()
            try:
                if step == "write":
                    serialize_channel(channel, path)
                else:
                    loaded = deserialize_channel(path, verify=False)
                peaks[step] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert path.stat().st_size > 4 << 20 and loaded.matrix == channel.matrix
    assert max(peaks.values()) < limit, peaks


def test_deserialize_binary_exact_length(tmp_path):
    header = "MACCF 1 m=1 p=0.5 eps=0.5 f=2 g=1 seed=0\n"
    # 4 bits pack into 1 byte: 0b0110 -> matrix [[0,1],[1,0]]
    path = write_variant(tmp_path, header, bytes([0b01100000]))
    ch = deserialize_channel(path)
    assert np.array_equal(ch.matrix.to_dense(), [[0, 1], [1, 0]])


@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=25, deadline=None)
def test_serialize_round_trip_property(m, seed, binary):
    import tempfile

    params = ConstructionParams(
        m=m, p=0.5, epsilon=0.5, f_of_m=1, g_of_m=1, seed=seed % (1 << 63)
    )
    channel = Channel(
        matrix=sample_matrix(m, 0.5, seed), params=params, block_property_verified=False
    )
    with tempfile.NamedTemporaryFile(suffix=".maccf") as fh:
        serialize_channel(channel, fh.name, binary=binary)
        loaded = deserialize_channel(fh.name)
    assert loaded.matrix == channel.matrix
    assert loaded.params == channel.params
