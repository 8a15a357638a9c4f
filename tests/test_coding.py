import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopcap import (
    CfCode,
    ConstructionParams,
    construct_channel,
    monte_carlo_error,
    verify_zero_error,
)
from coopcap.channel import ERASURE, ChannelMatrix, channel_from_matrix
from coopcap.coding import (
    IeCode,
    Orientation,
    build_ie_code,
    cf_decode,
    cf_encode,
    facilitator_output,
    ie_decode,
    ie_encode,
)
from coopcap.errors import InvariantViolation
from oracles import (
    channel_apply,
    facilitator_oracle,
    monte_carlo_error_oracle,
    verify_zero_error_oracle,
)


def checkerboard_channel(m=2, g=1):
    n = 1 << m
    dense = np.fromfunction(lambda i, j: (i + j) % 2, (n, n)).astype(np.uint8)
    return channel_from_matrix(ChannelMatrix.from_dense(dense), g=g)


def forced_good_channel(m, g, seed):
    """Random matrix with one entry per aligned block forced good."""
    rng = np.random.default_rng(seed)
    n = 1 << m
    width = 1 << g
    dense = (rng.random((n, n)) < 0.9).astype(np.uint8)
    for x in range(n):
        for k in range(n // width):
            dense[x, k * width + int(rng.integers(width))] = 0
            dense[k * width + int(rng.integers(width)), x] = 0
    return channel_from_matrix(ChannelMatrix.from_dense(dense), g=g)


def test_orientation_parse():
    assert Orientation.parse("r1") is Orientation.R1_FULL
    assert Orientation.parse("R1_full") is Orientation.R1_FULL
    assert Orientation.parse("r2_FULL") is Orientation.R2_FULL
    assert Orientation.parse(Orientation.R2_FULL) is Orientation.R2_FULL
    with pytest.raises(ValueError):
        Orientation.parse("r3")


def test_cf_code_sizes_and_rate():
    code = CfCode(checkerboard_channel(), "r1")
    assert code.m == 2
    assert code.g == 1
    assert code.message_space_sizes == (4, 2)
    assert code.sum_rate == 3.0
    flipped = CfCode(checkerboard_channel(), "r2")
    assert flipped.message_space_sizes == (2, 4)
    assert flipped.sum_rate == 3.0


def test_cf_code_requires_verified_channel():
    bad = channel_from_matrix(
        ChannelMatrix.from_dense(np.ones((4, 4), dtype=np.uint8)), g=1, verify=False
    )
    with pytest.raises(ValueError):
        CfCode(bad, "r1")


def test_facilitator_picks_first_good_entry():
    code = CfCode(checkerboard_channel(), "r1")
    # row 1 = 0101..., blocks (0,1) (0,1): good index within block
    assert facilitator_output(code, 1, 1) == 1
    assert facilitator_output(code, 1, 2) == 1
    assert facilitator_output(code, 2, 1) == 2
    assert facilitator_output(code, 2, 2) == 2
    for pair in [(0, 1), (5, 1), (1, 0), (1, 3)]:
        with pytest.raises(ValueError):
            facilitator_output(code, *pair)


def test_facilitator_raises_on_all_bad_block():
    dense = np.zeros((4, 4), dtype=np.uint8)
    dense[0, 0:2] = 1
    ch = channel_from_matrix(ChannelMatrix.from_dense(dense), g=1, verify=False)
    object.__setattr__(ch, "block_property_verified", True)
    code = CfCode(ch, "r1")
    with pytest.raises(InvariantViolation):
        facilitator_output(code, 1, 1)
    assert facilitator_output(code, 1, 2) == 1
    with pytest.raises(InvariantViolation, match=r"\(1, 1\)"):
        facilitator_output(code, np.array([1, 2, 1]), np.array([2, 1, 1]))
    with pytest.raises(InvariantViolation):
        verify_zero_error(code)
    with pytest.raises(InvariantViolation):
        monte_carlo_error(code, trials=100, seed=0)
    # the column orientation reads the column blocks, which are all good
    assert verify_zero_error(CfCode(ch, "r2")).failures == 0


def test_facilitator_arrays_match_scalar_calls():
    code = CfCode(forced_good_channel(4, 2, seed=5), "r2")
    s1, s2 = code.message_space_sizes
    w1, w2 = np.indices((s1, s2)) + 1
    z = facilitator_output(code, w1, w2)
    assert z.dtype == np.int64 and z.shape == (s1, s2)
    expected = [[facilitator_oracle(code, a, b) for b in range(1, s2 + 1)] for a in range(1, s1 + 1)]
    assert z.tolist() == expected
    assert facilitator_output(code, w1[:, :1], 3).tolist() == [[row[2]] for row in expected]
    with pytest.raises(ValueError, match=r"\(5, 2\) outside 4 x 16"):
        facilitator_output(code, np.array([1, 5]), np.array([1, 2]))


def test_encoders_and_decoders_accept_arrays():
    code = CfCode(checkerboard_channel(), "r2")
    w1, w2 = np.array([1, 2, 2]), np.array([3, 1, 4])
    x1, x2 = cf_encode(code, w1, w2)
    assert [cf_encode(code, int(a), int(b)) for a, b in zip(w1, w2)] == list(zip(x1, x2))
    d1, d2 = cf_decode(code, (x1, x2))
    assert np.array_equal(d1, w1) and np.array_equal(d2, w2)
    with pytest.raises(ValueError, match="got 3"):
        cf_encode(code, w1, w2, z=np.array([1, 3, 2]))
    ie = build_ie_code(checkerboard_channel(), 2)
    x1, x2 = ie_encode(ie, np.array([2, 1]))
    assert x1 == 1 and x2.tolist() == [3, 1]
    assert ie_decode(ie, (1, np.array([3, 1, 2, 4]))).tolist() == [2, 1, 0, 0]
    with pytest.raises(ValueError, match="message 3 outside"):
        ie_encode(ie, np.array([1, 3]))
    empty = IeCode(ie.channel, 2, ())
    assert ie_decode(empty, (1, 1)) is None
    assert ie_decode(empty, (1, np.array([1, 2]))).tolist() == [0, 0]


def test_cf_encode_decode_inverse():
    code = CfCode(checkerboard_channel(), "r1")
    full, reduced = code.message_space_sizes
    for w1 in range(1, full + 1):
        for w2 in range(1, reduced + 1):
            x1, x2 = cf_encode(code, w1, w2)
            assert x1 == w1
            y = channel_apply(code.channel, x1, x2)
            assert y != ERASURE
            assert cf_decode(code, y) == (w1, w2)


def test_cf_encode_explicit_z_range():
    code = CfCode(checkerboard_channel(), "r1")
    cf_encode(code, 1, 1, z=2)
    for z in (0, 3):
        with pytest.raises(ValueError):
            cf_encode(code, 1, 1, z=z)


def test_cf_decode_erasure_is_none():
    code = CfCode(checkerboard_channel(), "r1")
    assert cf_decode(code, ERASURE) is None
    assert cf_decode(code, ("E", "E")) is None


def test_verify_zero_error_checkerboard():
    for orientation in ("r1", "r2"):
        code = CfCode(checkerboard_channel(), orientation)
        report = verify_zero_error(code)
        assert report.pairs_checked == 8
        assert report.failures == 0


def stuck_helper(code, w1, w2):
    return 1


def test_verify_zero_error_counts_bad_facilitator():
    code = CfCode(checkerboard_channel(), "r1")
    report = verify_zero_error(code, facilitator=stuck_helper)
    assert report.pairs_checked == 8
    # z=1 is wrong for the 4 pairs whose row needs z=2
    assert report.failures == 4


def test_monte_carlo_cf():
    code = CfCode(checkerboard_channel(), "r1")
    assert monte_carlo_error(code, trials=500, seed=1) == 0.0
    corrupted = monte_carlo_error(code, trials=100_000, seed=3, facilitator=stuck_helper)
    assert abs(corrupted - 0.5) < 0.01
    with pytest.raises(ValueError):
        monte_carlo_error(code, trials=0, seed=0)
    with pytest.raises(TypeError):
        monte_carlo_error("nope", trials=10, seed=0)


def test_monte_carlo_reproducible():
    code = CfCode(checkerboard_channel(), "r1")
    a = monte_carlo_error(code, trials=1000, seed=7, facilitator=stuck_helper)
    b = monte_carlo_error(code, trials=1000, seed=7, facilitator=stuck_helper)
    assert a == b


# ----------------------------------------------------------------------
# Single-user fallback code
# ----------------------------------------------------------------------


def test_ie_codebook_checkerboard():
    ch = checkerboard_channel()
    for user in (1, 2):
        code = build_ie_code(ch, user)
        assert isinstance(code, IeCode)
        assert code.active_user == user
        # column/row 1 is 0101...: first good entry per block -> 1, 3
        assert code.codebook == (1, 3)
        assert code.message_count == 2
        assert code.sum_rate == 1.0


def test_ie_encode_decode():
    ch = checkerboard_channel()
    code1 = build_ie_code(ch, 1)
    assert [ie_encode(code1, w) for w in (1, 2)] == [(1, 1), (3, 1)]
    code2 = build_ie_code(ch, 2)
    assert [ie_encode(code2, w) for w in (1, 2)] == [(1, 1), (1, 3)]
    for code in (code1, code2):
        for w in range(1, code.message_count + 1):
            y = channel_apply(ch, *ie_encode(code, w))
            assert ie_decode(code, y) == w


def test_ie_decode_rejects_noise():
    code = build_ie_code(checkerboard_channel(), 1)
    assert ie_decode(code, ERASURE) is None
    assert ie_decode(code, (2, 1)) is None  # not in codebook


def test_ie_encode_range():
    code = build_ie_code(checkerboard_channel(), 1)
    for w in (0, 3):
        with pytest.raises(ValueError):
            ie_encode(code, w)


def test_build_ie_code_validation():
    ch = checkerboard_channel()
    with pytest.raises(ValueError):
        build_ie_code(ch, 3)
    dense = np.zeros((4, 4), dtype=np.uint8)
    dense[0:2, 0] = 1  # first column block all bad
    broken = channel_from_matrix(ChannelMatrix.from_dense(dense), g=1, verify=False)
    object.__setattr__(broken, "block_property_verified", True)
    with pytest.raises(InvariantViolation):
        build_ie_code(broken, 1)


def test_monte_carlo_ie_zero():
    code = build_ie_code(checkerboard_channel(), 2)
    assert monte_carlo_error(code, trials=200, seed=0) == 0.0


# ----------------------------------------------------------------------
# Property: block property really gives zero error
# ----------------------------------------------------------------------


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_zero_error_property(m, g, seed):
    g = min(g, m)
    ch = forced_good_channel(m, g, seed)
    assert ch.block_property_verified
    for orientation in ("r1", "r2"):
        report = verify_zero_error(CfCode(ch, orientation))
        assert report.failures == 0
        assert report.pairs_checked == (1 << m) * (1 << (m - g))
    for user in (1, 2):
        code = build_ie_code(ch, user)
        assert code.message_count == 1 << (m - g)
        assert monte_carlo_error(code, trials=64, seed=seed) == 0.0


# ----------------------------------------------------------------------
# Array paths against the scalar loops they replaced
# ----------------------------------------------------------------------


def random_helper(seed, m, g):
    """A helper that returns a random z array, fixed per message pair."""
    table = np.random.default_rng(seed).integers(1, (1 << g) + 1, size=(1 << m, 1 << m))
    return lambda code, w1, w2: table[w1 - 1, w2 - 1]


def outcome(fn, *args, **kwargs):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except (InvariantViolation, ValueError) as exc:
        return type(exc)


@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.booleans(),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_array_paths_match_scalar_oracles(m, g, forced, seed):
    g = min(g, m)
    if forced:  # the block property, forced block by block
        ch = forced_good_channel(m, g, seed)
    else:  # mostly bad, so some blocks are all bad; marked verified anyway
        dense = (np.random.default_rng(seed).random((1 << m, 1 << m)) < 0.8).astype(np.uint8)
        ch = channel_from_matrix(ChannelMatrix.from_dense(dense), g=g, verify=False)
        object.__setattr__(ch, "block_property_verified", True)
    for orientation in ("r1", "r2"):
        code = CfCode(ch, orientation)
        for helper in (None, stuck_helper, random_helper(seed, m, g)):
            report = outcome(verify_zero_error, code, facilitator=helper)
            oracle = outcome(verify_zero_error_oracle, code, facilitator=helper)
            if isinstance(oracle, tuple):
                assert (report.pairs_checked, report.failures) == oracle
            else:
                assert report is oracle
            for trials in (1, 37):
                assert outcome(monte_carlo_error, code, trials, seed, helper) == outcome(
                    monte_carlo_error_oracle, code, trials, seed, helper
                )
    for user in (1, 2):
        ie = outcome(build_ie_code, ch, user)
        if ie is InvariantViolation:
            continue
        assert monte_carlo_error(ie, 50, seed) == monte_carlo_error_oracle(ie, 50, seed)
        # a hand-made codebook with entries outside their blocks decodes badly
        odd = IeCode(ch, user, tuple(reversed(ie.codebook)))
        assert monte_carlo_error(odd, 50, seed) == monte_carlo_error_oracle(odd, 50, seed)


def test_custom_facilitator_called_once_with_int64_arrays():
    code = CfCode(forced_good_channel(3, 1, seed=2), "r1")
    calls = []

    def recording_helper(code, w1, w2):
        calls.append((w1, w2))
        return 2

    report = verify_zero_error(code, facilitator=recording_helper)
    assert len(calls) == 1
    w1, w2 = calls[0]
    assert w1.dtype == w2.dtype == np.int64 and w1.shape == w2.shape == (8, 4)
    assert sorted(zip(w1.ravel().tolist(), w2.ravel().tolist())) == [
        (a, b) for a in range(1, 9) for b in range(1, 5)
    ]
    assert (report.pairs_checked, report.failures) == verify_zero_error_oracle(code, recording_helper)
    calls.clear()
    monte_carlo_error(code, 25, seed=4, facilitator=recording_helper)
    assert len(calls) == 1 and calls[0][0].dtype == np.int64 and calls[0][0].shape == (25,)


def test_m13_channel_matches_oracles():
    # n = 8192 and g = 8: many transpose bands and many blocks per line
    params = ConstructionParams.with_defaults(13, epsilon=0.05, p=0.85, seed=13)
    ch = construct_channel(params, density_trials=0)
    dense = ch.matrix.to_dense()
    width = 1 << ch.g
    for orientation, lines in (("r1", dense), ("r2", dense.T)):
        code = CfCode(ch, orientation)
        report = verify_zero_error(code)
        assert (report.pairs_checked, report.failures) == (8192 * 32, 0)
        # with z = 1 a pair fails exactly when the first entry of its block is bad
        stuck = verify_zero_error(code, facilitator=stuck_helper)
        assert stuck.failures == int(lines[:, ::width].sum())
        for helper in (None, stuck_helper):
            assert monte_carlo_error(code, 3000, 9, helper) == monte_carlo_error_oracle(
                code, 3000, 9, helper
            )
    for user in (1, 2):
        ie = build_ie_code(ch, user)
        line = dense[:, 0] if user == 1 else dense[0]
        first = [k * width + int(np.argmin(line[k * width : (k + 1) * width])) + 1 for k in range(32)]
        assert ie.codebook == tuple(first)
