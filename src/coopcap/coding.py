"""Single-shot codes for the two-sender erasure channel.

Facilitated codes (CfCode): a helper node that sees both selected messages
broadcasts the index z of the first good entry inside one aligned block of
the matrix, and the reduced-rate sender offsets its symbol by z. Concretely,
with orientation R1_full the message sets are W1 = {1..2^m} and
W2 = {1..2^(m-g)}; the helper picks the smallest z in {1..2^g} with
entry (w1, (w2-1)*2^g + z) good, sender 1 transmits x1 = w1 and sender 2
transmits x2 = (w2-1)*2^g + z. The receiver inverts with w1 = x1 and
w2 = ceil(x2 / 2^g). When every aligned block of the matrix holds a good
entry this never erases, so every one of the 2^m * 2^(m-g) message pairs
decodes exactly and the rate pair is (m, m - g). Orientation R2_full
mirrors the roles. Only the reduced-rate sender uses z: the full-rate
encoder is the identity on its message, whatever the helper says.

Solo codes (IeCode): no helper. One sender signals alone while the other
repeats symbol 1. The active sender's codebook is the first good entry of
each aligned block of column 1 (or row 1), one per block, giving 2^(m-g)
messages at zero error and rate pair (m - g, 0) or (0, m - g).

Every first good entry is read from one table, channel.first_good. The
encoders, the decoders and the helper take scalars or arrays, so
verify_zero_error and monte_carlo_error run each step once over all their
message pairs: encode, one packed-bit lookup per pair, decode. A custom
facilitator passed to them follows the same contract as
facilitator_output: it is called once, with 1-based int64 arrays w1 and w2
of one shape, and returns z as an array or a scalar that broadcasts to
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import Channel, ERASURE, first_good
from .errors import InvariantViolation

__all__ = [
    "Orientation",
    "CfCode",
    "IeCode",
    "ZeroErrorReport",
    "facilitator_output",
    "cf_encode",
    "cf_decode",
    "verify_zero_error",
    "build_ie_code",
    "ie_encode",
    "ie_decode",
    "monte_carlo_error",
]


class Orientation(str, Enum):
    """Which sender keeps the full rate m; the other drops to m - g."""

    R1_FULL = "R1_full"
    R2_FULL = "R2_full"

    @classmethod
    def parse(cls, value) -> "Orientation":
        if isinstance(value, cls):
            return value
        aliases = {
            "r1": cls.R1_FULL,
            "r1_full": cls.R1_FULL,
            "r2": cls.R2_FULL,
            "r2_full": cls.R2_FULL,
        }
        try:
            return aliases[str(value).lower()]
        except KeyError:
            raise ValueError(f"unknown orientation {value!r}") from None


@dataclass(frozen=True)
class CfCode:
    """Facilitated single-shot code on a channel with the block property."""

    channel: Channel
    orientation: Orientation

    def __post_init__(self):
        object.__setattr__(self, "orientation", Orientation.parse(self.orientation))
        if not self.channel.block_property_verified:
            raise ValueError("channel block property is not verified")

    @property
    def m(self) -> int:
        return self.channel.m

    @property
    def g(self) -> int:
        return self.channel.g

    @property
    def message_space_sizes(self) -> tuple[int, int]:
        full, reduced = 1 << self.m, 1 << (self.m - self.g)
        if self.orientation is Orientation.R1_FULL:
            return (full, reduced)
        return (reduced, full)

    @property
    def sum_rate(self) -> float:
        """log2 of the number of message pairs per channel use: 2m - g."""
        return float(2 * self.m - self.g)


@dataclass(frozen=True)
class ZeroErrorReport:
    pairs_checked: int
    failures: int


def _first(mask, *values) -> tuple:
    """The values at the first True of mask, broadcast to its shape."""
    i = int(np.argmax(mask))
    return tuple(int(np.broadcast_to(v, np.shape(mask)).flat[i]) for v in values)


def facilitator_output(code: CfCode, w1, w2):
    """Index z in {1..2^g} of the first good entry in the addressed block.

    w1 and w2 are message indices or arrays of them that broadcast; z has
    their broadcast shape. Each call builds the first-good table of the
    code's orientation, so pass every pair at once.
    """
    s1, s2 = code.message_space_sizes
    outside = (w1 < 1) | (w1 > s1) | (w2 < 1) | (w2 > s2)
    if np.any(outside):
        raise ValueError(f"message pair {_first(outside, w1, w2)} outside {s1} x {s2}")
    matrix, g = code.channel.matrix, code.g
    if code.orientation is Orientation.R1_FULL:
        z = first_good(matrix, g, "row")[w1 - 1, w2 - 1]
    else:
        z = first_good(matrix, g, "col")[w2 - 1, w1 - 1]
    if np.any(z == 0):
        raise InvariantViolation(
            f"no good entry in block for {_first(z == 0, w1, w2)}; "
            "the block property cannot actually hold"
        )
    return z.astype(np.int64)


def cf_encode(code: CfCode, w1, w2, *, z=None):
    """Channel inputs for a message pair, or for arrays of them.

    z defaults to the honest helper output; pass a value to model a corrupt
    or fixed helper. The full-rate side never reads z.
    """
    if z is None:
        z = facilitator_output(code, w1, w2)
    width = 1 << code.g
    outside = (z < 1) | (z > width)
    if np.any(outside):
        raise ValueError(f"z must be in [1, 2^g], got {_first(outside, z)[0]}")
    if code.orientation is Orientation.R1_FULL:
        return (w1, (w2 - 1) * width + z)
    return ((w1 - 1) * width + z, w2)


def cf_decode(code: CfCode, y):
    """Message pair from a channel output; None when the output is erased.

    y may also be a pair of symbol arrays, outputs that were not erased.
    """
    x1, x2 = y
    if isinstance(x1, str) and tuple(y) == ERASURE:
        return None
    width = 1 << code.g
    if code.orientation is Orientation.R1_FULL:
        return (x1, (x2 + width - 1) // width)
    return ((x1 + width - 1) // width, x2)


def _cf_failures(code: CfCode, w1, w2, facilitator) -> np.ndarray:
    """Which message pairs of the arrays w1, w2 the code fails to deliver."""
    fac = facilitator_output if facilitator is None else facilitator
    x1, x2 = cf_encode(code, w1, w2, z=fac(code, w1, w2))
    d1, d2 = cf_decode(code, (x1, x2))
    return (code.channel.matrix.bit(x1, x2) == 1) | (d1 != w1) | (d2 != w2)


def verify_zero_error(code: CfCode, facilitator=None) -> ZeroErrorReport:
    """Run every message pair through encode, the channel, and decode.

    facilitator overrides the helper (same contract as facilitator_output)
    so corrupted helpers can be measured; default is the honest one.
    """
    w1, w2 = np.indices(code.message_space_sizes, dtype=np.int64) + 1
    failures = _cf_failures(code, w1, w2, facilitator)
    return ZeroErrorReport(pairs_checked=w1.size, failures=int(np.count_nonzero(failures)))


@dataclass(frozen=True)
class IeCode:
    """Solo single-shot code: one active sender, the other pinned to symbol 1.

    codebook[w - 1] is the active sender's symbol for message w; it holds
    one good entry per aligned block of the scanned line, so transmissions
    never erase.
    """

    channel: Channel
    active_user: int
    codebook: tuple[int, ...]

    def __post_init__(self):
        if self.active_user not in (1, 2):
            raise ValueError(f"active_user must be 1 or 2, got {self.active_user}")

    @property
    def m(self) -> int:
        return self.channel.m

    @property
    def g(self) -> int:
        return self.channel.g

    @property
    def message_count(self) -> int:
        return len(self.codebook)

    @property
    def sum_rate(self) -> float:
        return float(self.m - self.g)


def build_ie_code(channel: Channel, user: int) -> IeCode:
    """First good entry of each aligned block of column 1 (user 1) or row 1."""
    if user not in (1, 2):
        raise ValueError(f"user must be 1 or 2, got {user}")
    g = channel.g
    z = first_good(channel.matrix, g, "col" if user == 1 else "row")[0]
    if np.any(z == 0):
        raise InvariantViolation(
            "a block of the scanned line has no good entry; "
            "build the code on a channel with the block property"
        )
    codebook = tuple(int((k << g) + zk) for k, zk in enumerate(z))
    return IeCode(channel=channel, active_user=user, codebook=codebook)


def ie_encode(code: IeCode, w):
    """Channel inputs for message w, or for an array of messages."""
    outside = (w < 1) | (w > code.message_count)
    if np.any(outside):
        raise ValueError(f"message {_first(outside, w)[0]} outside [1, {code.message_count}]")
    x = np.asarray(code.codebook)[w - 1]
    return (x, 1) if code.active_user == 1 else (1, x)


def ie_decode(code: IeCode, y):
    """Message index from a channel output; None when erased or not a codeword.

    y may also be a pair of symbol arrays, outputs that were not erased;
    the result is then an array with 0 where a scalar would give None.
    """
    if isinstance(y[0], str) and tuple(y) == ERASURE:
        return None
    x = y[0] if code.active_user == 1 else y[1]
    width = 1 << code.g
    w = (x + width - 1) // width
    book = np.array((0, *code.codebook))  # book[0] = 0 is no symbol
    inside = (w >= 1) & (w < len(book))
    hit = inside & (book[np.where(inside, w, 0)] == x)
    if np.ndim(hit):
        return np.where(hit, w, 0)
    return int(w) if hit else None


def monte_carlo_error(code, trials: int, seed: int, facilitator=None) -> float:
    """Empirical decode-failure rate over uniform random messages."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    if isinstance(code, CfCode):
        s1, s2 = code.message_space_sizes
        draws1 = rng.integers(1, s1 + 1, size=trials)
        draws2 = rng.integers(1, s2 + 1, size=trials)
        failures = _cf_failures(code, draws1, draws2, facilitator)
    elif isinstance(code, IeCode):
        draws = rng.integers(1, code.message_count + 1, size=trials)
        x1, x2 = ie_encode(code, draws)
        failures = (code.channel.matrix.bit(x1, x2) == 1) | (ie_decode(code, (x1, x2)) != draws)
    else:
        raise TypeError(f"expected CfCode or IeCode, got {type(code).__name__}")
    return int(np.count_nonzero(failures)) / trials
