"""Closed-form rate bounds for the facilitator and no-facilitator settings.

Rate pairs live in the nonnegative quadrant. With a facilitator of link
rate delta on a channel built with block width 2^g, the achievable region
contains the polytope R1 <= m, R2 <= m, R1 + R2 <= 2m - g, and is
contained in R1 <= m + delta, R2 <= m + delta, R1 + R2 <= 2m.

Without the facilitator, R1 + R2 = m - g is achievable, and the converse
machinery bounds the normalized rates (x, y) = (R1/m, R2/m) by a pair of
mirrored hyperbola constraints

    (x - a_m)(y + b_m) <= c_m,   (x + b_m)(y - a_m) <= c_m,

whose constants derive from K_m = (1 - log2(f)/m)^-1. The maximum of
x + y over the convex hull of that set has the closed form
a - b + sqrt((a + b)^2 + 4c) under sign hypotheses on (a, b, c); when
they fail it raises rather than return a number. As m grows with
log2(f)/m -> 0 the constants tend to (0, 1, 1 + eps) and the sum bound to
(sqrt(5 + 4 eps) - 1) m. The approach is slow: with t = log2(f)/m the
errors are a_m = t + 1/m, b_m - 1 = -3t + t^2 - 1/m and
c_m - (1 + eps) = -(3 + 2 eps) t + (3 + eps) t^2 - t^3, so they shrink like
log2(f)/m (2 log2(m)/m for f = m^2), not like 1/m.

Also here: the probability bounds on random-construction failure (block
property and bad-density shortfall), and the bracket on the facilitator
advantage implied by the two sum-capacity sandwiches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import HypothesisViolation

__all__ = [
    "RateRegion",
    "BoundSequences",
    "HyperbolaRegion",
    "FailureBounds",
    "GapBounds",
    "cf_inner_region",
    "cf_outer_region",
    "ie_inner_sum",
    "bound_sequences",
    "hull_max_sum",
    "ie_outer_sum",
    "ie_outer_sum_asymptotic",
    "construction_failure_bounds",
    "theorem_gap",
]

_TOL = 1e-9


@dataclass(frozen=True)
class RateRegion:
    """Intersection of half-planes coef1*R1 + coef2*R2 <= rhs with R1, R2 >= 0.

    Must be bounded and nonempty. vertices lists the polygon corners
    counterclockwise, starting from the lexicographically smallest.
    """

    constraints: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if not self.constraints:
            raise ValueError("a region needs at least one constraint")
        bounds_x = any(a1 > 0 and a2 >= 0 for a1, a2, _ in self.constraints)
        bounds_y = any(a2 > 0 and a1 >= 0 for a1, a2, _ in self.constraints)
        if not (bounds_x and bounds_y):
            raise ValueError("constraints leave the region unbounded")
        if not self.vertices:
            raise ValueError("constraints admit no feasible point")

    def _all_constraints(self):
        return tuple(self.constraints) + ((-1.0, 0.0, 0.0), (0.0, -1.0, 0.0))

    def contains(self, r1: float, r2: float, tol: float = _TOL) -> bool:
        if min(r1, r2) < -tol:
            return False
        return all(a1 * r1 + a2 * r2 <= b + tol for a1, a2, b in self.constraints)

    @property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        rows = self._all_constraints()
        points = []
        for i in range(len(rows)):
            a1, a2, b1 = rows[i]
            for j in range(i + 1, len(rows)):
                c1, c2, b2 = rows[j]
                det = a1 * c2 - a2 * c1
                if abs(det) < 1e-12:
                    continue
                x = (b1 * c2 - b2 * a2) / det
                y = (a1 * b2 - c1 * b1) / det
                if not self.contains(x, y):
                    continue
                if any(abs(x - px) <= _TOL and abs(y - py) <= _TOL for px, py in points):
                    continue
                points.append((x, y))
        if not points:
            return ()
        cx = sum(p[0] for p in points) / len(points)
        cy = sum(p[1] for p in points) / len(points)
        points.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        start = points.index(min(points))
        ordered = points[start:] + points[:start]
        return tuple((float(x) + 0.0, float(y) + 0.0) for x, y in ordered)

    def max_sum(self) -> float:
        return max(x + y for x, y in self.vertices)

    def contains_region(self, other: "RateRegion", tol: float = _TOL) -> bool:
        return all(self.contains(x, y, tol) for x, y in other.vertices)


def cf_inner_region(m: int, g: int) -> RateRegion:
    """Rate pairs achievable with the facilitator: the time-sharing
    polytope R1 <= m, R2 <= m, R1 + R2 <= 2m - g."""
    if not 1 <= g <= m:
        raise ValueError(f"need 1 <= g <= m, got g={g}, m={m}")
    fm = float(m)
    return RateRegion(((1.0, 0.0, fm), (0.0, 1.0, fm), (1.0, 1.0, 2.0 * fm - g)))


def cf_outer_region(m: int, delta: float) -> RateRegion:
    """Outer bound with a rate-delta facilitator link: R1 <= m + delta,
    R2 <= m + delta, R1 + R2 <= 2m."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    cap = float(m) + delta
    return RateRegion(((1.0, 0.0, cap), (0.0, 1.0, cap), (1.0, 1.0, 2.0 * m)))


def ie_inner_sum(m: int, g: int) -> float:
    """Sum rate achievable without the facilitator: one sender active."""
    if g > m:
        raise ValueError(f"need g <= m, got g={g}, m={m}")
    return float(m - g)


@dataclass(frozen=True)
class BoundSequences:
    """Converse constants at width m: K_m and the hyperbola triple."""

    m: int
    k_m: float
    a_m: float
    b_m: float
    c_m: float


def bound_sequences(m: int, epsilon: float, f_of_m: int) -> BoundSequences:
    """Constants of the no-facilitator converse at width m with density
    parameters (epsilon, f). Requires log2(f) < m so K_m is finite and
    positive.

    With t = log2(f)/m and 1/K_m = 1 - t the triple is exactly

        a_m             = t + 1/m
        b_m - 1         = -3t + t^2 - 1/m
        c_m - (1 + eps) = -(3 + 2 eps) t + (3 + eps) t^2 - t^3,

    so it tends to (0, 1, 1 + eps) at the rate log2(f)/m. With f = m**2
    that is 2 log2(m)/m: at eps = 0.1 all three errors first fall below
    0.05 at m = 1305.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if f_of_m < 1:
        raise ValueError(f"f_of_m must be >= 1, got {f_of_m}")
    t = math.log2(f_of_m) / m
    if t >= 1.0:
        raise ValueError(
            f"need log2(f_of_m) < m for a finite K_m, got f={f_of_m}, m={m}"
        )
    k = 1.0 / (1.0 - t)
    a = 1.0 + 1.0 / m - 1.0 / k
    b = -1.0 - 1.0 / m + 1.0 / k + 1.0 / k**2
    c = (
        -1.0
        - 2.0 / m
        - 1.0 / m**2
        + (2.0 + 2.0 / m) / k
        + (epsilon + 1.0 / m) / k**2
        - a * b
    )
    return BoundSequences(m=m, k_m=k, a_m=a, b_m=b, c_m=c)


@dataclass(frozen=True)
class HyperbolaRegion:
    """Nonnegative (x, y) with (x-a)(y+b) <= c and (x+b)(y-a) <= c."""

    a: float
    b: float
    c: float

    def hypothesis_failures(self) -> tuple[str, ...]:
        """Which closed-form hypotheses this triple violates (empty if none)."""
        a, b, c = self.a, self.b, self.c
        failed = []
        if not b > 0:
            failed.append(f"b > 0 (b = {b})")
        if not c > 0:
            failed.append(f"c > 0 (c = {c})")
        if not a + b > 0:
            failed.append(f"a + b > 0 (a + b = {a + b})")
        if not a * b + c > 0:
            failed.append(f"a*b + c > 0 (a*b + c = {a * b + c})")
        disc = (a + b) ** 2 + 4.0 * c
        if b > 0:
            root = math.sqrt(disc) if disc >= 0 else float("-inf")
            if not root > b + c / b:
                failed.append(
                    f"sqrt((a+b)^2 + 4c) > b + c/b ({root} vs {b + c / b})"
                )
        return tuple(failed)


def hull_max_sum(region: HyperbolaRegion) -> float:
    """Max of x + y over the convex hull of the region, in closed form:
    2 x0 = a - b + sqrt((a+b)^2 + 4c) where x0 solves (x-a)(x+b) = c.
    Only valid under the sign hypotheses; violations raise."""
    failures = region.hypothesis_failures()
    if failures:
        raise HypothesisViolation(failures)
    a, b, c = region.a, region.b, region.c
    return a - b + math.sqrt((a + b) ** 2 + 4.0 * c)


def ie_outer_sum(m: int, epsilon: float, f_of_m: int) -> float:
    """Finite-m sum-rate upper value without the facilitator: m times the
    hull maximum of the width-m hyperbola region. Valid as a bound only
    for m large enough that the converse applies; the hypotheses of the
    closed form must hold (they do for f = m**2 from m around 80)."""
    seqs = bound_sequences(m, epsilon, f_of_m)
    return m * hull_max_sum(HyperbolaRegion(seqs.a_m, seqs.b_m, seqs.c_m))


def ie_outer_sum_asymptotic(m: int, epsilon: float) -> float:
    """Large-m form of the no-facilitator sum bound: (sqrt(5+4eps) - 1) m."""
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    return (math.sqrt(5.0 + 4.0 * epsilon) - 1.0) * m


@dataclass(frozen=True)
class FailureBounds:
    """Log2-domain upper bounds on the two construction failure events.

    Bounds, not probabilities: either may exceed 1 (log2 > 0), in which
    case it is vacuous. density_enumerated tells whether the density
    figure is the exact double sum or, past _DENSITY_EXACT_LIMIT rows, the
    term count times the largest term.
    """

    block_bound_log2: float
    density_bound_log2: float
    density_enumerated: bool


_DENSITY_EXACT_LIMIT = 1 << 20  # max number of rows i whose sums are taken exactly


def construction_failure_bounds(
    m: int, p: float, f_of_m: int, g_of_m: int, epsilon: float
) -> FailureBounds:
    """Union bounds on a width-m random matrix (bad w.p. p) failing the
    block property or the sampled-density property.

    block:    2^(2m - g + 1) * p^(2^g)
    density:  sum over f <= i, j <= 2^m of exp(h(i, j)), with
              h(i, j) = (i+j) m ln2 - 2 (p-1+eps)^2 i j.
              For fixed i the sum over j is geometric, so it is summed
              exactly in O(2^m) when there are at most _DENSITY_EXACT_LIMIT
              rows i. Past that it is replaced by the term count times the
              largest term; h is bilinear, so that term is at a corner.
    """
    if not 1 <= g_of_m <= m:
        raise ValueError(f"need 1 <= g <= m, got g={g_of_m}, m={m}")
    if not 1 <= f_of_m <= (1 << m):
        raise ValueError(f"need 1 <= f <= 2^m, got f={f_of_m}, m={m}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p == 0.0:
        block = float("-inf")
    else:
        block = (2 * m - g_of_m + 1) + (1 << g_of_m) * math.log2(p)
    d2 = 2.0 * (p - 1.0 + epsilon) ** 2
    n = 1 << m
    count = n - f_of_m + 1
    ln2 = math.log(2.0)
    a = m * ln2
    if count <= _DENSITY_EXACT_LIMIT:
        i = np.arange(f_of_m, n + 1, dtype=np.float64)
        c = a - d2 * i  # log-ratio of row i's geometric series in j
        s = np.abs(c)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_series = np.where(
                s > 0,
                np.maximum(c, 0.0) * (count - 1)
                + np.log(-np.expm1(-s * count))
                - np.log(-np.expm1(-s)),
                math.log(count),
            )
        terms = i * a + c * f_of_m + log_series
        top = terms.max()  # log-sum-exp shifted by the largest term
        density = float(top + np.log(np.sum(np.exp(terms - top)))) / ln2
        enumerated = True
    else:
        # Corners in exact rationals, since 2^m leaves the float range past m = 1023.
        corners = ((f_of_m, f_of_m), (f_of_m, n), (n, n))  # h is symmetric
        top = max((i + j) * Fraction(a) - Fraction(d2) * i * j for i, j in corners)
        top = float(top) if abs(top) < 1e300 else (math.inf if top > 0 else -math.inf)
        density = 2.0 * math.log2(count) + top / ln2
        enumerated = False
    return FailureBounds(
        block_bound_log2=block,
        density_bound_log2=density,
        density_enumerated=enumerated,
    )


@dataclass(frozen=True)
class GapBounds:
    """Bracket on (facilitator sum capacity) - (no-facilitator sum capacity)."""

    lower: float
    upper: float


def theorem_gap(m: int, delta: float, epsilon: float) -> GapBounds:
    """Two-sided bound on the facilitator advantage at width m with link
    rate delta: lower (3 - sqrt(5+4eps)) m - delta, upper m + delta."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0 <= delta <= m:
        raise ValueError(f"need 0 <= delta <= m, got delta={delta}, m={m}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    lower = (3.0 - math.sqrt(5.0 + 4.0 * epsilon)) * m - delta
    return GapBounds(lower=lower, upper=float(m) + delta)
