"""Seeded random streams for reproducible experiments.

Each named component draws from its own :class:`random.Random` stream,
derived deterministically from the root seed.  Separate streams keep
components statistically independent and — more importantly — keep one
component's draw count from perturbing another's, so adding a monitor or a
workload does not change unrelated results.
"""

from __future__ import annotations

import math
import random
from math import exp as _exp, log as _log
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.errors import SimulationError


class RandomStreams:
    """A factory of named, deterministic random streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream for ``name``."""
        rng = self._streams.get(name)
        if rng is None:
            # Stable derivation: hash of (seed, name) via Random's own
            # str-seeding, which is version-stable for str seeds.
            rng = random.Random(f"{self.seed}/{name}")
            self._streams[name] = rng
        return rng

    def __contains__(self, name: str) -> bool:
        return name in self._streams


#: ``random.NV_MAGICCONST``, the Kinderman-Monahan constant
#: ``normalvariate`` uses.
_NV_MAGICCONST = random.NV_MAGICCONST


class LatencyJitter:
    """Lognormal jitter around a base latency.

    Real host stacks show right-skewed latency: most packets take close to
    the base cost, a tail takes much longer (scheduler preemption, cache
    misses, interrupt coalescing).  A lognormal with small sigma models this
    with a single shape parameter.

    ``sample(base_ns)`` returns the jittered latency, always >= a floor of
    half the base so jitter can never produce implausibly fast packets.
    """

    def __init__(self, rng: random.Random, sigma: float = 0.12) -> None:
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        self._rng = rng
        #: Bound once: the draw below calls it in a loop, exactly as
        #: ``normalvariate`` calls ``self.random``.
        self._random = rng.random
        self.sigma = sigma
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2); pick mu so the
        # mean multiplier is exactly 1.0.
        self._mu = -sigma * sigma / 2.0
        #: A factor handed back by :meth:`unread`; the next draw takes it
        #: instead of advancing the stream.
        self._unread: Optional[float] = None

    # Both draw sites below inline ``rng.lognormvariate(mu, sigma)``:
    # the stdlib's Kinderman-Monahan loop from ``normalvariate`` with
    # the same floating-point operations in the same order, so every
    # factor and every stream position equal the library call's
    # (pinned draw for draw by tests/sim/test_rand.py).  Inlining saves
    # the two nested method calls per draw that dominated this class.

    def sample(self, base_ns: int) -> int:
        """One jittered sample around ``base_ns`` (mean-preserving)."""
        if base_ns <= 0 or self.sigma == 0.0:
            return max(base_ns, 0)
        factor = self._unread
        if factor is None:
            random = self._random
            while True:
                u1 = random()
                u2 = 1.0 - random()
                z = _NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -_log(u2):
                    break
            factor = _exp(self._mu + z * self.sigma)
        else:
            self._unread = None
        return max(base_ns // 2, round(base_ns * factor))

    def sample_revocable(self, base_ns: int) -> Tuple[int, Optional[float]]:
        """:meth:`sample`, plus the token :meth:`unread` needs to take the
        draw back (``None`` when nothing was drawn)."""
        if base_ns <= 0 or self.sigma == 0.0:
            return max(base_ns, 0), None
        factor = self._unread
        if factor is None:
            random = self._random
            while True:
                u1 = random()
                u2 = 1.0 - random()
                z = _NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -_log(u2):
                    break
            factor = _exp(self._mu + z * self.sigma)
        else:
            self._unread = None
        return max(base_ns // 2, round(base_ns * factor)), factor

    def unread(self, factor: Optional[float]) -> None:
        """Take back the most recent draw in O(1).

        Every draw is ``lognormvariate(mu, sigma)`` with this jitter's
        fixed parameters, and its Kinderman-Monahan loop keeps no state
        between calls, so the factor alone is what the draw consumed:
        handing it to the next draw yields exactly the value (and leaves
        exactly the stream position) that rewinding the generator to its
        pre-draw state would.  This holds only while the jitter is its
        generator's sole consumer (a host stack owns its stream).  Only
        the most recent draw may be taken back, so at most one factor is
        ever held.
        """
        if factor is None:
            return
        if self._unread is not None:
            raise SimulationError(
                "jitter draw taken back twice without a draw in between")
        self._unread = factor


def zipfian_sampler(population: int,
                    theta: float) -> Callable[[random.Random], int]:
    """A Zipf rank sampler over ``[0, population)``: ``rng -> rank``.

    Uses the standard YCSB rejection-free inverse-CDF construction with
    exponent ``theta`` (0 = uniform, 0.99 = YCSB default skew).  The
    constants (``zetan``, ``eta``, ``alpha``) are computed here, once;
    each draw takes one ``rng.random()`` (``rng.randrange`` when
    uniform).
    """
    if population <= 0:
        raise ValueError(f"population must be positive, got {population}")
    if not 0.0 <= theta < 1.0:
        raise ValueError(f"theta must be in [0, 1), got {theta}")
    if theta == 0.0:
        return lambda rng: rng.randrange(population)
    zetan = _zeta(population, theta)
    zeta2 = _zeta(2, theta)
    alpha = 1.0 / (1.0 - theta)
    # For population <= 2 every draw lands in the first two branches
    # (u * zetan < zetan = zeta2), so eta is never used; guarding the
    # division avoids the 0/0 at population == 2.
    denominator = 1.0 - zeta2 / zetan
    if denominator == 0.0:
        eta = 0.0
    else:
        eta = (1.0 - (2.0 / population) ** (1.0 - theta)) / denominator
    second = 1.0 + 0.5 ** theta
    last = population - 1

    def draw(rng: random.Random) -> int:
        u = rng.random()
        uz = u * zetan
        if uz < 1.0:
            return 0
        if uz < second:
            return 1
        return min(last, int(population * (eta * u - eta + 1.0) ** alpha))

    return draw


def zipfian_ranks(rng: random.Random, population: int, theta: float,
                  count: int) -> list[int]:
    """Draw ``count`` ranks from :func:`zipfian_sampler`."""
    draw = zipfian_sampler(population, theta)
    return [draw(rng) for _ in range(count)]


#: Memoized Zipf normalizers.  ``_zeta`` is O(n), and every generator
#: and every :func:`zipfian_ranks` call over the same
#: ``(population, theta)`` needs the same constant.
_ZETA_CACHE: Dict[tuple[int, float], float] = {}


def _zeta(n: int, theta: float) -> float:
    """Generalized harmonic number H_{n,theta} (the Zipf normalizer)."""
    key = (n, theta)
    value = _ZETA_CACHE.get(key)
    if value is None:
        value = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        _ZETA_CACHE[key] = value
    return value


def exponential_delay(rng: random.Random, mean_ns: int) -> int:
    """One exponential inter-arrival delay with the given mean (>= 0 ns)."""
    if mean_ns <= 0:
        return 0
    return max(0, round(rng.expovariate(1.0 / mean_ns)))


def choose_weighted(rng: random.Random, items: Sequence[object],
                    weights: Sequence[float]) -> object:
    """Pick one item with probability proportional to its weight."""
    if len(items) != len(weights) or not items:
        raise ValueError("items and weights must be equal-length, non-empty")
    total = math.fsum(weights)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    point = rng.random() * total
    acc = 0.0
    for item, weight in zip(items, weights):
        acc += weight
        if point < acc:
            return item
    return items[-1]
