"""Analytic references the benchmark checks the program's outputs against.

Everything here is written from the queueing formulas, not imported
from the program, so a fault in the program's own analytic code cannot
hide a fault in its simulators.
"""

from __future__ import annotations

import math
from typing import Callable


def erlang_b(channels: int, load: float) -> float:
    """Blocking probability of an M/G/N/N loss system with ``load``
    erlangs offered (insensitive to the holding-time distribution)."""
    blocking = 1.0
    for k in range(1, channels + 1):
        blocking = load * blocking / (k + load * blocking)
    return blocking


def engset_call_congestion(channels: int, sources: int,
                           per_source_load: float) -> float:
    """Share of requests blocked in an Engset loss system.

    ``sources`` users alternate an exponential think time with a hold;
    ``per_source_load`` is mean hold / mean think.  An arriving request
    sees the time congestion of the other ``sources - 1`` users, whose
    state weights are C(S-1, k) a^k; the recurrence below is Erlang-B's
    with the term ratio (S - k) a / k.
    """
    if sources <= channels:
        return 0.0
    blocking = 1.0
    for k in range(1, channels + 1):
        ratio = (sources - k) * per_source_load / k
        blocking = ratio * blocking / (1.0 + ratio * blocking)
    return blocking


def capacity(blocking: Callable[[int], float], target: float,
             hi: int = 100_000) -> int:
    """Largest user count whose ``blocking(n)`` stays at or below
    ``target``; ``blocking`` rises with ``n``."""
    lo = 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if blocking(mid) <= target:
            lo = mid
        else:
            hi = mid - 1
    return lo


def erlang_capacity(mean_hold: float, mean_interval: float,
                    channels: int, target: float) -> int:
    """Users an M/G/N system carries at ``target`` blocking."""
    return capacity(
        lambda n: erlang_b(channels, n / mean_interval * mean_hold),
        target, hi=int(50 * channels * mean_interval / mean_hold) + 10)


def engset_capacity(mean_hold: float, mean_interval: float,
                    channels: int, target: float) -> int:
    """Users the finite-source (think-gated) system carries."""
    return capacity(
        lambda n: engset_call_congestion(channels, n,
                                         mean_hold / mean_interval),
        target, hi=int(50 * channels * mean_interval / mean_hold) + 10)


def poisson_bounds(mean: float, sigmas: float = 6.0):
    """``mean ± sigmas·sqrt(mean)``: where a Poisson count must lie."""
    spread = sigmas * math.sqrt(mean)
    return mean - spread, mean + spread


def blocking_tolerance(blocking: float, sessions: int,
                       channels: int) -> float:
    """How far a simulated blocking share may stray from the analytic
    value.

    Arrivals blocked in one busy period are correlated, so the share's
    variance is larger than the binomial ``B(1-B)/n``; a busy period at
    the knee spans on the order of ``sqrt(channels)`` arrivals, which
    inflates the variance by about that factor.  Measured on 120 M/G/200
    runs at 1 h and 3 h horizons across the knee, the error in units of
    this sigma had a standard deviation of 0.80 and never exceeded 2.3,
    so five sigmas plus a small floor for the start-up transient (every
    run begins with all channels free) keep false alarms out of reach.
    """
    inflation = math.sqrt(channels)
    sigma = math.sqrt(max(blocking, 1e-6) * inflation / max(sessions, 1))
    return 5.0 * sigma + 0.001
