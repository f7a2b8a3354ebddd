"""Exact distributions of per-color draw counts.

For a color j and horizon t, the number of times color j is drawn lies in
0..t-j+1, and the corresponding vertex degree is that count plus one.  Three
routes compute the distribution, each called as ``route(j, t, schedule)``:

- ``pmf_general``: the exact sum, valid for any schedule, over the subsets
  of times j..t at which color j is drawn.  Each subset contributes a chain
  of conditional draw/no-draw probabilities, built by one forward pass over
  the subsets; there are 2**(t-j+1) of them, so the support window is
  capped.  ``pmf_constant_delta`` is this route at a constant amount.
- ``pmf_dp``: a quadratic-time forward recurrence over the draw count, with
  no cap, for a schedule whose amount is constant over color j's window;
  it raises for any other.  ``pmf_constant_delta_dp`` is this route at a
  constant amount.
- ``brute_force_pmf``: an independent oracle that enumerates every possible
  draw sequence outright and replays the urn along each path.

Each chain is accumulated as a running product of per-time conditional
probabilities (factor, then divided by its denominator), so every partial
product lies in [0, 1] and cannot overflow.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceeded, InvalidColor, ScheduleRangeError
from .records import Record
from .schedules import Constant, Schedule

ENUMERATION_CAP = 25
BRUTE_FORCE_CAP = 9

_SPLIT = 2 ** 18  # the forward pass halves any larger set of subset states


class Pmf(Record):
    """Distribution of a color's draw count: probs[k] = P(count = k).

    The support is 0..len(probs)-1, which is 0..t-color+1 at horizon t;
    shifting the index by one gives the law of the corresponding vertex's
    degree.  Compared and hashed by identity, since an array field has no
    single truth value.
    """

    color: int
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))

    @property
    def support(self) -> np.ndarray:
        return np.arange(len(self.probs))


def _validate_color(j: int, t: int) -> None:
    if not 1 <= j <= t:
        raise InvalidColor(f"need 1 <= color <= horizon, got color {j} at horizon {t}")


def _validate_cap(j: int, t: int) -> None:
    window = t - j + 1
    if window > ENUMERATION_CAP:
        raise CapExceeded(
            f"support window {window} exceeds the enumeration cap {ENUMERATION_CAP}; use "
            "pmf_dp if the amount is constant over the window, or Monte Carlo"
        )


def _forward(n, t, S, deltas, drawn, count, prob, out) -> None:
    """Add to ``out`` the count law of color j's draws over times n..t.

    Each state is one subset of the draws so far: its drawn mass, its draw
    count and its probability.  At time p a state splits into no draw, with
    factor ((p-1) + S[p-1] - drawn) / (p + S[p-1]), and a draw, with factor
    (1 + drawn) / (p + S[p-1]); multiplying before dividing keeps every
    partial product a probability.  A set larger than ``_SPLIT`` is halved
    and each half carried on alone, which bounds memory.
    """
    for p in range(n, t + 1):
        if len(prob) > _SPLIT:
            half = len(prob) // 2
            for part in (slice(None, half), slice(half, None)):
                _forward(p, t, S, deltas, drawn[part], count[part], prob[part], out)
            return
        den = p + S[p - 1]
        stay = prob * ((p - 1.0) + S[p - 1] - drawn)
        stay /= den
        move = prob * (1.0 + drawn)
        move /= den
        prob = np.concatenate((stay, move))
        drawn = np.concatenate((drawn, drawn + deltas[p - 1]))
        count = np.concatenate((count, count + 1))
    out += np.bincount(count, weights=prob, minlength=len(out))


def _count_chain(j: int, t: int, factors) -> np.ndarray:
    """Mass over draw counts 0..t-j+1, moved one time at a time.

    ``factors(n, ks)`` gives the (no draw, draw) factors at time n for the
    draw counts ``ks`` held before it.
    """
    window = t - j + 1
    probs = np.zeros(window + 1)
    probs[0] = 1.0
    ks = np.arange(window + 1, dtype=float)
    for n in range(j, t + 1):
        stay, move = factors(n, ks)
        moved = probs * move
        probs = probs * stay
        probs[1:] += moved[:-1]
    return probs


def pmf_general(j: int, t: int, schedule: Schedule) -> Pmf:
    """Exact draw-count distribution for any schedule.

    Sums the chain of draw and no-draw factors over every subset of the
    times j..t at which color j can be drawn, by one forward pass over
    those subsets; there are 2**(t-j+1) of them, so the window is capped
    at ``ENUMERATION_CAP``.
    """
    _validate_color(j, t)
    _validate_cap(j, t)
    S, deltas = schedule.cumulative(t), schedule.values(t)
    # Color 1 is the only ball at time 1, so its first draw is forced.
    n, drawn, count = (2, deltas[0], 1) if j == 1 else (j, 0.0, 0)
    probs = np.zeros(t - j + 2)
    _forward(n, t, S, deltas, np.full(1, drawn, dtype=float),
             np.full(1, count, dtype=np.intp), np.ones(1), probs)
    return Pmf(color=j, probs=probs)


def pmf_constant_delta(j: int, t: int, delta: float) -> Pmf:
    """Exact draw-count distribution for a constant amount via ``pmf_general``."""
    return pmf_general(j, t, Constant(float(delta)))


def pmf_dp(j: int, t: int, schedule: Schedule) -> Pmf:
    """Forward recurrence over the draw count; no cap, O((t-j+1)^2).

    Exact, and otherwise a ``ScheduleRangeError``, when the amount is c at
    every time j..t-1 (color j's window): after k draws color j has mass
    1 + k*c, so it is drawn at time n with probability (1 + k*c) / D_n, where
    D_n = n + (n-1)*c + sum_{p<j} (delta_p - c) = n + S[n-1].  For a
    ``Constant`` the sum is exactly 0, so D_n is n + (n-1)*c bit for bit.
    """
    _validate_color(j, t)
    schedule.cumulative(t)  # raises if the total overflows
    deltas = schedule.values(t)
    c = float(deltas[j - 1])
    if np.any(deltas[j - 1:t - 1] != c):
        raise ScheduleRangeError(f"the amount varies over color {j}'s window, times "
                                 f"{j}..{t - 1}, so pmf_dp does not apply; use pmf_general")
    offset = float(np.sum(deltas[:j - 1] - c))

    def factors(n, ks):
        q = (1.0 + ks * c) / (n + (n - 1) * c + offset)
        return 1.0 - q, q

    return Pmf(color=j, probs=_count_chain(j, t, factors))


def pmf_constant_delta_dp(j: int, t: int, delta: float) -> Pmf:
    """``pmf_dp`` at a constant amount."""
    return pmf_dp(j, t, Constant(float(delta)))


def delta_one_simplified_pmf(j: int, t: int) -> Pmf:
    """Literal evaluation of the simplified unit-reinforcement closed form.

    Kept so the mismatch against the verified law stays visible: the k >= 1
    sum multiplies k! by the no-draw factor at every time j..t (draw times
    are not excluded), and the zero-draw term is 2 t! / ((j-2)! prod(2n+1)).
    Do not use for computation: ``pmf_general`` at ``Constant(1.0)`` gives the
    verified law.
    """
    _validate_color(j, t)
    _validate_cap(j, t)

    def factors(n, ks):
        f = (2.0 * (n - 1) - ks) / (2.0 * n - 1.0)
        return f, f

    probs = _count_chain(j, t, factors)
    probs *= [float(math.factorial(k)) for k in range(len(probs))]
    den = math.prod(2.0 * n + 1.0 for n in range(j - 1, t))
    # The gamma ratio's pole at color 1 makes the zero-draw term vanish there.
    probs[0] = 0.0 if j == 1 else 2.0 * math.factorial(t) / (math.factorial(j - 2) * den)
    return Pmf(color=j, probs=probs)


def brute_force_table(t: int, schedule: Schedule) -> np.ndarray:
    """Draw-count distributions for every color by exhaustive path enumeration.

    Walks all t! draw sequences depth-first, replaying the urn weights along
    each path; entry [j, k] is the probability that color j is drawn exactly
    k times through time t.  Row 0 is unused.  Independent of the subset pass
    and the recurrence, so it serves as their oracle.
    """
    if t < 1:
        raise ValueError(f"horizon must be >= 1, got {t}")
    schedule.cumulative(t)  # raises if the total mass overflows
    deltas = [0.0]
    deltas.extend(float(x) for x in schedule.values(t))
    table = np.zeros((t + 1, t + 1))
    weights = [1.0]
    counts = [0] * (t + 2)

    def visit(n: int, total: float, prob: float) -> None:
        if n > t:
            for j in range(1, t + 1):
                table[j, counts[j]] += prob
            return
        d = deltas[n]
        new_total = total + d + 1.0
        for c in range(len(weights)):
            w = weights[c]
            weights[c] = w + d
            weights.append(1.0)
            counts[c + 1] += 1
            visit(n + 1, new_total, prob * (w / total))
            counts[c + 1] -= 1
            weights.pop()
            weights[c] = w

    visit(1, 1.0, 1.0)
    return table


def brute_force_pmf(j: int, t: int, schedule: Schedule) -> Pmf:
    """Oracle distribution for one color; requires t <= BRUTE_FORCE_CAP (path count t!)."""
    _validate_color(j, t)
    if t > BRUTE_FORCE_CAP:
        raise CapExceeded(
            f"enumerating {t}! draw sequences exceeds the cap ({BRUTE_FORCE_CAP}!); "
            "use pmf_general, or pmf_dp if the amount is constant over the window"
        )
    table = brute_force_table(t, schedule)
    window = t - j + 1
    return Pmf(color=j, probs=table[j, : window + 1].copy())
