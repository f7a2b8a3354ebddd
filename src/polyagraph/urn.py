"""The expanding-color urn: state, draw law, stepping, and draw histories.

The urn starts with a single unit-mass ball of color 1.  At each time t >= 1
a ball is drawn in proportion to mass, the drawn color gains the schedule's
mass for time t, and a brand-new color enters with mass exactly 1.  The
sequence of drawn colors is a sufficient statistic: the urn trajectory, the
attachment graph, and every per-color count are deterministic functions of it.

``copy_pointer_draws`` is the one random sampler: it maps uniforms to whole
histories, many at once, in O(t log t) numpy work per history by copying
colors from earlier draws (see its docstring); ``sample_history`` applies it
to one generator.  ``step`` only applies forced draws, for exact replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import InvalidColor
from .schedules import Constant, Schedule


@dataclass(frozen=True)
class UrnState:
    """Ball masses per color after `time` draws.

    ``weights[i]`` is the mass of color i+1; there are ``time + 1`` colors and
    the newest always has mass exactly 1.  Weights may be any numeric type
    (fractions keep forced replays exact); ``sample_history`` never builds
    an ``UrnState`` and works in floats.
    """

    time: int
    weights: tuple
    total_weight: Any

    @property
    def num_colors(self) -> int:
        return len(self.weights)


def new_urn() -> UrnState:
    """The time-0 urn: one ball of color 1."""
    return UrnState(time=0, weights=(1,), total_weight=1)


def composition(urn: UrnState) -> list:
    """Mass fractions per color; sums to one."""
    return [w / urn.total_weight for w in urn.weights]


def conditional_draw_pmf(urn: UrnState) -> list:
    """Law of the next draw given the whole past: the current composition."""
    return composition(urn)


def step(urn: UrnState, schedule: Schedule, *, drawn: int) -> UrnState:
    """Advance the urn by one forced draw of color ``drawn``.

    Returns the next state.  Arithmetic follows the weights' type, so
    Fraction masses replay exactly.
    """
    if not 1 <= drawn <= urn.num_colors:
        raise InvalidColor(f"color {drawn} not in 1..{urn.num_colors} at time {urn.time}")
    t_next = urn.time + 1
    delta = schedule.value(t_next)
    weights = list(urn.weights)
    weights[drawn - 1] = weights[drawn - 1] + delta
    weights.append(1)
    return UrnState(time=t_next, weights=tuple(weights), total_weight=urn.total_weight + delta + 1)


def checked_draws(draws) -> np.ndarray:
    """``draws`` as an int64 array, after checking that it is a draw history.

    Raises ``InvalidColor`` unless the draw at each time n is a color in
    1..n, so that the first draw is color 1.
    """
    draws = np.ascontiguousarray(draws, dtype=np.int64)
    t = len(draws)
    if t and draws[0] != 1:
        raise InvalidColor("the first draw must be color 1")
    if t and not (np.all(draws >= 1) and np.all(draws <= np.arange(1, t + 1))):
        raise InvalidColor("draw at time n must be a color in 1..n")
    return draws


@dataclass
class DrawHistory:
    """The drawn color at each time: ``draws[n-1]`` is the color drawn at time n.

    The first draw is always color 1 (only one color exists then), and the
    draw at time n lies in 1..n.
    """

    schedule: Schedule
    draws: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.draws = checked_draws(self.draws)

    def __len__(self) -> int:
        return len(self.draws)

    def _time(self, t: int | None) -> int:
        """t, checked against the recorded range; None means the last recorded time."""
        if t is None:
            return len(self.draws)
        if not 0 <= t <= len(self.draws):
            raise IndexError(f"time {t} outside recorded range 0..{len(self.draws)}")
        return t

    def count_draws(self, j: int, t: int) -> int:
        """Number of times color j was drawn up to and including time t."""
        t = self._time(t)
        if not 1 <= j <= t + 1:
            raise IndexError(f"color {j} outside 1..{t + 1}")
        return int(np.count_nonzero(self.draws[:t] == j))

    def draw_counts(self, t: int | None = None) -> np.ndarray:
        """Counts per color (index = color, entry 0 unused) through time t."""
        t = self._time(t)
        return np.bincount(self.draws[:t], minlength=t + 2)

    def replay(self, t: int | None = None) -> UrnState:
        """The urn at time t, in one pass of ``step``'s additions in its order.

        The masses come from one ``values(t)`` call, except that a
        ``Constant`` repeats its ``value``, so Fraction masses stay exact;
        float masses equal forced re-stepping bit for bit.
        """
        t = self._time(t)
        if isinstance(self.schedule, Constant):
            deltas = [self.schedule.value(1)] * t
        else:
            deltas = self.schedule.values(t).tolist()
        weights, total = [1] * (t + 1), 1
        for delta, drawn in zip(deltas, self.draws[:t].tolist()):
            weights[drawn - 1] = weights[drawn - 1] + delta
            total = total + delta + 1
        return UrnState(time=t, weights=tuple(weights), total_weight=total)


def copy_pointer_draws(uniforms: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Map an (m, t) matrix of uniforms to m independent length-t draw rows.

    ``S`` is ``schedule.cumulative(t)``.  Just before the draw at time n the
    urn's mass splits into n unit balls, one per color, and the
    reinforcement mass S[n-1] laid down by the draws at times 1..n-1.  A
    point x = u·(n + S[n-1]) below n draws color floor(x) + 1; otherwise it
    falls in the mass laid down at some time s < n, found by one
    ``searchsorted``, and the draw at n copies the color drawn at s.  The
    copy pointers of all rows are resolved together by pointer jumping on
    the flattened block: O(m·t·log t) numpy work in all.  Each row's draws
    depend only on that row's uniforms.
    """
    m, t = uniforms.shape
    n = np.arange(1, t + 1)
    x = uniforms * (n + S[:-1])
    copied_from = np.searchsorted(S, x - n, side="right")
    # src[:, n-1] is the 0-based time whose color the draw at n takes; a draw
    # from the unit balls points to itself.  Rounding can put x - n at or
    # past S[n-1], where any earlier time is a valid source.  Row offsets
    # then make the pointers index the flattened block.
    src = np.where(x < n, n, np.minimum(copied_from, n - 1)) - 1
    src = (src + t * np.arange(m)[:, None]).ravel()
    while True:
        nxt = src[src]
        if (nxt == src).all():
            break
        src = nxt
    return x.ravel()[src].astype(np.int64).reshape(m, t) + 1


def sample_history(t: int, schedule: Schedule, rng: np.random.Generator) -> DrawHistory:
    """Sample a length-t draw history from one ``rng.random(t)`` call.

    The uniforms map to colors by ``copy_pointer_draws``, as one row.
    """
    draws = copy_pointer_draws(rng.random(t)[None, :], schedule.cumulative(t))
    return DrawHistory(schedule=schedule, draws=draws[0])


def new_color_draw_prob(t: int, schedule: Schedule) -> float:
    """Probability that the newest color is drawn at time t.

    This equals 1 over the total mass just before the draw and does not
    depend on the history, because the newest color always has mass 1:
    ``marginal_draw_prob`` of color t at time t.
    """
    return marginal_draw_prob(t, t, schedule)


def marginal_draw_prob(j: int, t: int, schedule: Schedule) -> float:
    """Unconditional probability that color j is drawn at time t.

    With D_n = n + S[n-1] the total mass before the draw at time n, the
    expected mass of color j grows by the factor 1 + delta_n / D_n at each
    time n = j..t-1, so the probability is prod(1 + delta_n / D_n) / D_t.
    """
    if not 1 <= j <= t:
        raise InvalidColor(f"color {j} cannot be drawn at time {t}")
    n = np.arange(j, t + 1)
    D = n + schedule.cumulative(t - 1)[n - 1]
    return float(np.prod(1.0 + schedule.values(t - 1)[j - 1:] / D[:-1]) / D[-1])
