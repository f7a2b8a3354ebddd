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
from .schedules import Schedule


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


def step(urn: UrnState, schedule: Schedule, *, drawn: int):
    """Advance the urn by one forced draw of color ``drawn``.

    Returns ``(next_state, drawn)``.  Arithmetic follows the weights' type,
    so Fraction masses replay exactly.
    """
    if not 1 <= drawn <= urn.num_colors:
        raise InvalidColor(f"color {drawn} not in 1..{urn.num_colors} at time {urn.time}")
    t_next = urn.time + 1
    delta = schedule.value(t_next)
    weights = list(urn.weights)
    weights[drawn - 1] = weights[drawn - 1] + delta
    weights.append(1)
    return (
        UrnState(time=t_next, weights=tuple(weights), total_weight=urn.total_weight + delta + 1),
        drawn,
    )


@dataclass
class DrawHistory:
    """The drawn color at each time: ``draws[n-1]`` is the color drawn at time n.

    The first draw is always color 1 (only one color exists then), and the
    draw at time n lies in 1..n.
    """

    schedule: Schedule
    draws: np.ndarray = field(repr=False)

    def __post_init__(self):
        draws = np.ascontiguousarray(self.draws, dtype=np.int64)
        t = len(draws)
        if t and draws[0] != 1:
            raise InvalidColor("the first draw must be color 1")
        if t and not (
            np.all(draws >= 1) and np.all(draws <= np.arange(1, t + 1))
        ):
            raise InvalidColor("draw at time n must be a color in 1..n")
        self.draws = draws

    def __len__(self) -> int:
        return len(self.draws)

    @property
    def horizon(self) -> int:
        return len(self.draws)

    def count_draws(self, j: int, t: int) -> int:
        """Number of times color j was drawn up to and including time t."""
        if not 0 <= t <= len(self.draws):
            raise IndexError(f"time {t} outside recorded range 0..{len(self.draws)}")
        if not 1 <= j <= t + 1:
            raise IndexError(f"color {j} outside 1..{t + 1}")
        return int(np.count_nonzero(self.draws[:t] == j))

    def draw_counts(self, t: int | None = None) -> np.ndarray:
        """Counts per color (index = color, entry 0 unused) through time t."""
        if t is None:
            t = len(self.draws)
        if not 0 <= t <= len(self.draws):
            raise IndexError(f"time {t} outside recorded range 0..{len(self.draws)}")
        return np.bincount(self.draws[:t], minlength=t + 2)

    def replay(self, t: int | None = None) -> UrnState:
        """Rebuild the urn state at time t by forced re-stepping."""
        if t is None:
            t = len(self.draws)
        urn = new_urn()
        for n in range(t):
            urn, _ = step(urn, self.schedule, drawn=int(self.draws[n]))
        return urn


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
    depend on the history, because the newest color always has mass 1.
    """
    if t < 1:
        raise ValueError(f"time must be >= 1, got {t}")
    cum = schedule.cumulative(t - 1)
    return 1.0 / (t + float(cum[t - 1]))


def marginal_draw_prob(j: int, t: int, schedule: Schedule) -> float:
    """Unconditional probability that color j is drawn at time t.

    Computed by the one-pass recursion over n = j..t in which the
    probability at time n feeds the weighted sum for all later times.
    """
    if not 1 <= j <= t:
        raise InvalidColor(f"color {j} cannot be drawn at time {t}")
    deltas = schedule.values(t - 1) if t > 1 else np.empty(0)
    cum = schedule.cumulative(t - 1) if t > 1 else np.zeros(1)
    acc = 0.0
    p = 1.0
    for n in range(j, t + 1):
        p = (1.0 + acc) / (n + float(cum[n - 1]))
        if n < t:
            acc += float(deltas[n - 1]) * p
    return p
