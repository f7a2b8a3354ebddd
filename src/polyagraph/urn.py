"""The expanding-color urn: state, draw law, stepping, and draw histories.

The urn starts with a single unit-mass ball of color 1, ``UrnState()``.  At
each time t >= 1 a ball is drawn in proportion to mass, the drawn color gains
the schedule's mass for time t, and a brand-new color enters with mass
exactly 1.  The sequence of drawn colors is a sufficient statistic: the urn
trajectory, the attachment graph, and every per-color count are
deterministic functions of it.

A draw history is a plain int64 array whose entry n-1 is the color drawn at
time n; ``checked_draws`` validates one and ``replay`` rebuilds the urn from
it.  ``copy_pointer_draws`` is the one random sampler: it maps uniforms to
whole histories, many at once, by copying colors from earlier draws, and
reads a history longer than one pass in time chunks (see its docstring).
It finds the time each draw copies from in a ``GuideTable`` built once
from the schedule's cumulative masses, a table lookup and a step or two per
draw rather than an O(log t) binary search; ``sample_history`` applies it
to one generator.  ``step`` only applies forced draws, for exact
replays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidColor
from .records import Record
from .schedules import Constant, Schedule
from .seeding import PASS, Stream, pass_slices


class UrnState(Record):
    """Ball masses per color after `time` draws.

    ``weights[i]`` is the mass of color i+1; each draw adds one color, so
    there are ``time + 1`` of them, and the newest always has mass exactly 1.
    The weights are the one field, by default ``(1,)``, the time-0 urn; the
    time and the total mass are read off them.  Weights may be any numeric
    type (fractions keep forced replays exact); the sampler never builds an
    ``UrnState`` and works in floats.
    """

    weights: tuple = (1,)

    @property
    def num_colors(self) -> int:
        return len(self.weights)

    @property
    def time(self) -> int:
        return len(self.weights) - 1

    @property
    def total_weight(self):
        """The sum of the weights, in their own type, so Fraction masses stay exact."""
        return sum(self.weights)


def composition(urn: UrnState) -> list:
    """Mass fractions per color, summing to one: the law of the next draw given the whole past."""
    total = urn.total_weight
    return [w / total for w in urn.weights]


def step(urn: UrnState, schedule: Schedule, *, drawn: int) -> UrnState:
    """Advance the urn by one forced draw of color ``drawn``.

    Returns the next state.  Arithmetic follows the weights' type, so
    Fraction masses replay exactly.
    """
    if not 1 <= drawn <= urn.num_colors:
        raise InvalidColor(f"color {drawn} not in 1..{urn.num_colors} at time {urn.time}")
    delta = schedule.value(urn.time + 1)
    weights = list(urn.weights)
    weights[drawn - 1] = weights[drawn - 1] + delta
    weights.append(1)
    return UrnState(weights=tuple(weights))


def checked_draws(draws) -> np.ndarray:
    """``draws`` as an int64 array, after checking that it is a draw history.

    Raises ``InvalidColor`` unless ``draws`` is one-dimensional, each draw
    is a whole number that the cast to int64 keeps, and the draw at each
    time n is a color in 1..n, so that the first draw is color 1.
    """
    given = np.asarray(draws)
    if given.ndim != 1:
        raise InvalidColor(f"a draw history is a 1-D array of colors, got {given.ndim} dimensions")
    with np.errstate(invalid="ignore"):  # NaN and inf cast to some integer, caught below
        draws = np.ascontiguousarray(given, dtype=np.int64)
    if given.dtype != np.int64 and not np.array_equal(draws, given):
        raise InvalidColor("a draw must be a whole number, so a color")
    t = len(draws)
    if t and draws[0] != 1:
        raise InvalidColor("the first draw must be color 1")
    if t and not (np.all(draws >= 1) and np.all(draws <= np.arange(1, t + 1))):
        raise InvalidColor("draw at time n must be a color in 1..n")
    return draws


def replay(draws, schedule: Schedule) -> UrnState:
    """The urn after draw history ``draws``, in one pass of ``step``'s additions.

    ``draws[n-1]`` is the color drawn at time n; replay a prefix
    ``draws[:t]`` for the urn at time t.  Raises ``InvalidColor`` unless
    ``draws`` is a draw history (``checked_draws``).  The masses come from
    one ``values(t)`` call, except that a ``Constant`` repeats its
    ``value``, so Fraction masses stay exact; float masses equal forced
    re-stepping bit for bit.
    """
    draws = checked_draws(draws)
    t = len(draws)
    if isinstance(schedule, Constant):
        deltas = [schedule.value(1)] * t
    else:
        deltas = schedule.values(t).tolist()
    weights = [1] * (t + 1)
    for delta, drawn in zip(deltas, draws.tolist()):
        weights[drawn - 1] = weights[drawn - 1] + delta
    return UrnState(weights=tuple(weights))


class GuideTable:
    """``np.searchsorted(S, v, side="right")``, the first i with S[i] > v, by table lookup.

    ``S`` is nonnegative and nondecreasing, such as ``schedule.cumulative(t)``.
    A guide table (Chen and Asau, AIIE Trans. 6, 1974; Devroye,
    *Non-Uniform Random Variate Generation*, 1986) splits [0, S[-1]] into
    len(S) equal buckets and stores, for bucket b, how many entries of S lie
    in buckets below b.  Every such entry is below any v in bucket b, because
    both sides go through the same monotone float map to a bucket, so the
    stored count never passes the answer.  ``search`` starts each v there and
    steps forward at most twice, checked against S; the few v still short of
    the answer go to ``searchsorted``.  The result is exact for every finite
    v, whatever rounding the map does, and for any scale len(S)/S[-1]: where
    it is not finite (S[-1] is 0, or so small that the ratio overflows) the
    scale is 0 and one bucket holds all of S.  Built once per S, in
    O(len(S)), and shared by every call.  The buckets are counted one pass
    slice of S at a time (``seeding.pass_slices``), so the build holds no
    full-length array beyond the padded S and the guide.
    """

    def __init__(self, S: np.ndarray):
        self._padded = np.concatenate((S, [np.inf]))  # the entry past the end stops every step
        self.S = self._padded[:-1]
        self._total = float(S[-1]) if len(S) else 0.0
        scale = len(S) / self._total if self._total > 0 else math.inf
        self._scale = scale if scale < math.inf else 0.0
        # Entry b+1 counts the entries of S in bucket b, one slice of S at a
        # time; S is nondecreasing, so a slice's buckets are one contiguous run.
        guide = np.zeros(len(S) + 2, dtype=np.intp)
        for a, b in pass_slices(len(S)):
            bucket = self._bucket(self.S[a:b])
            first = bucket[0]
            bucket -= first
            counts = np.bincount(bucket)
            guide[first + 1 : first + 1 + len(counts)] += counts
        self._guide = np.cumsum(guide, out=guide)[:-1]  # the entries in buckets below b

    def _bucket(self, v: np.ndarray) -> np.ndarray:
        """Each v's bucket in 0..len(S): floor(len(S)·v/S[-1]), v clipped to [0, S[-1]]."""
        b = np.maximum(v, 0.0)
        np.minimum(b, self._total, out=b)
        b *= self._scale
        return b.astype(np.intp)

    def search(self, v: np.ndarray) -> np.ndarray:
        """``np.searchsorted(self.S, v, side="right")`` for an array v of any shape."""
        at = self._guide[self._bucket(v)]
        for _ in range(2):
            at += self._padded[at] <= v
        short = self._padded[at] <= v
        if np.count_nonzero(short):  # .any() would page in numpy code for this line alone
            at[short] = np.searchsorted(self.S, v[short], side="right")
        return at


def copy_pointer_draws(m: int, table: GuideTable, rng: Stream) -> np.ndarray:
    """Sample m independent length-t draw rows from ``rng``, as an (m, t) int64 array.

    ``table`` is ``GuideTable(S)`` with S = ``schedule.cumulative(t)``, built
    once and shared by every call for that schedule and horizon.  Row r maps
    the next uniforms r·t … r·t+t−1 of ``rng``, one per draw.  Just before
    the draw at time n the urn's mass splits into n unit balls, one per
    color, and the reinforcement mass S[n-1] laid down by the draws at times
    1..n-1.  A point x = u·(n + S[n-1]) below n draws color floor(x) + 1;
    otherwise it falls in the mass laid down at some time s < n, found by
    ``table.search`` (a table lookup, not a binary search), and the draw at
    n copies the color drawn at s.

    Rows of at most ``PASS`` draws are one chunk: one ``rng.random((m, t))``
    call, whose copy pointers are resolved together by pointer jumping on
    the flattened block.  A longer row is drawn in the equal time chunks of
    ``seeding.pass_slices``, one ``rng.random`` call each: t = 5000 is two
    chunks of 2500 draws.  There a pointer into an earlier chunk takes that
    draw's finished color by one gather, and only the pointers inside the
    chunk are jumped.  Successive calls continue the stream, so the draws
    are those of one call for all m·t uniforms, wherever the chunks start.
    A chunk computes its points over its uniforms and its draws over its
    pointers, so a call holds, beyond the draws it returns, a few arrays of
    its largest chunk: traced on ln, 104 KB for a full t=12 block and
    113 KB at t=5000.  O(m·t·log t) numpy work in all; each row's draws
    depend only on that row's uniforms.
    """
    t = len(table.S) - 1
    if t <= PASS:
        return _chunk_draws(rng.random((m, t)), table, ())
    draws = np.empty((m, t), dtype=np.int64)
    for row in draws:
        for a, b in pass_slices(t):
            row[a:b] = _chunk_draws(rng.random((1, b - a)), table, row[:a])[0]
    return draws


def _chunk_draws(uniforms: np.ndarray, table: GuideTable, done) -> np.ndarray:
    """The draws at times a+1..a+c of m rows, from their (m, c) uniforms, with a = len(done).

    ``done`` is the finished draws at times 1..a of the one row (m = 1)
    when a > 0.  The points x are computed over ``uniforms``, which the
    call consumes.
    """
    m, c = uniforms.shape
    a = len(done)
    n = np.arange(a + 1, a + c + 1)
    x = uniforms
    x *= n + table.S[a : a + c]
    src = table.search(x - n)
    # src[:, i] becomes the 0-based time, less a, whose color the draw at n = a+1+i
    # takes; a draw from the unit balls points to itself.  Rounding can put
    # x - n at or past S[n-1], where any earlier time is a valid source.  Row
    # offsets then make the pointers index the flattened chunk.
    np.minimum(src, n - 1, out=src)
    src = np.where(x < n, n, src)
    src += c * np.arange(m)[:, None] - (a + 1)
    src = src.ravel()
    x = x.ravel()
    if a:  # a pointer into an earlier chunk stops there, with x = that draw's color - 1
        early = np.flatnonzero(src >> 63)  # -1 where src < 0: shifts run anyway, unlike int64 <
        x[early] = done[src[early] + a] - 1
        src[early] = early
    moved = True
    while moved:
        nxt = src[src]
        moved = np.count_nonzero(nxt - src)  # .all() would page in numpy code for this line alone
        src = nxt
    src[...] = x[src]
    src += 1
    return src.reshape(m, c)


def sample_history(t: int, schedule: Schedule, rng: Stream) -> np.ndarray:
    """Sample a length-t draw history, a (t,) int64 array, from the next t uniforms of ``rng``.

    The uniforms map to colors by ``copy_pointer_draws``, as one row, with a
    table built for this call before the draw; a history longer than
    ``PASS`` is drawn in time chunks.  ``rng`` is a ``seeding.Stream`` or
    any generator whose ``random(size)`` returns uniforms and continues
    its stream from call to call, such as a numpy ``Generator``.
    """
    return copy_pointer_draws(1, GuideTable(schedule.cumulative(t)), rng)[0]


def marginal_draw_prob(j: int, t: int, schedule: Schedule) -> float:
    """Unconditional probability that color j is drawn at time t.

    With D_n = n + S[n-1] the total mass before the draw at time n, the
    expected mass of color j grows by the factor 1 + delta_n / D_n at each
    time n = j..t-1, so the probability is prod(1 + delta_n / D_n) / D_t.
    For the newest color, j = t, that is 1 / D_t whatever the history,
    because the newest color always has mass 1.
    """
    if not 1 <= j <= t:
        raise InvalidColor(f"color {j} cannot be drawn at time {t}")
    n = np.arange(j, t + 1)
    D = n + schedule.cumulative(t - 1)[n - 1]
    return float(np.prod(1.0 + schedule.values(t - 1)[j - 1:] / D[:-1]) / D[-1])
