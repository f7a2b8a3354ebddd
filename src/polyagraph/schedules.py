"""Reinforcement schedules: how many balls reinforce the drawn color at each step.

A schedule maps each integer draw time t >= 1 to a finite real amount >= 0 of
extra ball mass added to the drawn color.  Mass is real-valued, not integer,
so logarithmic and rational schedules are representable.  A value of 0 is
allowed: the step then adds only the new unit-mass color.

Each schedule class states its rule once, as a vector evaluator over an
array of times; ``values(horizon)`` and the scalar ``value(t)`` both call
it.  ``Constant.value`` alone returns its mass unconverted, so a Fraction
mass replays exactly.  The domain of every schedule is the draw times
t >= 1 (the urn draws nothing at time 0), and a table ends at its last line.

Schedule-string grammar (used by the CLI and config files):

    const:<float>          constant amount
    ln                     amount ln(t) at time t (so 0 at t = 1)
    step:t1=v1,t2=v2,...   right-open constant segments: v_i applies on
                           [t_{i-1}, t_i) with t_0 = 0; the final breakpoint
                           may be "inf", and the final value always extends
                           to infinity
    table:<path>           explicit per-time values, one float per line;
                           blank lines are skipped, so the n-th non-blank
                           line holds the amount for time n, and an error
                           names the file and its line number; a relative
                           path in a config file is resolved against the
                           file's directory, anywhere else against the
                           working directory
    paper-f                bundled increasing step preset used by the
                           figure-reproduction commands
    paper-g                bundled decreasing piecewise-rational preset used
                           by the figure-reproduction commands
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import ScheduleParseError, ScheduleRangeError
from .records import Record
from .seeding import PASS


class Schedule(Record):
    """Base class: a map from integer time t >= 1 to reinforcement mass.

    A subclass is a record (``records``) of its parameters and states its
    rule once, in ``_at``.
    """

    def _at(self, ts: np.ndarray) -> np.ndarray:
        """Masses at the integer times ``ts`` as a float array."""
        raise NotImplementedError

    def value(self, t: int) -> float:
        """Reinforcement mass at the draw time t >= 1."""
        if t < 1:
            raise ScheduleRangeError(f"schedule evaluated at time {t} < 1")
        return float(self._at(np.array([t]))[0])

    def values(self, horizon: int) -> np.ndarray:
        """Masses for times 1..horizon as a float array; the horizon must be >= 0."""
        if horizon < 0:
            raise ScheduleRangeError(f"horizon must be >= 0, got {horizon}")
        return self._at(np.arange(1, horizon + 1))

    def cumulative(self, horizon: int) -> np.ndarray:
        """Prefix sums: out[n] = sum of masses for times 1..n, out[0] = 0.

        Built in slices of ``seeding.PASS`` times, so memory beyond the result
        stays one slice's.  The masses are written into the result a slice at
        a time; then each slice's first mass takes the prefix before it and
        the slice is summed in place, the order of one whole-array
        ``np.cumsum``, so the sums are the same bit for bit.  Raises
        ``ScheduleRangeError`` for a negative horizon, a time outside the
        schedule's domain (named as the horizon), or a total mass that overflows.
        """
        if horizon < 0:
            raise ScheduleRangeError(f"horizon must be >= 0, got {horizon}")
        out = np.zeros(horizon + 1)
        starts = range(0, horizon, PASS)
        for a in reversed(starts):  # the last slice first, so a table too short names the horizon
            out[a + 1 : a + 1 + PASS] = self._at(np.arange(a + 1, min(a + PASS, horizon) + 1))
        with np.errstate(over="ignore"):
            for a in starts:
                part = out[a + 1 : a + 1 + PASS]
                if a:  # out[0] is not added, so a leading -0.0 mass stays -0.0, as in np.cumsum
                    part[0] += out[a]
                np.cumsum(part, out=part)
        if not math.isfinite(out[-1]):  # np.isfinite would page in numpy code for this scalar alone
            raise ScheduleRangeError(f"total reinforcement over times 1..{horizon} overflows")
        return out


class Constant(Schedule):
    """The same mass at every time.

    The mass may be any nonnegative number type, including a Fraction, which
    ``value`` returns as it is, so forced-draw replays stay exact.
    """

    delta: float

    def __post_init__(self):
        if self.delta < 0:
            raise ScheduleRangeError(f"negative reinforcement {self.delta}")

    def value(self, t: int):
        super().value(t)  # the range check
        return self.delta

    def _at(self, ts):
        return np.full(len(ts), float(self.delta))


class NaturalLog(Schedule):
    """Mass ln(t) at time t; ln(1) = 0 is accepted as a valid zero step."""

    def _at(self, ts):
        return np.log(ts.astype(float))


class Stepped(Schedule):
    """Right-open constant segments covering the times t >= 1.

    Segment i holds ``levels[i]`` on [ends[i-1], ends[i]) with ends[-1]
    implicitly 0.  The final level extends to infinity whether or not the
    final breakpoint is finite.
    """

    ends: tuple[float, ...]
    levels: tuple[float, ...]

    def __post_init__(self):
        if len(self.ends) != len(self.levels) or not self.ends:
            raise ValueError("ends and levels must be equal-length and nonempty")
        if any(b <= a for a, b in zip(self.ends, self.ends[1:])):
            raise ValueError(f"breakpoints not strictly ascending: {self.ends}")
        if any(v < 0 for v in self.levels):
            raise ScheduleRangeError(f"negative reinforcement in {self.levels}")

    def _at(self, ts):
        idx = np.minimum(np.searchsorted(self.ends, ts, side="right"), len(self.levels) - 1)
        return np.asarray(self.levels, dtype=float)[idx]


class RationalSegments(Schedule):
    """Segments that are either constant or of the form a/t.

    Segment i covers times up to and including ``ends[i]``; a time on a
    shared endpoint therefore belongs to the earlier segment.  The final
    segment extends to infinity.
    """

    ends: tuple[float, ...]
    kinds: tuple[str, ...]  # "const" or "over_t"
    params: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.ends) == len(self.kinds) == len(self.params)) or not self.ends:
            raise ValueError("segment fields must be equal-length and nonempty")
        if any(k not in ("const", "over_t") for k in self.kinds):
            raise ValueError(f"unknown segment kind in {self.kinds}")
        if any(p < 0 for p in self.params):
            raise ScheduleRangeError(f"negative reinforcement in {self.params}")

    def _at(self, ts):
        # A time's segment is the number of ends below it, counted end by end,
        # and its divisor is 1 on a const segment (p / 1 is p exactly): the
        # numpy code of searchsorted, of a string comparison and of boolean
        # indexing would run for this method alone.
        idx = np.zeros(len(ts), dtype=np.intp)
        for end in self.ends[:-1]:
            idx += ts > end
        over = np.array([kind == "over_t" for kind in self.kinds])[idx]
        return np.asarray(self.params, dtype=float)[idx] / np.where(over, ts, 1)


class Table(Schedule):
    """Explicit per-time masses; entry n-1 is the mass at time n.

    The domain is bounded by the table length; evaluating beyond it raises,
    and config loading checks the table covers the experiment horizon.
    """

    entries: tuple[float, ...]

    def __post_init__(self):
        if any(v < 0 for v in self.entries):
            raise ScheduleRangeError("negative reinforcement in table")

    def _at(self, ts):
        if len(ts) and ts.max() > len(self.entries):
            raise ScheduleRangeError(f"table covers times 1..{len(self.entries)}, got {ts.max()}")
        return np.asarray(self.entries, dtype=float)[ts - 1]


def paper_f() -> Stepped:
    """The bundled increasing step preset: 1, then 10 from 1000, then 100 from 2500."""
    return Stepped(ends=(1000.0, 2500.0, math.inf), levels=(1.0, 10.0, 100.0))


def paper_g() -> RationalSegments:
    """The bundled decreasing preset: 10, 1e4/t, 5, 1.5e4/t, then 3.75 from 4000."""
    return RationalSegments(
        ends=(1000.0, 2000.0, 3000.0, 4000.0, math.inf),
        kinds=("const", "over_t", "const", "over_t", "const"),
        params=(10.0, 1.0e4, 5.0, 1.5e4, 3.75),
    )


def _parse_float(text: str, position: int | None) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ScheduleParseError(f"expected a number, got {text!r}", position) from None
    if not math.isfinite(value):
        raise ScheduleParseError(f"non-finite value {text!r}", position)
    if value < 0:
        raise ScheduleRangeError(f"negative reinforcement {value}")
    return value


def _parse_step(body: str, offset: int) -> Stepped:
    ends: list[float] = []
    levels: list[float] = []
    pos = offset
    pairs = body.split(",")
    for i, pair in enumerate(pairs):
        if "=" not in pair:
            raise ScheduleParseError(f"expected t=value, got {pair!r}", pos)
        t_text, v_text = pair.split("=", 1)
        if t_text == "inf":
            if i != len(pairs) - 1:
                raise ScheduleParseError("'inf' is only allowed as the last breakpoint", pos)
            end = math.inf
        else:
            try:
                end = float(int(t_text))
            except ValueError:
                raise ScheduleParseError(
                    f"expected an integer breakpoint, got {t_text!r}", pos
                ) from None
            if end <= 0:
                raise ScheduleParseError(f"breakpoint must be positive, got {t_text}", pos)
        ends.append(end)
        levels.append(_parse_float(v_text, pos + len(t_text) + 1))
        pos += len(pair) + 1
    if any(b <= a for a, b in zip(ends, ends[1:])):
        raise ScheduleParseError("breakpoints must be strictly ascending", offset)
    return Stepped(ends=tuple(ends), levels=tuple(levels))


def parse_schedule(spec: str) -> Schedule:
    """Parse a schedule string (see the module docstring for the grammar)."""
    spec = spec.strip()
    if spec == "ln":
        return NaturalLog()
    if spec == "paper-f":
        return paper_f()
    if spec == "paper-g":
        return paper_g()
    if spec.startswith("const:"):
        return Constant(_parse_float(spec[len("const:"):], len("const:")))
    if spec.startswith("step:"):
        body = spec[len("step:"):]
        if not body:
            raise ScheduleParseError("empty step schedule", len("step:"))
        return _parse_step(body, len("step:"))
    if spec.startswith("table:"):
        if spec == "table:":
            raise ScheduleParseError("empty table path", len("table:"))
        path = Path(spec[len("table:"):])
        entries = []
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                entries.append(_parse_float(line.strip(), None))
            except ScheduleParseError as exc:
                raise ScheduleParseError(f"{path}:{lineno}: {exc}", None) from None
            except ScheduleRangeError as exc:
                raise ScheduleRangeError(f"{path}:{lineno}: {exc}") from None
        if not entries:
            raise ScheduleParseError(f"empty table file {path}", len("table:"))
        return Table(entries=tuple(entries))
    raise ScheduleParseError(f"unrecognized schedule spec {spec!r}", 0)
