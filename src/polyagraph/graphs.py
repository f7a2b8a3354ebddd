"""Attachment graphs grown from draw histories, plus a degree-proportional baseline.

Vertex j enters the graph at time j - 1 and corresponds to color j in the
urn.  Vertex 1 starts with a self-loop that counts exactly 1 toward its
degree, so every vertex enters with degree 1 and a vertex's degree is always
one more than its color's draw count.  A draw history is the int64 array of
drawn colors (see ``urn``), and it is all a graph stores.
``degree_rows`` is the one place that turns draws into degrees: the graph
and the Monte Carlo engine (``experiments``) both take their degree tables
from it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .records import Record
from .rowtext import row_chunks
from .schedules import Schedule
from .seeding import PASS, Stream, as_generator
from .urn import checked_draws, sample_history


class EvolvingGraph(Record):
    """Undirected attachment graph after t steps: t + 1 vertices, t + 1 edges.

    ``draws`` is the draw history, the one field: a read-only (t,) int64
    array whose entry n - 1 is the color drawn at time n, checked by
    ``checked_draws`` and copied when the graph is built.  Everything else
    is derived from it.  Compared and hashed by identity, since an array
    field has no single truth value.
    """

    draws: np.ndarray

    def __post_init__(self):
        draws = checked_draws(self.draws).copy()
        draws.flags.writeable = False
        object.__setattr__(self, "draws", draws)

    def __reduce__(self):
        """Unpickle through the constructor, so the copy is checked and read-only too."""
        return type(self), (self.draws,)

    @property
    def num_vertices(self) -> int:
        return len(self.draws) + 1

    @property
    def horizon(self) -> int:
        return len(self.draws)

    @property
    def edges(self) -> np.ndarray:
        """The (t + 1, 2) int64 edge array: the self-loop (1, 1), then (draw, n + 1) for step n."""
        return np.column_stack((np.concatenate(([1], self.draws)),
                                np.arange(1, self.num_vertices + 1)))

    @cached_property
    def degrees(self) -> np.ndarray:
        """Degree per vertex, 1-indexed (entry 0 unused), from ``degree_rows``; totals 2t + 1."""
        return degree_rows(self.draws[None, :])[0]

    def edge_list_text(self) -> str:
        """One 'u v' pair per line, the self-loop first: the rows of ``edges``.

        ``edge_list_chunks`` joined.  The CLI writes the chunks; this one-string
        form stays because perfbench's probe calls it.
        """
        return "".join(self.edge_list_chunks())

    def edge_list_chunks(self):
        """``edge_list_text`` in pieces of at most ``rowtext.CHUNK_ROWS`` lines, built as read."""
        yield "1 1\n"  # the self-loop
        yield from row_chunks("%d %d\n", self.draws, range(2, self.num_vertices + 1))

    def degree_table_chunks(self):
        """``vertex,degree,birth_time`` CSV with one row per vertex, built as read.

        The pieces are the header, then at most ``rowtext.CHUNK_ROWS`` rows each.
        """
        yield "vertex,degree,birth_time\n"
        yield from row_chunks("%d,%d,%d\n", range(1, self.num_vertices + 1), self.degrees[1:],
                              range(self.num_vertices))


def degree_rows(draws: np.ndarray) -> np.ndarray:
    """Degree tables of an (m, t) block of draw rows, as an (m, t + 2) array.

    Entry [i, j] is vertex j's degree after the t steps of row i: one plus
    the number of draws of color j.  Column 0 is zero, and column t + 1 is
    one, because color t + 1 cannot be drawn before time t + 1.
    """
    m, t = draws.shape
    # Row i's colors land in bins i·(t+2) .. i·(t+2)+t+1 of one bincount.
    offsets = (t + 2) * np.arange(m)[:, None]
    deg = np.bincount((draws + offsets).ravel(), minlength=m * (t + 2)).reshape(m, t + 2)
    deg += 1
    deg[:, 0] = 0
    return deg


def graph_from_draws(draws: np.ndarray) -> EvolvingGraph:
    """Build the graph encoded by a draw history (``draws[n-1]`` is drawn at time n).

    Raises ``InvalidColor`` unless the draw at each time n is a color in 1..n.
    """
    return EvolvingGraph(draws=draws)


def generate(t: int, schedule: Schedule, seed) -> EvolvingGraph:
    """Sample a draw history of length t and build the graph it encodes.

    The draws are ``graph.draws``; ``graph.edges`` derives the edge array from them.
    """
    rng = as_generator(seed)
    return graph_from_draws(sample_history(t, schedule, rng))


def ba_draws(t: int, rng: Stream) -> np.ndarray:
    """Sample t degree-proportional attachment targets from the next t uniforms of ``rng``.

    The uniforms map to targets by ``ba_block_draws``, as one row.  ``rng``
    is a ``seeding.Stream`` or any generator whose ``random(size)`` returns
    uniforms and continues its stream from call to call, such as a numpy
    ``Generator``.
    """
    if t < 0:
        raise ValueError(f"horizon must be >= 0, got {t}")
    return ba_block_draws(1, t, rng)[0]


def ba_block_draws(m: int, t: int, rng: Stream) -> np.ndarray:
    """Sample m independent rows of t attachment targets from ``rng``, as an (m, t) int64 array.

    Row r maps the next uniforms r·t … r·t+t−1 of ``rng``.  Starts from a
    single vertex whose self-loop counts 1 toward its degree, so at step n
    the attachment probability of vertex j is its degree over 2(n-1) + 1.
    Sampling picks a uniform entry of the edge-endpoint list, which holds
    vertex 1 in slot 0 and, for each step k, its target in slot 2k - 1 and
    vertex k + 1 in slot 2k.  Step n picks slot idx = floor(u_n·(2n - 1)):
    an even slot is vertex idx/2 + 1, an odd one copies the target of step
    (idx + 1)/2.  Rows of at most ``PASS`` steps come from one
    ``rng.random((m, t))`` call, and their copies are resolved together by
    pointer jumping on the flattened block.  A longer row is drawn in time
    chunks of ``PASS`` steps, one call each: a copy from an earlier chunk
    takes that step's finished target by one gather, and only the copies
    inside the chunk are jumped.  O(m·t·log t) numpy work.  This is kept
    apart from the urn's sampler so it stays an independent baseline.
    """
    if t <= PASS:
        return _ba_chunk(rng.random((m, t)), ())
    targets = np.empty((m, t), dtype=np.int64)
    for row in targets:
        for a in range(0, t, PASS):
            row[a : a + PASS] = _ba_chunk(rng.random((1, min(PASS, t - a))), row[:a])[0]
    return targets


def _ba_chunk(uniforms: np.ndarray, done) -> np.ndarray:
    """The targets of steps a+1..a+c of m rows, from their (m, c) uniforms, with a = len(done).

    ``done`` is the finished targets of steps 1..a of the one row (m = 1)
    when a > 0.
    """
    m, c = uniforms.shape
    a = len(done)
    n = np.arange(a + 1, a + c + 1)
    idx = (uniforms * (2 * n - 1)).astype(np.int64)
    # src is the 0-based step, less a, whose target step n takes; a step
    # that lands on a vertex slot points to itself.  Row offsets make the
    # pointers index the flattened chunk.
    src = np.where(idx & 1, idx >> 1, n - 1) - a
    src = (src + c * np.arange(m)[:, None]).ravel()
    slot = (idx >> 1).ravel()
    if a:  # a copy from an earlier chunk stops there, with slot = that step's target - 1
        early = np.flatnonzero(src < 0)
        slot[early] = done[src[early] + a] - 1
        src[early] = early
    while True:
        nxt = src[src]
        if (nxt == src).all():
            break
        src = nxt
    return slot[src].reshape(m, c) + 1
