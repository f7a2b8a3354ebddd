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
from .schedules import Schedule
from .seeding import Stream, as_generator
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
        """One 'u v' pair per line, the self-loop first."""
        from .configio import rows_text  # not at the top: configio imports graphs via experiments
        edges = self.edges
        return rows_text("%d %d\n", edges[:, 0], edges[:, 1])

    def degree_table_text(self) -> str:
        """``vertex,degree,birth_time`` CSV with one row per vertex."""
        from .configio import rows_text
        vertices = np.arange(1, self.num_vertices + 1)
        return "vertex,degree,birth_time\n" + rows_text(
            "%d,%d,%d\n", vertices, self.degrees[1:], vertices - 1)


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
    """Sample t degree-proportional attachment targets from one ``rng.random(t)`` call.

    The uniforms map to targets by ``ba_block_draws``, as one row.  ``rng``
    is a ``seeding.Stream`` or any generator whose ``random(t)`` returns t
    uniforms, such as a numpy ``Generator``.
    """
    if t < 0:
        raise ValueError(f"horizon must be >= 0, got {t}")
    return ba_block_draws(rng.random(t)[None, :])[0]


def ba_block_draws(uniforms: np.ndarray) -> np.ndarray:
    """Map an (m, t) matrix of uniforms to m independent rows of attachment targets.

    Starts from a single vertex whose self-loop counts 1 toward its degree,
    so at step n the attachment probability of vertex j is its degree over
    2(n-1) + 1.  Sampling picks a uniform entry of the edge-endpoint list,
    which holds vertex 1 in slot 0 and, for each step k, its target in slot
    2k - 1 and vertex k + 1 in slot 2k.  Step n picks slot
    idx = floor(u_n·(2n - 1)): an even slot is vertex idx/2 + 1, an odd one
    copies the target of step (idx + 1)/2.  The copies of all rows are
    resolved together by pointer jumping on the flattened block, O(m·t·log t)
    numpy work.  This is kept apart from the urn's sampler so it stays an
    independent baseline.
    """
    m, t = uniforms.shape
    n = np.arange(1, t + 1)
    idx = (uniforms * (2 * n - 1)).astype(np.int64)
    # src is the 0-based step whose target step n takes; a step that lands
    # on a vertex slot points to itself.  Row offsets make the pointers
    # index the flattened block.
    src = np.where(idx & 1, idx >> 1, n - 1)
    src = (src + t * np.arange(m)[:, None]).ravel()
    while True:
        nxt = src[src]
        if (nxt == src).all():
            break
        src = nxt
    return (idx >> 1).ravel()[src].reshape(m, t) + 1


def ba_generate(t: int, seed) -> EvolvingGraph:
    """Generate a degree-proportional attachment graph with one edge per arrival."""
    rng = as_generator(seed)
    return graph_from_draws(ba_draws(t, rng))
