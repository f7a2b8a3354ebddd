"""Attachment graphs grown from draw histories, plus a degree-proportional baseline.

Vertex j enters the graph at time j - 1 and corresponds to color j in the
urn.  Vertex 1 starts with a self-loop that counts exactly 1 toward its
degree, so every vertex enters with degree 1 and a vertex's degree is always
one more than its color's draw count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .schedules import Schedule
from .seeding import as_generator
from .urn import DrawHistory, sample_history


@dataclass
class EvolvingGraph:
    """Undirected attachment graph after t steps: t + 1 vertices, t + 1 edges.

    ``edges`` lists the initial self-loop (1, 1) first, then one attachment
    edge per step in birth order.  ``degrees`` is 1-indexed (entry 0 unused);
    the degree total is 2t + 1.
    """

    num_vertices: int
    edges: list[tuple[int, int]]
    degrees: np.ndarray = field(repr=False)

    @property
    def horizon(self) -> int:
        return self.num_vertices - 1

    def degree_of(self, j: int) -> int:
        if not 1 <= j <= self.num_vertices:
            raise IndexError(f"vertex {j} outside 1..{self.num_vertices}")
        return int(self.degrees[j])

    @staticmethod
    def birth_time(j: int) -> int:
        return j - 1

    def edge_list_text(self) -> str:
        """One 'u v' pair per line, the self-loop first."""
        return "".join(f"{u} {v}\n" for u, v in self.edges)

    def degree_rows(self):
        """Yield (vertex, degree, birth_time) for every vertex."""
        for j in range(1, self.num_vertices + 1):
            yield j, int(self.degrees[j]), j - 1


def graph_from_draws(draws: np.ndarray) -> EvolvingGraph:
    """Build the graph encoded by a sequence of drawn colors."""
    draws = np.asarray(draws, dtype=np.int64)
    t = len(draws)
    edges = [(1, 1)]
    edges.extend((int(draws[n]), n + 2) for n in range(t))
    degrees = np.bincount(draws, minlength=t + 2)
    degrees += 1
    degrees[0] = 0
    return EvolvingGraph(num_vertices=t + 1, edges=edges, degrees=degrees)


def reconstruct_graph(history: DrawHistory) -> EvolvingGraph:
    """Materialize the graph encoded by a draw history."""
    return graph_from_draws(history.draws)


def generate(t: int, schedule: Schedule, seed) -> tuple[DrawHistory, EvolvingGraph]:
    """Sample a history of length t and the graph it encodes."""
    rng = as_generator(seed)
    history = sample_history(t, schedule, rng)
    return history, reconstruct_graph(history)


def ba_draws(t: int, rng: np.random.Generator) -> np.ndarray:
    """Sample t degree-proportional attachment targets.

    Starts from a single vertex whose self-loop counts 1 toward its degree,
    so at step n the attachment probability of vertex j is its degree over
    2(n-1) + 1.  Sampling picks a uniform entry of the edge-endpoint list,
    which holds vertex 1 in slot 0 and, for each step k, its target in slot
    2k - 1 and vertex k + 1 in slot 2k.  Step n picks slot
    idx = floor(u_n·(2n - 1)): an even slot is vertex idx/2 + 1, an odd one
    copies the target of step (idx + 1)/2.  The copies are resolved by
    pointer jumping, O(t log t) numpy work.  This is kept apart from the
    urn's sampler so it stays an independent baseline.
    """
    n = np.arange(1, t + 1)
    idx = (rng.random(t) * (2 * n - 1)).astype(np.int64)
    # src is the 0-based step whose target step n takes; a step that lands
    # on a vertex slot points to itself.
    src = np.where(idx & 1, idx >> 1, n - 1)
    while True:
        nxt = src[src]
        if (nxt == src).all():
            break
        src = nxt
    return (idx >> 1)[src] + 1


def ba_generate(t: int, seed) -> EvolvingGraph:
    """Generate a degree-proportional attachment graph with one edge per arrival."""
    rng = as_generator(seed)
    return graph_from_draws(ba_draws(t, rng))
