"""One batch of exact draw-count queries, run in a fresh interpreter.

Usage: ``python exact_suite.py QUERIES.json RESULTS.json`` with polyagraph
importable.  Each query is a JSON object with a ``name``, a ``kind`` and the
arguments of that kind:

    general       pmf_general(j, t, schedule)         tuple sum, any schedule
    constant      pmf_constant_delta(j, t, delta)     tuple sum, constant amount
    dp            pmf_constant_delta_dp(j, t, delta)  quadratic recurrence
    oracle        brute_force_pmf(j, t, schedule)     t! path enumeration
    birth_table   expected_birth_time_table(t, schedule)
    degree_table  expected_degree_count_table(t, schedule)

A query with ``reference_for`` is the independent route a checked query is
compared against.  RESULTS.json maps each name to its probabilities or table
entries, written with ``repr`` precision.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

from polyagraph import exact, experiments
from polyagraph.schedules import parse_schedule


def _answer(query: dict) -> list[float]:
    kind = query["kind"]
    if kind in ("birth_table", "degree_table"):
        table = (experiments.expected_birth_time_table if kind == "birth_table"
                 else experiments.expected_degree_count_table)
        return table(query["t"], parse_schedule(query["schedule"])).tolist()
    j, t = query["j"], query["t"]
    if kind == "constant":
        pmf = exact.pmf_constant_delta(j, t, query["delta"])
    elif kind == "dp":
        pmf = exact.pmf_constant_delta_dp(j, t, query["delta"])
    elif kind == "oracle":
        pmf = exact.brute_force_pmf(j, t, parse_schedule(query["schedule"]))
    elif kind == "general":
        pmf = exact.pmf_general(j, t, parse_schedule(query["schedule"]))
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    return pmf.probs.tolist()


def run(queries: list[dict], span=lambda name: contextlib.nullcontext()) -> dict:
    """Answer every query in order; ``span(name)`` brackets each call."""
    results = {}
    for query in queries:
        label = "reference" if "reference_for" in query else query["kind"]
        with span(f"suite.{label}"):
            results[query["name"]] = _answer(query)
    return results


def main(argv: list[str], span=lambda name: contextlib.nullcontext()) -> int:
    queries_path, results_path = argv
    queries = json.loads(Path(queries_path).read_text())
    results = run(queries, span)
    Path(results_path).write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
