"""Preferential-attachment graphs from an expanding-color urn.

A reinforcement urn starts with one ball; each step draws a ball in
proportion to mass, reinforces the drawn color by a scheduled amount, and
adds one ball of a brand-new color.  Connecting each new color's vertex to
the drawn color's vertex grows a preferential-attachment graph whose entire
structure is encoded by the draw sequence.  The package provides the urn
process, graph materialization, exact draw-count distributions (with an
exhaustive oracle), a reproducible Monte Carlo engine with a
degree-proportional baseline, and a CLI.

The namespace is lazy (PEP 562): ``import polyagraph`` imports no submodule
and not numpy.  A public name imports its submodule on first access, so
``from polyagraph import Constant`` loads ``polyagraph.schedules`` and no
more, and ``polyagraph.cli`` can set up the process before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {
    name: module
    for module, names in {
        "errors": ("CapExceeded", "ConfigError", "InsufficientData", "InvalidColor",
                   "PolyagraphError", "ScheduleParseError", "ScheduleRangeError"),
        "schedules": ("Constant", "NaturalLog", "RationalSegments", "Schedule", "Stepped",
                      "Table", "paper_f", "paper_g", "parse_schedule"),
        "seeding": ("as_generator", "replicate_generator"),
        "urn": ("GuideTable", "UrnState", "composition", "copy_pointer_draws",
                "marginal_draw_prob", "replay", "sample_history", "step"),
        "graphs": ("EvolvingGraph", "ba_draws", "generate", "graph_from_draws"),
        "exact": ("BRUTE_FORCE_CAP", "ENUMERATION_CAP", "Pmf", "brute_force_pmf",
                  "brute_force_table", "delta_one_simplified_pmf", "normalization_check",
                  "pmf_constant_delta", "pmf_constant_delta_dp", "pmf_dp", "pmf_general"),
        "experiments": ("ExperimentConfig", "MonteCarloResult",
                        "average_birth_time_of_graph", "degree_distribution",
                        "draw_count_histogram", "expected_birth_time_table",
                        "expected_degree_count_table", "run_monte_carlo", "tail_slope"),
        "configio": ("config_text", "load_config", "parse_config_text", "write_outputs"),
    }.items()
    for name in names
}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value
