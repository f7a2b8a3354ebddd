"""Preferential-attachment graphs from an expanding-color urn.

A reinforcement urn starts with one ball; each step draws a ball in
proportion to mass, reinforces the drawn color by a scheduled amount, and
adds one ball of a brand-new color.  Connecting each new color's vertex to
the drawn color's vertex grows a preferential-attachment graph whose entire
structure is encoded by the draw sequence.  The package provides the urn
process, graph materialization, exact draw-count distributions (with an
exhaustive oracle), a reproducible Monte Carlo engine with a
degree-proportional baseline, and a CLI.
"""

from .errors import (
    CapExceeded,
    ConfigError,
    InsufficientData,
    InvalidColor,
    PolyagraphError,
    ScheduleParseError,
    ScheduleRangeError,
)
from .schedules import (
    Constant,
    NaturalLog,
    RationalSegments,
    Schedule,
    Stepped,
    Table,
    paper_f,
    paper_g,
    parse_schedule,
)
from .seeding import as_generator, replicate_generator
from .urn import (
    DrawHistory,
    UrnState,
    composition,
    conditional_draw_pmf,
    copy_pointer_draws,
    marginal_draw_prob,
    new_color_draw_prob,
    new_urn,
    sample_history,
    step,
)
from .graphs import (
    EvolvingGraph,
    ba_draws,
    ba_generate,
    generate,
    graph_from_draws,
    reconstruct_graph,
)
from .exact import (
    BRUTE_FORCE_CAP,
    ENUMERATION_CAP,
    Pmf,
    brute_force_pmf,
    brute_force_table,
    delta_one_simplified_pmf,
    normalization_check,
    pmf_constant_delta,
    pmf_constant_delta_dp,
    pmf_delta_one,
    pmf_general,
)
from .experiments import (
    BirthTimeCurve,
    DegreeHistogram,
    ExperimentConfig,
    MonteCarloResult,
    average_birth_time,
    average_birth_time_of_graph,
    degree_distribution,
    draw_count_histogram,
    expected_birth_time_exact,
    expected_birth_time_table,
    expected_degree_count_table,
    run_monte_carlo,
    tail_slope,
)
from .configio import load_config, parse_config_text, save_config, write_outputs

__version__ = "0.1.0"
