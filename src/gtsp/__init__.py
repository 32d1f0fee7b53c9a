"""Generalized traveling salesman problem toolkit.

Solvers for complete graphs whose nodes are partitioned into clusters and a
tour must visit exactly one node per cluster: an exact layered-network search,
a generalized nearest-neighbor heuristic, and two ant colony systems (the
classic ACS and a reinforcing variant, RACS), plus a benchmark harness.
"""

from .aco import (
    AcoParams,
    AntState,
    ColonyState,
    PheromoneMatrix,
    RunResult,
    choose_next,
    evaporation_reinit,
    global_update,
    local_update,
    run,
    transition_distribution,
)
from .bench import (
    DEFAULT_TIME_MAX,
    ExperimentConfig,
    RunReport,
    SolveResult,
    emit_table,
    load_instance_file,
    run_experiment,
    sidecar_optimum,
    solve,
)
from .construct import (
    InvalidTourError,
    Tour,
    make_tour,
    nn_reference_cost,
    nn_tour,
    tour_cost,
    validate_tour,
)
from .exact import (
    DEFAULT_CELL_CAP,
    CellCapExceeded,
    best_tour_for_sequence,
    dp_cell_count,
    exact_solve,
)
from .instance import (
    CostMatrix,
    CostOverflowError,
    GtspInstance,
    NodeCoords,
    ParseError,
    cluster_instance,
    default_cluster_count,
    euc2d_costs,
    format_clustered,
    format_instance_name,
    generate_instance,
    parse_clustered,
    parse_instance_name,
    parse_tsplib,
)

__version__ = "0.1.0"
