"""The public surface of the `gtsp` package, pinned so that a name is added
or removed on purpose."""

import inspect

import gtsp
import gtsp.aco


def test_package_exports():
    public = {name for name, value in vars(gtsp).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == {
        # colony
        "AcoParams", "RunResult", "run",
        # benchmark harness
        "DEFAULT_TIME_MAX", "ExperimentConfig", "RunReport", "emit_table", "load_instance_file",
        "run_experiment", "sidecar_optimum", "solve",
        # tours and NN
        "InvalidTourError", "Tour", "make_tour", "nn_reference_cost", "nn_tour", "tour_cost",
        "validate_tour",
        # exact
        "DEFAULT_CELL_CAP", "CellCapExceeded", "dp_cell_count", "exact_solve",
        # instances
        "CostMatrix", "CostOverflowError", "GtspInstance", "NodeCoords", "ParseError",
        "cluster_instance", "default_cluster_count", "euc2d_costs", "format_clustered",
        "format_instance_name", "generate_instance", "parse_tsplib",
    }


def test_colony_stream():
    # `run` drives `iterate`, the one construction loop, and has no other hook
    assert inspect.isgeneratorfunction(gtsp.aco.iterate)
    assert list(inspect.signature(gtsp.aco.iterate).parameters) == ["instance", "params"]
    assert list(inspect.signature(gtsp.aco.run).parameters) == ["instance", "params"]
    assert gtsp.aco.Iteration._fields == (
        "paths", "lengths", "trails", "tau0", "tau_max", "reset", "incumbent", "n",
    )
    # the (n, n) trails, built from the trail store when read
    assert isinstance(gtsp.aco.Iteration.tau, property)
    assert list(inspect.signature(gtsp.aco.evaporation_reinit).parameters) == [
        "tau", "tau0", "tau_max",
    ]
    for gone in ("iteration_observer", "IterationObserver", "ColonyState", "PheromoneMatrix"):
        assert not hasattr(gtsp.aco, gone)
