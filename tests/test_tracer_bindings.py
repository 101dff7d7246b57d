"""Every binding the benchmark tracer wraps resolves, and every count a span
reads exists on real arguments and results, so a rename or a removed field
in bspde that would break the traced benchmark fails here."""

import importlib.util
import os

import pytest

from bspde import (
    SolverConfig,
    build_malliavin_system,
    build_partition,
    builtin_problem,
    check_representation_identity,
    difference_stack_arrays,
    export_lattice_csv,
    solve,
    solve_malliavin_system,
)
from bspde.stochastics import ConditionalEstimator

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
_spec = importlib.util.spec_from_file_location("tracer", _PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

BINDINGS = [
    (name, owner, attr) for name, bindings in tracer.BINDINGS.items() for owner, attr in bindings
]


@pytest.mark.parametrize("name,owner_path,attr", BINDINGS, ids=[f"{o}.{a}" for _, o, a in BINDINGS])
def test_binding_resolves(name, owner_path, attr):
    owner = tracer._resolve_owner(owner_path)
    held = owner if isinstance(owner, dict) else vars(owner)
    assert attr in held, f"{name}: {owner_path} has no {attr}"


def test_span_attributes_read_real_arguments_and_results(tmp_path):
    """Each span's counts come from its call's real arguments and result, so
    a field that the benchmark reads (fp_iterations, D_V, rows, ...) cannot
    be removed without this failing."""
    spec, part = builtin_problem("linear_scalar"), build_partition(1.0, 2, [1.0], [1])
    config = SolverConfig(algorithm="two", samples=20, seed=1)
    lattice = solve(spec, part, config)
    system = build_malliavin_system(lattice, 0)
    estimator = ConditionalEstimator(config.estimator, lattice.paths)
    field = lattice.V[0, (0,)][:, 1]
    paths = [str(tmp_path / "v.csv"), str(tmp_path / "vbar.csv")]
    calls = {
        "solver.solve": ((spec, part, config), lattice),
        "analysis.malliavin_solve": ((system, lattice), solve_malliavin_system(system, lattice)),
        "analysis.identity_check": ((lattice,), check_representation_identity(lattice)),
        "stochastics.condexp": ((estimator, field, 1), estimator.cond_mean(field, 1)),
        "grid.difference_stack": ((field,), difference_stack_arrays(field, 1, part, batch_ndim=1)),
        "solver.export": ((lattice, *paths), export_lattice_csv(lattice, *paths)),
    }
    for name, (args, result) in calls.items():
        attrs = tracer._span_attrs(name, args, result)
        assert attrs and all(value > 0 for value in attrs.values()), (name, attrs)
