import importlib

import cpproj

MODULES = (
    "cpproj",
    "cpproj.cli",
    "cpproj.conic",
    "cpproj.driver",
    "cpproj.extraction",
    "cpproj.moments",
    "cpproj.norms",
    "cpproj.polybasis",
    "cpproj.relaxation",
)


def test_package_exports_only_entry_points_and_outcomes():
    assert set(cpproj.__all__) == {
        "approximate",
        "check_cp_membership",
        "ProblemSpec",
        "LinearConstraint",
        "DriverSettings",
        "SolverSettings",
        "Projected",
        "Infeasible",
        "Inconclusive",
        "MembershipResult",
        "SolverFailure",
        "ConicSolverError",
        "CpDecomposition",
        "__version__",
    }
    assert len(cpproj.__all__) == len(set(cpproj.__all__))


def test_every_exported_name_resolves():
    for name in MODULES:
        module = importlib.import_module(name)
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert not missing, f"{name} exports missing names {missing}"
