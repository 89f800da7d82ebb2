"""Opt-in outcome digest of a test run.

    pytest --outcome-digest=digest.json

writes, for every test, each `conic.solve` call (status, iterations, the
SHA-256 of the bytes of `primal`, `dual_eq` and `dual_cone`, and under
`program` one SHA-256 of the solved program's data: objective, the CSR
arrays of both maps, right-hand side, offset and cone blocks) and each
`driver.approximate` call (status, order, repr of gamma, atom count and,
for a certified outcome, its factor residual over the certification
budget), in call order, to a JSON file.  Two trees' digests compare every
program and solve bitwise and every outcome exactly:
`python tests/compare_digests.py A.json B.json` lists what moved and exits
1 when a status, order or atom count did.
Without the option nothing is wrapped.  Give
the path with `=`: pytest reads a separate argument that names an existing
file as a test path when it picks its root directory.
"""
from __future__ import annotations

import functools
import hashlib
import json
import sys

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--outcome-digest",
        metavar="PATH",
        default=None,
        help="write every conic.solve and driver.approximate outcome of the run to PATH as JSON",
    )


def _sha(arr) -> str | None:
    return None if arr is None else hashlib.sha256(arr.tobytes()).hexdigest()


def _program_sha(prog) -> str:
    h = hashlib.sha256()
    for mat in (prog.eq_map, prog.cone_map):
        for arr in (mat.data, mat.indices, mat.indptr):
            h.update(arr.tobytes())
    for arr in (prog.objective, prog.eq_rhs, prog.cone_offset):
        h.update(arr.tobytes())
    h.update(repr([(b.kind, b.size, b.order) for b in prog.cone_blocks]).encode())
    return h.hexdigest()


def _solve_record(sol, prog, *_, **__) -> dict:
    return {
        "call": "conic.solve",
        "status": sol.status,
        "iterations": int(sol.iterations),
        "program": _program_sha(prog),
        **{key: _sha(getattr(sol, key)) for key in ("primal", "dual_eq", "dual_cone")},
    }


def _outcome_record(out, *_, **__) -> dict:
    from cpproj.driver import _factor_budget
    from cpproj.extraction import verify_decomposition

    gamma = getattr(out, "gamma", getattr(out, "gamma_lower", None))
    dec = getattr(out, "decomposition", None)
    margin = None
    if dec is not None:
        X = out.matrix
        margin = verify_decomposition(X, dec) / _factor_budget(X, out.relaxation.conic)
    return {
        "call": "driver.approximate",
        "status": out.status,
        "k": getattr(out, "k_used", getattr(out, "k_last", None)),
        "gamma": repr(gamma),
        "atoms": None if dec is None else int(dec.rank),
        "margin": margin,
    }


class _OutcomeDigest:
    def __init__(self, path: str) -> None:
        import cpproj.conic
        import cpproj.driver

        self.path = path
        self.test = "<collection>"
        self.records: dict[str, list[dict]] = {}
        for original, record in (
            (cpproj.conic.solve, _solve_record),
            (cpproj.driver.approximate, _outcome_record),
        ):
            wrapped = self._recording(original, record)
            # rebind every cpproj module that imported the function by name
            for name, module in list(sys.modules.items()):
                if name == "cpproj" or name.startswith("cpproj."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def _recording(self, fn, record):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.records.setdefault(self.test, []).append(record(result, *args, **kwargs))
            return result

        return wrapper

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item):
        self.test = item.nodeid
        yield
        self.test = "<between tests>"

    def pytest_sessionfinish(self):
        with open(self.path, "w") as fh:
            json.dump(self.records, fh, indent=1, sort_keys=True)


def pytest_configure(config):
    path = config.getoption("outcome_digest")
    if path:
        config.pluginmanager.register(_OutcomeDigest(path), "outcome-digest")
