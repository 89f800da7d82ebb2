"""Opt-in outcome digest of a test run.

    pytest --outcome-digest=digest.json

writes, for every test, each `conic.solve` call (status, iterations and the
SHA-256 of the bytes of `primal`, `dual_eq` and `dual_cone`) and each
`driver.approximate` call (status, order, repr of gamma and atom count), in
call order, to a JSON file.  Two trees' digests compare every solve bitwise
and every outcome exactly.  Without the option nothing is wrapped.  Give
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


def _solve_record(sol) -> dict:
    return {
        "call": "conic.solve",
        "status": sol.status,
        "iterations": int(sol.iterations),
        **{key: _sha(getattr(sol, key)) for key in ("primal", "dual_eq", "dual_cone")},
    }


def _outcome_record(out) -> dict:
    gamma = getattr(out, "gamma", getattr(out, "gamma_lower", None))
    dec = getattr(out, "decomposition", None)
    return {
        "call": "driver.approximate",
        "status": out.status,
        "k": getattr(out, "k_used", getattr(out, "k_last", None)),
        "gamma": repr(gamma),
        "atoms": None if dec is None else int(dec.rank),
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
            self.records.setdefault(self.test, []).append(record(result))
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
