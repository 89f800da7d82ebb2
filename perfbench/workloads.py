"""The benchmark's workloads: inputs made from a seed, one timed call each.

Every workload turns a seed into a list of passes, each pass a list of
instances.  `call` is the only code that runs inside the timed region; the
checks in `check` run after timing, from the outputs alone.  Calls go through
module attributes (`cpproj.cli.run`, `cpproj.driver.approximate`,
`cpproj.relaxation.solve_relaxation`) so the trace sees every layer below.
"""
from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cpproj.cli
import cpproj.driver
import cpproj.relaxation
from cpproj.driver import DriverSettings
from cpproj.relaxation import ProblemSpec, map_solution, project_dnn

from recheck import recheck_cli, recheck_oracle, recheck_probe

REFERENCE_FILE = Path(__file__).with_name("reference_instances.json")
MAX_PASSES = 16  # inputs are generated for at most this many passes per run
ORACLE_SUITE_SEED = 7  # the acceptance suite's seed for its DNN-oracle instances
PROBE_BASE_SEED = 5  # seed of the probe's 4x4 matrix; --seed permutes it
PROBE_ORDER = 4


@dataclass
class Instance:
    name: str
    data: dict = field(default_factory=dict)


class ReferenceCli:
    """The acceptance suite's fixed instances, each run as `cpproj IN --norm N --output OUT`."""

    name = "reference-cli"
    calibration = "dense"

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.expected = {e["name"]: e for e in json.loads(REFERENCE_FILE.read_text())}

    def make(self, seed: int) -> list[list[Instance]]:
        inputs = self.outdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        shutil.rmtree(self.outdir / "outputs", ignore_errors=True)
        for name, entry in self.expected.items():
            (inputs / f"{name}.json").write_text(json.dumps(entry["problem"]))
        rng = np.random.default_rng(seed)
        names = sorted(self.expected)
        return [
            [Instance(names[i], {"pass": p}) for i in rng.permutation(len(names))]
            for p in range(MAX_PASSES)
        ]

    def call(self, inst: Instance, tracer=None):
        sub = "traced" if tracer else "timed"
        out = self.outdir / "outputs" / sub / str(inst.data["pass"]) / f"{inst.name}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        argv = [
            str(self.outdir / "inputs" / f"{inst.name}.json"),
            "--norm", self.expected[inst.name]["norm"],
            "--output", str(out),
        ]
        code = tracer.span("cli.run", cpproj.cli.run, argv) if tracer else cpproj.cli.run(argv)
        return code, out

    def check(self, inst: Instance, result) -> list[str]:
        code, out = result
        doc = json.loads(out.read_text()) if out.exists() else None
        return recheck_cli(self.expected[inst.name], code, doc)


class OracleApi:
    """The acceptance suite's random 3x3 Frobenius projections through `approximate`.

    The suite draws 50 matrices of size 3 or 4 from seed 7; this workload
    keeps the size-3 ones and runs them in a seeded order in every pass.
    """

    name = "oracle-api"
    calibration = "small"

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self._dnn: dict[str, float] = {}

    def make(self, seed: int) -> list[list[Instance]]:
        suite = np.random.default_rng(ORACLE_SUITE_SEED)
        base = []
        for i in range(50):
            n = int(suite.integers(3, 5))
            G = suite.standard_normal((n, n))
            if n == 3:
                base.append(Instance(f"rand{i}", {"C": (G + G.T) / 2.0}))
        self.outdir.mkdir(parents=True, exist_ok=True)
        (self.outdir / "oracle.json").write_text(
            json.dumps({inst.name: inst.data["C"].tolist() for inst in base})
        )
        rng = np.random.default_rng(seed)
        return [[base[i] for i in rng.permutation(len(base))] for _ in range(MAX_PASSES)]

    def call(self, inst: Instance, tracer=None):
        spec = ProblemSpec(inst.data["C"], "fro")
        return cpproj.driver.approximate(spec)

    def check(self, inst: Instance, outcome) -> list[str]:
        if inst.name not in self._dnn:
            self._dnn[inst.name] = project_dnn(inst.data["C"], "fro")[0]
        return recheck_oracle(outcome.status, getattr(outcome, "gamma", None), self._dnn[inst.name])


class Order4Probe:
    """Order-4 Frobenius relaxations of one 4x4 matrix under seeded relabelings.

    Relabeling rows and columns leaves the problem, its solution and its
    iteration count unchanged, so every solve costs the same work while the
    inputs still come from the seed.
    """

    name = "order4-probe"
    calibration = "dense"

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.solver = DriverSettings().solver
        self._bound2: dict[str, float] = {}

    def make(self, seed: int) -> list[list[Instance]]:
        G = np.random.default_rng(PROBE_BASE_SEED).standard_normal((4, 4))
        base = (G + G.T) / 2.0
        rng = np.random.default_rng(seed)
        passes, mats = [], []
        for p in range(MAX_PASSES):
            perm = rng.permutation(4)
            C = base[np.ix_(perm, perm)]
            mats.append(C.tolist())
            passes.append([Instance(f"probe{p}", {"C": C})])
        self.outdir.mkdir(parents=True, exist_ok=True)
        (self.outdir / f"probe-seed{seed}.json").write_text(json.dumps(mats))
        return passes

    def call(self, inst: Instance, tracer=None):
        spec = ProblemSpec(inst.data["C"], "fro")
        return cpproj.relaxation.solve_relaxation(spec, PROBE_ORDER, self.solver)

    def check(self, inst: Instance, result) -> list[str]:
        if inst.name not in self._bound2:
            spec = ProblemSpec(inst.data["C"], "fro")
            self._bound2[inst.name] = map_solution(
                *cpproj.relaxation.solve_relaxation(spec, 2, self.solver)
            ).gamma
        prog, sol = result
        return recheck_probe(prog, sol, self._bound2[inst.name])


WORKLOADS = {w.name: w for w in (ReferenceCli, OracleApi, Order4Probe)}
