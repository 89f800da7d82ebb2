"""Outside-in layer trace for the cpproj benchmark.

The trace never edits the package.  It rebinds, for the length of a traced
pass, the module attributes that callers look up at call time (for example
`cpproj.driver.check_flat`, which the driver resolves in its own module
globals on every call) and records one span per call.  Spans stay in memory
and are written out when the benchmark ends.  A name that the package no
longer has is recorded as absent and skipped, so a later change that deletes
a layer does not break the benchmark.
"""
from __future__ import annotations

import functools
import importlib
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

# (module, attribute, span name, extra attributes) for every rebound name.
# The conic solver is reached through two modules: relaxation solves come
# from `cpproj.relaxation`, extreme-point witness solves from `cpproj.driver`.
TRACE_POINTS = (
    ("cpproj.relaxation", "assemble", "relaxation.assemble", {}),
    ("cpproj.relaxation", "conic_solve", "conic.solve", {"role": "relax"}),
    ("cpproj.driver", "conic_solve", "conic.solve", {"role": "witness"}),
    ("cpproj.driver", "assemble_witness", "relaxation.assemble_witness", {}),
    ("cpproj.driver", "check_flat", "moments.check_flat", {}),
    ("cpproj.driver", "extract_atoms", "extraction.extract_atoms", {}),
    ("cpproj.driver", "polish_decomposition", "extraction.polish", {}),
    ("cpproj.driver", "sparsify_decomposition", "extraction.sparsify", {}),
    ("cpproj.driver", "approximate", "driver.approximate", {}),
    ("cpproj.cli", "approximate", "driver.approximate", {}),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    instance: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _result_attrs(name: str, result) -> dict:
    """What a span keeps from the value its call returned."""
    if name == "conic.solve":
        return {"status": result.status, "iterations": int(result.iterations)}
    if name == "moments.check_flat":
        return {"flat": bool(result.is_flat)}
    return {}


class Tracer:
    """Records spans while installed; `span` also opens spans by hand."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.instance = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, *args, attrs: Optional[dict] = None, **kwargs):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        idx = len(self.spans)
        rec = Span(
            name,
            0.0,
            0.0,
            self._stack[-1] if self._stack else None,
            self.instance,
            dict(attrs or {}),
        )
        self.spans.append(rec)
        self._stack.append(idx)
        rec.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.end = time.perf_counter()
            rec.attrs["error"] = type(exc).__name__
            raise
        finally:
            self._stack.pop()
        rec.end = time.perf_counter()
        rec.attrs.update(_result_attrs(name, result))
        return result

    def _wrap(self, fn: Callable, name: str, attrs: dict) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, attrs=attrs, **kwargs)

        return traced

    def install(self, points=TRACE_POINTS) -> None:
        for modname, attr, name, attrs in points:
            module = importlib.import_module(modname)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, attrs))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def to_json(self) -> dict:
        return {"absent": self.absent, "spans": [asdict(s) for s in self.spans]}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def layer_metrics(spans: list[Span], traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics, keyed by the names BENCHMARK.json lists."""
    own = self_times(spans)

    def pick(name, **want):
        return [
            (s, t)
            for s, t in zip(spans, own)
            if s.name == name and all(s.attrs.get(k) == v for k, v in want.items())
        ]

    def total(rows):
        return sum(t for _, t in rows)

    def frac(rows, pred):
        return sum(1 for s, _ in rows if pred(s)) / len(rows) if rows else 0.0

    relax = pick("conic.solve", role="relax")
    witness = pick("conic.solve", role="witness")
    solves = relax + witness
    iters = sum(s.attrs.get("iterations", 0) for s, _ in solves)
    flat = pick("moments.check_flat")
    extract = pick("extraction.extract_atoms")
    polish = pick("extraction.polish")
    sparsify = pick("extraction.sparsify")
    metrics = {
        "relaxation.assemble_s": (total(pick("relaxation.assemble")), "s"),
        "relaxation.assemble_calls": (len(pick("relaxation.assemble")), "count"),
        "relaxation.witness_assemble_calls": (len(pick("relaxation.assemble_witness")), "count"),
        "conic.relax_s": (total(relax), "s"),
        "conic.relax_calls": (len(relax), "count"),
        "conic.relax_iters": (sum(s.attrs.get("iterations", 0) for s, _ in relax), "count"),
        "conic.witness_s": (total(witness), "s"),
        "conic.witness_calls": (len(witness), "count"),
        "conic.witness_iters": (sum(s.attrs.get("iterations", 0) for s, _ in witness), "count"),
        "conic.iter_s": (total(solves) / iters if iters else 0.0, "s"),
        "conic.nonoptimal_frac": (
            frac(solves, lambda s: s.attrs.get("status") not in ("optimal", "primal_infeasible")),
            "ratio",
        ),
        "moments.check_flat_s": (total(flat), "s"),
        "moments.check_flat_calls": (len(flat), "count"),
        "moments.flat_frac": (frac(flat, lambda s: s.attrs.get("flat") is True), "ratio"),
        "extraction.extract_s": (total(extract), "s"),
        "extraction.extract_calls": (len(extract), "count"),
        "extraction.extract_fail_frac": (frac(extract, lambda s: "error" in s.attrs), "ratio"),
        "extraction.polish_s": (total(polish), "s"),
        "extraction.polish_calls": (len(polish), "count"),
        "extraction.sparsify_s": (total(sparsify), "s"),
        "extraction.sparsify_calls": (len(sparsify), "count"),
        "driver.self_s": (total(pick("driver.approximate")), "s"),
        "cli.self_s": (total(pick("cli.run")), "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}
