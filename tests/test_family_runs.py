"""The family runs of `family_runs.py`, checked as a list without solving,
and its `--compare` verdicts on hand-made runs."""
import json
from collections import Counter

import numpy as np

from family_runs import family_runs, main


def test_the_family_runs_are_the_204_listed_runs():
    runs = family_runs()
    names = [name for name, *_ in runs]
    assert len(runs) == 204 and len(set(names)) == 204
    families = Counter(
        next(f for f in ("d2026", "rng21", "sizing", "BtB") if name.startswith(f))
        if not name.startswith(("CYCLE5", "pc")) else "cycle"
        for name in names
    )
    assert families == {"cycle": 27, "d2026": 100, "rng21": 30, "sizing": 7, "BtB": 40}
    for name, C, norm, k_max in runs:
        assert C.shape[0] == C.shape[1] and np.array_equal(C, C.T), name
        if name.startswith(("CYCLE5", "pc")):
            assert name.endswith(norm) and k_max == 3
        elif name.startswith("d2026"):
            assert norm == ("fro", "one", "two")[int(name.split("#")[1]) % 3] and k_max == 3
        elif name.startswith("rng21"):
            assert (norm, k_max) == ("one", 3)
        elif name.startswith("sizing"):
            assert (norm, k_max) == ("fro", 2)
        else:
            assert (norm, k_max) == ("fro", 3)
            assert C.shape[0] == 4 + int(name.split("#")[1]) % 3 and C.min() >= 0.0
    assert Counter(norm for *_, norm, _ in runs) == {"fro": 90, "one": 72, "two": 42}
    assert {name for name in names if name.startswith("sizing")} == {
        f"sizing-{n}" for n in (5, 6, 7, 8, 9, 10, 12)
    }


def _record(name, status="projected", order=1, atoms=3, start="edge"):
    return {"name": name, "norm": "fro", "k_max": 3, "status": status, "order": order,
            "atoms": atoms, "start": start, "seconds": 0.1}


def _compare(tmp_path, capsys, a, b):
    paths = []
    for name, runs in (("a.jsonl", a), ("b.jsonl", b)):
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in runs))
        paths.append(str(tmp_path / name))
    code = main(["--compare", *paths])
    return code, capsys.readouterr().out.splitlines()


def test_compare_fails_on_a_moved_outcome_and_only_prints_a_moved_start(tmp_path, capsys):
    a = [_record("x"), _record("y")]
    code, out = _compare(tmp_path, capsys, a, [_record("x"), _record("y", start="clique")])
    assert code == 0
    assert "runs with only a changed start: 1" in out and "  y: start edge -> clique" in out
    for change in ({"atoms": 4}, {"order": 2}, {"status": "inconclusive"}):
        code, out = _compare(tmp_path, capsys, a, [_record("x"), _record("y", **change)])
        assert code == 1 and "runs with changed status, order or atoms: 1" in out
    code, out = _compare(tmp_path, capsys, a, [_record("x")])
    assert code == 1 and "  y: only in A" in out
