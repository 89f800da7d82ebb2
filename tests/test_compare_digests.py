import json

from compare_digests import main


def _solve(status, iterations, primal):
    return {"call": "conic.solve", "status": status, "iterations": iterations,
            "primal": primal, "dual_eq": "y", "dual_cone": "z"}


def _outcome(status, k, gamma, atoms, margin=None):
    return {"call": "driver.approximate", "status": status, "k": k,
            "gamma": repr(gamma), "atoms": atoms, "margin": margin}


def _run(tmp_path, capsys, a, b):
    paths = []
    for name, digest in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(digest))
        paths.append(str(tmp_path / name))
    code = main(paths)
    return code, capsys.readouterr().out.splitlines()


def test_moved_bits_iterations_and_gamma_print_but_pass(tmp_path, capsys):
    a = {"t::one": [_solve("optimal", 9, "p"), _outcome("projected", 1, 2.0, 3)],
         "t::two": [_solve("optimal", 12, "q"), _outcome("inconclusive", 2, None, None)]}
    b = {"t::one": [_solve("optimal", 8, "p2"), _outcome("projected", 1, 2.0 + 4e-10, 3)],
         "t::two": [_solve("optimal", 12, "q"), _outcome("inconclusive", 2, None, None)]}
    code, out = _run(tmp_path, capsys, a, b)
    assert code == 0
    assert out[:4] == [
        "solves with changed bits: 1",
        "  t::one: 1 of 1 (#0)",
        "solves with changed status or iterations: 1",
        "  t::one #0: optimal 9 -> optimal 8",
    ]
    assert "outcomes with changed status, k or atoms: 0" in out
    assert "largest relative gamma move: 2e-10 (t::one #0)" in out


def test_a_changed_status_order_or_atom_count_fails(tmp_path, capsys):
    a = {"t::one": [_outcome("projected", 1, 0.5, 3)], "t::two": [_outcome("projected", 2, 0.5, 3)]}
    for changed in (_outcome("inconclusive", 1, 0.5, None), _outcome("projected", 2, 0.5, 3),
                    _outcome("projected", 1, 0.5, 4)):
        code, out = _run(tmp_path, capsys, a, {**a, "t::one": [changed]})
        assert code == 1
        assert "outcomes with changed status, k or atoms: 1" in out
    code, out = _run(tmp_path, capsys, {"t::s": [_solve("optimal", 9, "p")]},
                     {"t::s": [_solve("iteration_limit", 9, "p")]})
    assert code == 1
    assert "  t::s #0: optimal 9 -> iteration_limit 9" in out


def test_a_moved_outcome_prints_its_margin_on_both_sides(tmp_path, capsys):
    a = {"t::one": [_outcome("projected", 1, 0.5, 4, margin=0.94)]}
    b = {"t::one": [_outcome("projected", 3, 0.5, 4, margin=0.021)]}
    code, out = _run(tmp_path, capsys, a, b)
    assert code == 1
    assert "  t::one #0: projected k=1 atoms=4 -> projected k=3 atoms=4 (margin 0.94 -> 0.021)" in out
    # an uncertified side, or a digest written before the field, prints "-"
    del a["t::one"][0]["margin"]
    b = {"t::one": [_outcome("inconclusive", 3, 0.5, None)]}
    code, out = _run(tmp_path, capsys, a, b)
    assert "  t::one #0: projected k=1 atoms=4 -> inconclusive k=3 atoms=None (margin - -> -)" in out


def test_the_largest_margins_and_the_largest_paired_rise_print_but_pass(tmp_path, capsys):
    def digest(m1, m2, m3):
        return {"t::one": [_outcome("projected", 1, 0.5, 4, margin=m1),
                           _outcome("projected", 1, 0.5, 2, margin=m2)],
                "t::two": [_outcome("projected", 2, 0.5, 3, margin=m3),
                           _outcome("inconclusive", 3, None, None)]}

    a, b = digest(0.36, 0.86, 0.5), digest(0.52, 0.87, 0.1)
    code, out = _run(tmp_path, capsys, a, b)
    assert code == 0
    assert "largest margin: A 0.86 (t::one #1), B 0.87 (t::one #1)" in out
    assert "largest paired margin rise: 0.16 (t::one #0: 0.36 -> 0.52)" in out
    # no margin on a side, or no paired margin that rose
    code, out = _run(tmp_path, capsys, a, {"t::one": [], "t::two": []})
    assert "largest margin: A 0.86 (t::one #1), B -" in out
    assert "largest paired margin rise: 0" in out


def test_moved_programs_print_but_pass_and_an_old_digest_is_not_recorded(tmp_path, capsys):
    def solve(program, primal="p"):
        return {**_solve("optimal", 9, primal), "program": program}

    a = {"t::one": [solve("P"), solve("Q")], "t::two": [solve("R")]}
    b = {"t::one": [solve("P"), solve("Q2", "p2")], "t::two": [solve("R", "p3")]}
    code, out = _run(tmp_path, capsys, a, b)
    assert code == 0
    # the program and the solve of t::one #1 moved; t::two #0 moved on the same program
    assert "solves with changed bits: 2" in out
    i = out.index("programs with changed data: 1")
    assert out[i + 1] == "  t::one: 1 of 2 (#1)"
    assert out[i + 2].startswith("outcomes with changed")
    # a digest written before the field records no programs on either side
    del b["t::two"][0]["program"]
    code, out = _run(tmp_path, capsys, a, b)
    assert code == 0
    assert "programs with changed data: not recorded" in out
