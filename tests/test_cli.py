import json

import pytest

from graphknap.cli import run


@pytest.fixture()
def p4_file(tmp_path):
    path = tmp_path / "p4.json"
    path.write_text(json.dumps({
        "generators": ["a", "b", "c", "d"],
        "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
    }))
    return str(path)


@pytest.fixture()
def f2_file(tmp_path):
    path = tmp_path / "f2.json"
    path.write_text(json.dumps({"generators": ["a", "b"], "edges": []}))
    return str(path)


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "alphabet": {"generators": ["a", "b"], "edges": []},
        "constants": [[], [], ["b^-1", "a^-1"]],
        "cycles": [["a"], ["b"]],
        "variables": ["x", "y"],
        "mode": "knapsack",
    }))
    return str(path)


def _run(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_classify_general(capsys, p4_file):
    code, payload = _run(capsys, ["classify", "-i", p4_file])
    assert code == 0
    assert payload == {"class": "general", "witness": ["a", "b", "c", "d"]}


def test_classify_deterministic_output(capsys, p4_file):
    run(["classify", "-i", p4_file])
    first = capsys.readouterr().out
    run(["classify", "-i", p4_file])
    second = capsys.readouterr().out
    assert first == second


def test_decompose(capsys, f2_file):
    code, payload = _run(capsys, ["decompose", "-i", f2_file])
    assert code == 0
    assert payload["tree"]["kind"] == "free_product"


def test_wp_reduce(capsys, f2_file):
    code, payload = _run(capsys, ["wp", "-i", f2_file, "--word", '["a","b","a^-1","b^-1"]'])
    assert code == 0
    assert payload["identity"] is False


def test_wp_stacked(capsys, f2_file):
    code, payload = _run(capsys, ["wp", "-i", f2_file, "--word", '["a","a^-1"]', "--alg", "stacked"])
    assert code == 0
    assert payload == {"identity": True}


def test_trace_eq(capsys, p4_file):
    code, payload = _run(capsys, ["trace-eq", "-i", p4_file, "--left", '["a","b"]', "--right", '["b","a"]'])
    assert code == 0
    assert payload == {"equal": True}


def test_solve_knapsack(capsys, instance_file):
    code, payload = _run(capsys, ["solve", "-i", instance_file])
    assert code == 0
    assert payload["status"] == "solvable"
    assert payload["assignment"] == {"x": 1, "y": 1}


def test_solve_subsetsum_mode(capsys, instance_file):
    code, payload = _run(capsys, ["solve", "-i", instance_file, "--mode", "subsetsum"])
    assert code == 0
    assert payload["status"] == "solvable"


def test_solve_unknown_exit_code(capsys, tmp_path):
    p4 = {"generators": ["a", "b", "c", "d"], "edges": [["a", "b"], ["b", "c"], ["c", "d"]]}
    # [a,d]^x [a,d]^y [d,a]^5: solvable with x + y = 5, but the abelian set is
    # infinite and search stops at the ceiling
    path = tmp_path / "p4inst.json"
    path.write_text(json.dumps({
        "alphabet": p4,
        "constants": [[], [], ["d", "a", "d^-1", "a^-1"] * 5],
        "cycles": [["a", "d", "a^-1", "d^-1"]] * 2,
        "variables": ["x", "y"],
        "mode": "knapsack",
    }))
    code, payload = _run(capsys, ["solve", "-i", str(path), "--ceiling", "2"])
    assert code == 2
    assert payload["status"] == "unknown"
    # a^x a^-5: the abelian set is the one point x = 5, which verifies
    path.write_text(json.dumps({
        "alphabet": p4,
        "constants": [[], ["a^-1", "a^-1", "a^-1", "a^-1", "a^-1"]],
        "cycles": [["a"]],
        "variables": ["x"],
        "mode": "knapsack",
    }))
    code, payload = _run(capsys, ["solve", "-i", str(path), "--ceiling", "2"])
    assert code == 0
    assert payload["status"] == "solvable" and payload["method"] == "abelian-pin"
    assert payload["assignment"] == {"x": 5}


def test_solve_json_names_method_and_provenance(capsys, tmp_path):
    # (a d a^-1 d^-1)^x a d on P4: a's exponent sum is 1 for every x
    path = tmp_path / "p4inst.json"
    path.write_text(json.dumps({
        "alphabet": {"generators": ["a", "b", "c", "d"],
                     "edges": [["a", "b"], ["b", "c"], ["c", "d"]]},
        "constants": [[], ["a", "d"]],
        "cycles": [["a", "d", "a^-1", "d^-1"]],
        "variables": ["x"],
        "mode": "knapsack",
    }))
    code, payload = _run(capsys, ["solve", "-i", str(path)])
    assert code == 0
    assert payload["status"] == "unsolvable"
    assert payload["method"] == "abelian-precheck"
    assert payload["bound_provenance"] == "abelianized equation has no solution over the naturals"


def test_bound_report(capsys, instance_file):
    code, payload = _run(capsys, ["bound", "-i", instance_file])
    assert code == 0
    assert payload["value"] == 65
    assert payload["n"] == 4 and payload["k"] == 2


def test_oracle_brute(capsys, instance_file):
    code, payload = _run(capsys, ["oracle", "brute", "-i", instance_file, "--bound", "3"])
    assert code == 0
    assert payload["count"] == 1
    assert payload["solutions"] == [{"x": 1, "y": 1}]


def test_automaton_member(capsys, tmp_path, f2_file):
    path = tmp_path / "aut.json"
    path.write_text(json.dumps({
        "states": 2, "initial": 0, "finals": [1],
        "transitions": [{"from": 0, "to": 1, "label": ["a", "a^-1"]}],
        "loops": [],
    }))
    code, payload = _run(capsys, ["automaton", "member", "-i", str(path), "--alphabet", f2_file])
    assert code == 0
    assert payload["member"] is True and payload["witness"] == [0]


def test_automaton_member_loop_needs_budget(capsys, tmp_path, f2_file):
    path = tmp_path / "aut.json"
    path.write_text(json.dumps({
        "states": 2, "initial": 0, "finals": [1],
        "transitions": [{"from": 0, "to": 1, "label": ["a"]}],
        "loops": [{"state": 0, "label": ["a", "a^-1"]}],
    }))
    assert run(["automaton", "member", "-i", str(path), "--alphabet", f2_file]) == 1
    capsys.readouterr()
    code, payload = _run(capsys, ["automaton", "member", "-i", str(path), "--alphabet", f2_file, "--budget", "2"])
    assert code == 0
    assert payload["member"] is False


def test_gen_sat_p4(capsys, tmp_path):
    cnf = tmp_path / "formula.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    code, payload = _run(capsys, ["gen", "sat-p4", "-i", str(cnf)])
    assert code == 0
    assert payload["budget"] == 4
    assert payload["instance"]["variables"]


def test_gen_f2_gadget(capsys, tmp_path):
    path = tmp_path / "aut.json"
    path.write_text(json.dumps({
        "states": 2, "initial": 0, "finals": [1],
        "transitions": [{"from": 0, "to": 1, "label": ["a", "a^-1"]}],
        "loops": [],
    }))
    code, payload = _run(capsys, ["gen", "f2-gadget", "-i", str(path)])
    assert code == 0
    assert payload["budget"] == 1
    assert payload["instance"]["alphabet"] == {"generators": ["a", "b"], "edges": []}


def test_seed_echoed(capsys, f2_file):
    code, payload = _run(capsys, ["--seed", "42", "classify", "-i", f2_file])
    assert code == 0
    assert payload["seed"] == 42


def test_usage_error_exit_one(capsys):
    assert run(["classify"]) == 1
    assert run(["nope"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)


def test_input_error_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"generators\": [\"a\", \"a\"]}")
    assert run(["classify", "-i", str(bad)]) == 1


def _rejected(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "nonnegative" in captured.err and "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_solve_rejects_negative_ceiling(capsys, instance_file):
    _rejected(capsys, ["solve", "-i", instance_file, "--ceiling", "-5"])


def test_oracle_rejects_negative_bound(capsys, instance_file):
    _rejected(capsys, ["oracle", "brute", "-i", instance_file, "--bound", "-1"])


def test_automaton_member_rejects_negative_budget(capsys, tmp_path, f2_file):
    path = tmp_path / "aut.json"
    path.write_text(json.dumps({
        "states": 2, "initial": 0, "finals": [1],
        "transitions": [{"from": 0, "to": 1, "label": ["a", "a^-1"]}],
    }))
    _rejected(capsys, ["automaton", "member", "-i", str(path), "--alphabet", f2_file,
                       "--budget", "-1"])


def test_output_file_written(capsys, tmp_path, f2_file):
    out = tmp_path / "out.json"
    code, payload = _run(capsys, ["-o", str(out), "classify", "-i", f2_file])
    assert code == 0
    assert json.loads(out.read_text()) == payload
