import json

import pytest

from graphknap import (
    ExponentEquation,
    JsonFormatError,
    LinearSet,
    SemilinearSet,
    WordAutomaton,
    decompose,
    validate_alphabet,
    word_from_strs,
)
from graphknap.jsonio import (
    alphabet_from_json,
    alphabet_to_json,
    automaton_from_json,
    automaton_to_json,
    dumps,
    instance_from_json,
    instance_to_json,
    semilinear_from_json,
    semilinear_to_json,
    tree_to_json,
    word_from_json,
    word_to_json,
)


def test_alphabet_roundtrip():
    alpha = validate_alphabet(["a", "b", "c"], [["b", "c"], ["a", "b"]])
    doc = alphabet_to_json(alpha)
    assert doc == {"generators": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}
    assert alphabet_from_json(doc) == alpha


def test_alphabet_bad_documents():
    with pytest.raises(JsonFormatError):
        alphabet_from_json({"edges": []})
    with pytest.raises(JsonFormatError):
        alphabet_from_json([1, 2])


def test_word_roundtrip():
    word = word_from_strs(["a", "b^-1"])
    assert word_to_json(word) == ["a", "b^-1"]
    assert word_from_json(["a", "b^-1"]) == word
    with pytest.raises(JsonFormatError):
        word_from_json("ab")


def test_automaton_roundtrip():
    aut = WordAutomaton(
        3,
        0,
        frozenset({2}),
        ((0, word_from_strs(["a"]), 1), (1, word_from_strs(["a^-1"]), 2)),
        ((1, word_from_strs(["b", "c"])),),
    )
    doc = automaton_to_json(aut)
    assert automaton_from_json(doc) == aut
    assert doc["states"] == 3 and doc["loops"][0]["state"] == 1


def test_instance_roundtrip():
    alpha = validate_alphabet(["a", "b"], [])
    eq = ExponentEquation(
        alpha,
        ((), (), word_from_strs(["b^-1", "a^-1"])),
        (word_from_strs(["a"]), word_from_strs(["b"])),
        ("x", "y"),
        mode="subsetsum",
    )
    doc = instance_to_json(eq)
    again = instance_from_json(doc)
    assert again == eq
    assert doc["mode"] == "subsetsum"


def test_instance_rejects_bad_shapes():
    with pytest.raises(JsonFormatError):
        instance_from_json({"alphabet": {"generators": ["a"], "edges": []}})


@pytest.mark.parametrize("key", ["variables", "constants", "cycles"])
def test_instance_rejects_non_list_fields(key):
    doc = {
        "alphabet": {"generators": ["a"], "edges": []},
        "constants": [[], []],
        "cycles": [["a"]],
        "variables": ["x"],
    }
    doc[key] = 5
    with pytest.raises(JsonFormatError):
        instance_from_json(doc)


_AUTOMATON_DOC = {
    "states": 2, "initial": 0, "finals": [1],
    "transitions": [{"from": 0, "to": 1, "label": ["a", "a^-1"]}],
    "loops": [{"state": 0, "label": ["a"]}],
}


@pytest.mark.parametrize("key, value", [
    ("transitions", 5),
    ("transitions", [5]),
    ("transitions", {"from": 0, "to": 1, "label": []}),
    ("loops", 5),
    ("loops", ["a"]),
    ("states", "2"),
    ("states", 2.0),
    ("initial", None),
    ("initial", True),
    ("finals", 1),
    ("finals", ["1"]),
])
def test_automaton_rejects_bad_fields(key, value):
    doc = dict(_AUTOMATON_DOC, **{key: value})
    with pytest.raises(JsonFormatError):
        automaton_from_json(doc)


@pytest.mark.parametrize("entry", [
    {"from": "0", "to": 1, "label": []},
    {"from": 0, "to": [1], "label": []},
    {"to": 1, "label": []},
])
def test_automaton_rejects_bad_transition_entries(entry):
    with pytest.raises(JsonFormatError):
        automaton_from_json(dict(_AUTOMATON_DOC, transitions=[entry]))


def test_automaton_optional_lists_default_to_empty():
    doc = {"states": 1, "initial": 0, "finals": [0]}
    assert automaton_from_json(doc) == WordAutomaton(1, 0, frozenset({0}), ())


def test_semilinear_roundtrip():
    s = SemilinearSet((LinearSet.make((1, 0), [(1, 1), (0, 2)]),))
    doc = semilinear_to_json(s)
    assert semilinear_from_json(doc) == s
    assert doc == {"components": [{"base": [1, 0], "periods": [[0, 2], [1, 1]]}]}


def test_tree_to_json_shapes():
    alpha = validate_alphabet(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    doc = tree_to_json(decompose(alpha))
    assert doc["kind"] == "direct_z" and doc["apex"] == "b"
    assert doc["child"]["kind"] == "free_product"


def test_dumps_deterministic():
    payload = {"b": 1, "a": [3, 2], "c": {"y": None}}
    assert dumps(payload) == dumps(json.loads(dumps(payload)))
    assert dumps(payload) == '{"a":[3,2],"b":1,"c":{"y":null}}'


def test_cancellation_roundtrip():
    from graphknap.jsonio import cancellation_from_json, cancellation_to_json

    cancellation = frozenset({frozenset({2, 3}), frozenset({1, 4})})
    doc = cancellation_to_json(cancellation)
    assert doc == [[1, 4], [2, 3]]
    assert cancellation_from_json(doc) == cancellation
    with pytest.raises(JsonFormatError):
        cancellation_from_json([[0, 1]])
