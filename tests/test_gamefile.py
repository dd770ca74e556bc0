"""Parser and serializer for the game description format."""

import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cefg import (
    CefgError,
    GameFormatError,
    GameValidationError,
    Node,
    export_dot,
    load_game_text,
    parse_game,
    profile_to_json,
    render_solution,
    render_trace,
    serialize_game,
    solve_game,
    validate_game,
)
from cefg.cli import main
from conftest import game_path, make_game_text

BUNDLED = ("abortion.game", "example2.game", "example2-modified.game")


def test_parse_abortion_fixture():
    spec = parse_game(game_path("abortion.game").read_text())
    assert len(spec.players) == 3
    terminals = [nid for nid, node in spec.nodes.items() if node.is_terminal]
    assert len(terminals) == 6
    assert spec.utility == {"combinator": "min"}
    assert spec.feasible == "all"


def test_parse_example2_terminal_payoffs():
    spec = parse_game(game_path("example2.game").read_text())
    assert all(isinstance(node, Node) for node in spec.nodes.values())
    payoffs = [node.payoffs for node in spec.nodes.values() if node.is_terminal]
    assert payoffs == [(5, 5, 3), (2, 2, 1), (4, 4, 5), (1, 6, 4),
                       (3, 1, 2), (2, 2, 6), (1, 1, 6), (6, 3, 5)]


def test_empty_input_is_a_syntax_error():
    with pytest.raises(GameFormatError) as err:
        parse_game("")
    assert err.value.code == "SyntaxError"


def test_syntax_error_carries_position():
    with pytest.raises(GameFormatError) as err:
        parse_game('{"format_version": 1,\n  "players": [}')
    assert err.value.code == "SyntaxError"
    assert err.value.line == 2
    assert err.value.column is not None


def test_duplicate_key_detected():
    text = '''{
      "format_version": 1, "players": ["A"], "root": "z",
      "nodes": {"z": {"payoffs": [1]}, "z": {"payoffs": [2]}}
    }'''
    with pytest.raises(GameFormatError) as err:
        parse_game(text)
    assert err.value.code == "DuplicateId"


def test_unknown_field_rejected():
    text = make_game_text({"z": [0]}, players=1)
    text = text.replace('"root"', '"wat": 1, "root"', 1)
    with pytest.raises(GameFormatError) as err:
        parse_game(text)
    assert err.value.code == "UnknownField"


def test_node_needs_exactly_one_of_actions_payoffs():
    text = '''{
      "format_version": 1, "players": ["A"], "root": "z",
      "nodes": {"z": {"player": 1}}
    }'''
    with pytest.raises(GameFormatError):
        parse_game(text)


def test_round_trip_is_identity_on_canonical_form():
    for name in ("abortion.game", "example2.game", "example2-modified.game"):
        spec = parse_game(game_path(name).read_text())
        text = serialize_game(spec)
        again = parse_game(text)
        assert again == spec
        assert serialize_game(again) == text


def test_table_and_weighted_utilities_round_trip():
    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [1, 2], "z2": [2, 1],
    }, players=2, utility={"table": {"1,2": {"z1": 3, "z2": 4}}})
    spec = parse_game(text)
    assert spec.utility["table"][(1, 2)] == {"z1": 3, "z2": 4}
    assert parse_game(serialize_game(spec)) == spec

    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [1, 2], "z2": [2, 1],
    }, players=2, utility={"combinator": "weighted", "weights": {"1": 2, "2": 1}})
    spec = parse_game(text)
    assert parse_game(serialize_game(spec)) == spec


def test_rational_strings_are_exact_and_round_trip():
    text = make_game_text({
        "root": {"actions": {"a": "x", "b": "y", "c": "w"}},
        "x": {"player": 1, "actions": {"l": "z1", "r": "z2"}},
        "y": {"player": 2, "actions": {"l": "z3", "r": "z4"}},
        "w": {"player": 1, "actions": {"l": "z5", "r": "z6"}},
        "z1": ["1/3", 0], "z2": [0, 1], "z3": [1, "-2/4"], "z4": [2, 0],
        "z5": [1, 1], "z6": ["5/3", "1/6"],
    }, players=2, root="root", chance={"x": "1/3", "y": "1/3", "w": "1/3"},
        utility={"combinator": "weighted", "weights": {"1": "1/2", "2": 1}},
        synergies=[{"player": 1, "block": [1, 2], "terminal": "z6",
                    "value": "7/3"}])
    spec = parse_game(text)
    assert parse_game(serialize_game(spec)) == spec
    tree, utils = load_game_text(text)
    assert tree.chance_at_root == {"x": Fraction(1, 3), "y": Fraction(1, 3),
                                   "w": Fraction(1, 3)}
    assert tree.nodes["z3"].payoffs == (1, Fraction(-1, 2))
    assert utils.weights == (Fraction(1, 2), 1)
    assert utils.synergies[0].value == Fraction(7, 3)
    profile = solve_game(tree, utils)
    # Each branch's best response: x -> z1 (1/3 > 0), y -> z4 (0 > -1/2),
    # w -> z6 (5/3 > 1); each weighs exactly one third.
    assert profile.outcome == (Fraction(1, 3) * (Fraction(1, 3) + 2 + Fraction(5, 3)),
                               Fraction(1, 3) * Fraction(1, 6))
    body = json.loads(profile_to_json(profile))
    assert body["entries"][body["contexts"]["root"]]["terminals"] == {
        "z1": "1/3", "z4": "1/3", "z6": "1/3"}

    text = make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [1, 2], "z2": [2, 1],
    }, players=2, utility={"table": {"1,2": {"z1": "10/3", "z2": "7/2"}}})
    spec = parse_game(text)
    assert parse_game(serialize_game(spec)) == spec
    tree, utils = load_game_text(text)
    assert utils.coalition_value((1, 2), "z1", tree) == Fraction(10, 3)


# -- the number contract: int when integral, Fraction otherwise --------------

INTEGRAL = [(3, 3), (3.0, 3), (-0.0, 0), ("6/2", 3), ("-4/2", -2)]
FRACTIONAL = [(0.5, Fraction(1, 2)), ("1/3", Fraction(1, 3)), ("6/4", Fraction(3, 2))]


# Each number site's loaded values, from a game `_number_game` wrote.
READ = {
    "payoff": lambda tree, utils: [tree.nodes["z1"].payoffs[0]],
    "chance": lambda tree, utils: list(tree.chance_at_root.values()),
    "table": lambda tree, utils: [utils.table[1, 2]["z1"]],
    "weights": lambda tree, utils: [utils.weights[0]],
    "synergy": lambda tree, utils: [utils.synergies[0].value],
}


def _number_game(site, v, w=0):
    """A two-player game text with `v` at `site`; under "chance", `w` is the
    other branch's probability."""
    nodes = {"r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
             "z1": [0, 1], "z2": [1, 0]}
    kw = {}
    if site == "payoff":
        nodes["z1"] = [v, 1]
    elif site == "chance":
        del nodes["r"]["player"]
        kw["chance"] = {"z1": v, "z2": w}
    elif site == "table":
        kw["utility"] = {"table": {"1,2": {"z1": v, "z2": 0}}}
    elif site == "weights":
        kw["utility"] = {"combinator": "weighted", "weights": {"1": v, "2": 1}}
    else:
        kw["synergies"] = [{"player": 1, "block": [1, 2], "terminal": "z1",
                            "value": v}]
    return make_game_text(nodes, players=2, **kw)


@pytest.mark.parametrize("site", ["payoff", "table", "weights", "synergy"])
@pytest.mark.parametrize("raw,want", INTEGRAL + FRACTIONAL)
def test_integral_numbers_load_as_int_and_others_as_fractions(site, raw, want):
    [got] = READ[site](*load_game_text(_number_game(site, raw)))
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)


@pytest.mark.parametrize("pair,types", [
    ((1, -0.0), (int, int)), ((1.0, "0/3"), (int, int)), (("2/2", 0), (int, int)),
    ((0.5, "1/2"), (Fraction, Fraction)), (("1/3", "4/6"), (Fraction, Fraction)),
])
def test_chance_probabilities_follow_the_number_contract(pair, types):
    got = READ["chance"](*load_game_text(_number_game("chance", *pair)))
    assert tuple(map(type, got)) == types and sum(got) == 1


def _with_number(spec, site, v):
    """`spec`, parsed from `_number_game(site, ...)`, with `v` at `site`, as
    a spec built in code may hold it."""
    if site == "payoff":
        z1 = spec.nodes["z1"]
        return replace(spec, nodes={**spec.nodes, "z1": replace(z1, payoffs=(v, 1))})
    if site == "chance":
        return replace(spec, chance={**spec.chance, "z1": v})
    if site == "table":
        return replace(spec, utility={"table": {(1, 2): {"z1": v, "z2": 0}}})
    if site == "weights":
        return replace(spec, utility={**spec.utility, "weights": {"1": v, "2": 1}})
    return replace(spec, synergies=[(1, (1, 2), "z1", v)])


@pytest.mark.parametrize("site", ["payoff", "chance", "table", "weights", "synergy"])
@pytest.mark.parametrize("value", [True, math.inf, math.nan, "1/0", "x", None, "1/3"])
def test_a_spec_built_in_code_holds_exact_numbers(site, value):
    # A spec built in code skips the parser: a number that is not an int or
    # a Fraction, as `parse_game` stores them, fails as a TypeError.
    spec = parse_game(_number_game(site, "1/2", "1/2"))
    assert _with_number(spec, site, Fraction(1, 2)) == spec
    validate_game(_with_number(spec, site, Fraction(1, 2)))
    with pytest.raises(TypeError):
        validate_game(_with_number(spec, site, value))


_NUMBERS = (st.integers(-10 ** 20, 10 ** 20)
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.builds("{}/{}".format, st.integers(-10 ** 6, 10 ** 6),
                        st.integers(1, 10 ** 6)))


@st.composite
def number_game_texts(draw):
    """A two-player game text with a drawn number at every number site; the
    parser does not ask the probabilities to sum to 1."""
    table = {"table": {"1,2": {"z1": draw(_NUMBERS), "z2": draw(_NUMBERS)}}}
    weighted = {"combinator": "weighted",
                "weights": {"1": draw(_NUMBERS), "2": draw(_NUMBERS)}}
    return make_game_text(
        {"r": {"actions": {"a": "z1", "b": "z2"}},
         "z1": [draw(_NUMBERS), draw(_NUMBERS)], "z2": [draw(_NUMBERS), draw(_NUMBERS)]},
        players=2, chance={"z1": draw(_NUMBERS), "z2": draw(_NUMBERS)},
        utility=draw(st.sampled_from([table, weighted])),
        synergies=[{"player": 1, "block": [1, 2], "terminal": "z1",
                    "value": draw(_NUMBERS)}])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(number_game_texts())
def test_serialize_then_parse_is_the_identity(text):
    spec = parse_game(text)
    assert all(type(v) in (int, Fraction)
               for node in spec.nodes.values() for v in node.payoffs or ())
    out = serialize_game(spec)
    assert parse_game(out) == spec
    assert serialize_game(parse_game(out)) == out


@pytest.mark.parametrize("site", ["payoff", "chance", "table", "weights", "synergy"])
@pytest.mark.parametrize("bad", [True, False, "1/0"])
def test_booleans_and_zero_denominators_still_exit_2(site, bad, tmp_path, capsys):
    path = tmp_path / "bad.game"
    path.write_text(_number_game(site, bad, 1))
    assert main(["solve", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


# -- every validation code that text can trigger -----------------------------


def _two_player(change=lambda doc: None, **kw):
    """A two-player game text, its document edited by `change`."""
    doc = json.loads(make_game_text({
        "r": {"player": 1, "actions": {"a": "z1", "b": "z2"}},
        "z1": [0, 1], "z2": [1, 0]}, players=2, **kw))
    change(doc)
    return json.dumps(doc)


def _chance(probs):
    return _two_player(lambda doc: doc["nodes"]["r"].pop("player"), chance=probs)


# One information set holds m1 and m2: P1's and P2's under P3's root, both
# P1's under a chance root, where neither branch then roots a subgame.
_SPLIT = {"r": {"player": 3, "actions": {"a": "m1", "b": "m2"}},
          "m1": {"player": 1, "actions": {"x": "z1", "y": "z2"}},
          "m2": {"player": 2, "actions": {"x": "z3", "y": "z4"}},
          "z1": [0, 0, 0], "z2": [0, 0, 0], "z3": [0, 0, 0], "z4": [0, 0, 0]}
_CHANCE_SPLIT = {**_SPLIT, "r": {"actions": {"a": "m1", "b": "m2"}},
                 "m2": {"player": 1, "actions": {"x": "z3", "y": "z4"}}}

TEXT_ERRORS = {
    "top level not an object": ("[]", GameFormatError, "SyntaxError"),
    "root not a string": (
        _two_player(lambda doc: doc.update(root=1)), GameFormatError, "SyntaxError"),
    "required field missing": (
        _two_player(lambda doc: doc.pop("nodes")), GameFormatError, "MissingField"),
    "synergies not a list": (
        _two_player(lambda doc: doc.update(synergies={"player": 1})),
        GameFormatError, "SyntaxError"),
    "synergy entry lacks a field": (
        _two_player(synergies=[{"player": 1, "block": [1, 2], "terminal": "z1"}]),
        GameFormatError, "MissingField"),
    "feasible neither all nor a list": (
        _two_player(feasible="some"), GameFormatError, "SyntaxError"),
    "utility neither combinator nor table": (
        _two_player(utility={"weights": {"1": 2}}), GameFormatError, "SyntaxError"),
    "missing root": (
        _two_player(lambda doc: doc.update(root="nowhere")),
        GameValidationError, "MissingRoot"),
    "decision node without a player": (
        _two_player(lambda doc: doc["nodes"]["r"].pop("player")),
        GameValidationError, "MissingPlayer"),
    "list-form actions repeat a label": (
        _two_player(lambda doc: doc["nodes"]["r"].update(
            actions=[["a", "z1"], ["a", "z2"]])),
        GameValidationError, "DuplicateAction"),
    "chance keys not the root's children": (
        _chance({"z1": "1/2", "z3": "1/2"}), GameValidationError, "BadChanceDistribution"),
    "negative chance probability": (
        _chance({"z1": "-1/2", "z2": "3/2"}), GameValidationError, "BadChanceDistribution"),
    "one set, two players": (
        make_game_text(_SPLIT, info_sets={"h": ["m1", "m2"]}),
        GameValidationError, "InfoSetActionMismatch"),
    "synergy at a decision node": (
        _two_player(synergies=[{"player": 1, "block": [1, 2], "terminal": "r",
                                "value": 1}]),
        GameValidationError, "BadSynergy"),
    "chance branch not a subgame": (
        make_game_text(_CHANCE_SPLIT, info_sets={"h": ["m1", "m2"]},
                       chance={"m1": "1/2", "m2": "1/2"}),
        GameValidationError, "ChanceBranchNotSubgame"),
}


@pytest.mark.parametrize("case", list(TEXT_ERRORS))
def test_every_validation_code_text_can_trigger_exits_2(case, tmp_path, capsys):
    text, error, code = TEXT_ERRORS[case]
    with pytest.raises(error) as err:
        load_game_text(text)
    codes = err.value.codes() if error is GameValidationError else [err.value.code]
    assert set(codes) == {code}  # both chance branches break the last case
    path = tmp_path / "bad.game"
    path.write_text(text)
    assert main(["solve", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


# -- parser totality ---------------------------------------------------------

# Fields the bundled games leave out; a mutation may create them.
OPTIONAL_PATHS = (("chance",), ("info_sets",), ("synergies",),
                  ("coalitions", "utility", "weights"),
                  ("coalitions", "utility", "table"))


def _paths(value, prefix=()):
    """Every key path into a JSON document, the document itself excluded."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _put(doc, path, value):
    """Set `path` in `doc` to `value` where the path's parent exists."""
    parent = doc
    for key in path[:-1]:
        if isinstance(parent, dict) and key in parent:
            parent = parent[key]
        elif isinstance(parent, list) and isinstance(key, int) and key < len(parent):
            parent = parent[key]
        else:
            return
    if isinstance(parent, dict):
        parent[path[-1]] = value
    elif isinstance(parent, list) and isinstance(path[-1], int) and path[-1] < len(parent):
        parent[path[-1]] = value


@st.composite
def mutated_games(draw):
    """A bundled game with one to three of its values replaced."""
    doc = json.loads(game_path(draw(st.sampled_from(BUNDLED))).read_text())
    ids = st.sampled_from(sorted(doc["nodes"]))
    scalars = (st.none() | st.booleans() | st.integers(-2, 4) | st.floats()
               | st.text(max_size=3) | ids)
    values = st.recursive(
        scalars, lambda inner: (st.lists(inner, max_size=3)
                                | st.dictionaries(st.text(max_size=2) | ids,
                                                  inner, max_size=3)),
        max_leaves=6)
    info_sets = st.dictionaries(ids, st.lists(ids, max_size=3), max_size=3)
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            _put(doc, ("info_sets",), draw(info_sets))
        else:
            paths = sorted(set(_paths(doc)) | set(OPTIONAL_PATHS), key=repr)
            _put(doc, draw(st.sampled_from(paths)), draw(values))
    return json.dumps(doc)


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_games())
def test_parser_is_total(text):
    # Every input loads or raises a typed input error; a game that loads
    # solves and renders, or raises a typed solver error.
    try:
        tree, utils = load_game_text(text)
    except (GameFormatError, GameValidationError):
        return
    try:
        profile = solve_game(tree, utils)
    except CefgError:
        return
    render_trace(profile, "full")
    render_solution(profile)
    profile_to_json(profile)
    export_dot(tree, profile)
