"""Rendering: bracket notation, trace narrative, DOT export, JSON."""

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from cefg import TooLarge, load_game_text, random_game, solve_game
from cefg import render
from cefg.render import (
    bracket_entry,
    bracket_summary,
    export_dot,
    outcome_str,
    profile_to_json,
    render_solution,
    render_trace,
)
from conftest import chain_text, expand_v1, expand_v1_entries, make_game_text


def test_summary_strings(example2, example2_modified):
    assert bracket_summary(solve_game(*example2)) == "[{R},{a,d},{e,g,j,l}; {1,3},2]"
    assert bracket_summary(solve_game(*example2_modified)) == "[{L},{a,c},{e,g,j,k}; {1,2},3]"


def test_complete_solution_entries(example2):
    tree, utils = example2
    prof = solve_game(tree, utils)
    assert bracket_entry(tree, prof.standalone_entry("x5")) == "[{b},{h}; {2,3}]"
    assert bracket_entry(tree, prof.standalone_entry("x6")) == "[{c},{j,k}; 2,3]"
    assert bracket_entry(tree, prof.root_context["x5"]) == "[{a},{e,g}; 2,{1,3}]"
    assert bracket_entry(tree, prof.root_context["x6"]) == "[{d},{i,l}; 2,{1,3}]"


def test_render_solution_structure(example2):
    tree, utils = example2
    text = render_solution(solve_game(tree, utils))
    root_at = text.index("=== solution at x7 (root) ===")
    x5_alone = text.index("=== standalone solution at x5 ===")
    x6_alone = text.index("=== standalone solution at x6 ===")
    assert root_at < x5_alone < x6_alone
    root_section = text[root_at:x5_alone]
    assert "[{a},{e,g}; 2,{1,3}]" in root_section
    assert "[{d},{i,l}; 2,{1,3}]" in root_section
    assert "[{b},{h}; {2,3}]" in text[x5_alone:x6_alone]
    assert "[{c},{j,k}; 2,3]" in text[x6_alone:]


def test_trace_sequence_example2(example2):
    tree, utils = example2
    trace = render_trace(solve_game(tree, utils))
    i_bi = trace.index("[x5] index point -> (5, 5, 3)")
    i_x5 = trace.index("[x5] adopted {2,3} -> (1, 6, 4)")
    i_r0 = trace.index("[x7] index point -> (2, 2, 6)")
    i_grand = trace.index("[x7] ir-rejected {1,2,3} -> (4, 4, 5): blocked by P3")
    i_12 = trace.index("[x7] ir-accepted {1,2} -> (5, 5, 3)")
    i_13 = trace.index("[x7] ir-accepted {1,3} -> (6, 3, 5)")
    assert i_bi < i_x5 < i_r0 < i_grand < i_12 < i_13


def test_trace_modified_names_blocker(example2_modified):
    trace = render_trace(solve_game(*example2_modified))
    assert "[x7] ir-rejected {1,3} -> (5, 5, 3): blocked by P1 (5 <= 5)" in trace


def test_trace_full_includes_supergame_internals(example2):
    tree, utils = example2
    prof = solve_game(tree, utils)
    brief = render_trace(prof, "summary")
    full = render_trace(prof, "full")
    assert len(full.splitlines()) > len(brief.splitlines())
    assert "(view {1,3},2)" in full


def test_trace_byte_stable(example2):
    tree, utils = example2
    a = render_trace(solve_game(tree, utils))
    b = render_trace(solve_game(tree, utils))
    assert a == b


def test_dot_abortion_styling(abortion):
    tree, utils = abortion
    dot = export_dot(tree, solve_game(tree, utils))
    lines = [l.strip() for l in dot.splitlines()]

    def edge(src, dst):
        return next(l for l in lines if f'"{src}" -> "{dst}"' in l)

    # Coalition {2,3} coordinates in the Illegal subtree: bold + "2,3" labels.
    assert "style=bold" in edge("a", "a1")        # Y
    assert "style=bold" in edge("a1", "z1")       # L
    assert '"a" [shape=circle, label="2,3"];' in lines
    assert '"a1" [shape=circle, label="2,3"];' in lines
    # Independent play in the Legal subtree: dashed.
    assert "style=dashed" in edge("g", "b")       # Legal
    assert "style=dashed" in edge("b", "b1")      # Y
    assert "style=dashed" in edge("b1", "z4")     # L
    # Unchosen edges are greyed.
    assert "color=gray" in edge("a", "z2")        # N after Illegal
    # Terminals carry payoff vectors.
    assert '"z4" [shape=box, label="(2, 4, 3)"];' in lines


def test_dot_example2_root_coalition(example2):
    tree, utils = example2
    dot = export_dot(tree, solve_game(tree, utils))
    assert '"x7" [shape=circle, label="1,3"];' in [l.strip() for l in dot.splitlines()]
    edge = next(l for l in dot.splitlines() if '"x7" -> "x6"' in l)
    assert 'label="R"' in edge and "style=bold" in edge


def test_dot_unsolved_plain(example2):
    tree, _ = example2
    dot = export_dot(tree)
    assert "style=bold" not in dot and "style=dashed" not in dot
    assert '"x7" [shape=circle, label="1"];' in [l.strip() for l in dot.splitlines()]


def test_json_shape_and_sigma_distinction(example2):
    tree, utils = example2
    body = json.loads(profile_to_json(solve_game(tree, utils)))
    assert body["schema"] == 2
    assert body["outcome"] == [6, 3, 5]
    assert body["partition"] == [[1, 3], [2]]
    assert body["coalition"] == [1, 3]
    assert body["summary"] == "[{R},{a,d},{e,g,j,l}; {1,3},2]"
    # sigma(root, x6) and sigma(x6, x6) are both present and differ.
    entries = expand_v1_entries(body)
    assert entries["x7/x6"]["actions"]["x3"] == "i"
    assert entries["x6/x6"]["actions"]["x3"] == "j"
    root_item = body["entries"][body["contexts"]["x7"]]
    assert root_item["children"]["x6"] != body["contexts"]["x6"]
    kinds = [step["kind"] for step in body["trace"]]
    assert "index-point" in kinds and "adopted" in kinds


def test_singletons_only_trace_has_only_index_points(example2):
    tree, utils = example2
    prof = solve_game(tree, utils, singletons_only=True)
    kinds = {s.kind for s in prof.trace_steps()}
    assert kinds == {"index-point", "adopted"}
    trace = render_trace(prof)
    assert "supergame" not in trace and "ir-" not in trace


def test_sum_and_weighted_combinators_through_the_solver():
    nodes = {
        "r": {"player": 1, "actions": {"a": "m", "b": "z3"}},
        "m": {"player": 2, "actions": {"x": "z1", "y": "z2"}},
        "z1": [2, 3], "z2": [3, 1], "z3": [4, 0],
    }
    # Under sum, {1,2} at the root prefers z1 (5) over z3 (4); both strictly
    # improve over the index point (4, 0) only for player 2, so the grand
    # merge is rejected and the noncooperative outcome stands.
    text = make_game_text(nodes, players=2, utility={"combinator": "sum"})
    tree, utils = load_game_text(text)
    prof = solve_game(tree, utils)
    assert prof.outcome == (4, 0)

    # Weighting player 2 heavily makes the coalition prefer z1 as well.
    text = make_game_text(nodes, players=2,
                          utility={"combinator": "weighted",
                                   "weights": {"1": 1, "2": 10}})
    tree, utils = load_game_text(text)
    prof = solve_game(tree, utils)
    assert prof.outcome == (4, 0)


def test_json_handles_mixed_profiles():
    text = make_game_text({
        "r": {"player": 1, "actions": {"H": "rh", "T": "rt"}},
        "rh": {"player": 2, "actions": {"h": "z1", "t": "z2"}},
        "rt": {"player": 2, "actions": {"h": "z3", "t": "z4"}},
        "z1": [1, -1], "z2": [-1, 1], "z3": [-1, 1], "z4": [1, -1],
    }, players=2, info_sets={"h2": ["rh", "rt"]})
    tree, utils = load_game_text(text)
    body = json.loads(profile_to_json(solve_game(tree, utils)))
    assert body["outcome"] == [0, 0]
    assert expand_v1_entries(body)["r/r"]["actions"]["h2"] == {"h": "1/2", "t": "1/2"}


# -- memoized renderers against the naive per-context reference ----------------


def _naive_render_solution(profile):
    """Every (context, subgame) entry rendered from scratch; the root line
    comes from a fresh solve, not from the summary `profile` keeps."""
    tree = profile.tree
    lines = []

    def family(entry, indent, top_line=None):
        line = top_line if top_line is not None else bracket_entry(tree, entry)
        lines.append(f"{'  ' * indent}{entry.node}: {line} -> "
                     f"{outcome_str(entry.outcome)}")
        for child in sorted(entry.children.values(),
                            key=lambda e: tree.position(e.node)):
            if not tree.nodes[child.node].is_terminal:
                family(child, indent + 1)

    root = profile.root_entry
    lines.append(f"=== solution at {root.node} (root) ===")
    family(root, 0, top_line=bracket_summary(solve_game(tree, profile.utils)))
    standalone = sorted(
        (nid for nid in tree.subgame_roots
         if nid in tree.decision_ids and nid != root.node),
        key=lambda nid: (tree.depth_of(nid), tree.position(nid)))
    for nid in standalone:
        lines.append(f"=== standalone solution at {nid} ===")
        family(profile.standalone_entry(nid), 0)
    return "\n".join(lines)


def _num_json(v):
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else str(v)


def _actions_json(actions):
    return {sid: {label: _num_json(p) for label, p in act}
            if isinstance(act, tuple) else act
            for sid, act in actions.items()}


def _naive_entry_json(entry):
    return {
        "outcome": [_num_json(v) for v in entry.outcome],
        "partition": [list(b) for b in entry.partition],
        "coalition": list(entry.coalition) if entry.coalition else None,
        "actions": _actions_json(entry.actions),
        "terminals": {z: _num_json(p) for z, p in entry.dist},
    }


def _naive_profile_json(profile):
    """One `json.dumps` over the full "context/subgame" entry map; the
    summary comes from a fresh solve, not from the one `profile` keeps."""
    body = {
        "outcome": [_num_json(v) for v in profile.outcome],
        "partition": [list(b) for b in profile.partition],
        "coalition": list(profile.coalition) if profile.coalition else None,
        "summary": bracket_summary(solve_game(profile.tree, profile.utils)),
        "entries": {f"{ctx}/{g}": _naive_entry_json(entry)
                    for (ctx, g), entry in profile.entries().items()},
        "trace": [
            {
                "node": s.node,
                "kind": s.kind,
                "coalition": list(s.coalition) if s.coalition else None,
                "outcome": [_num_json(v) for v in s.outcome],
                "reason": s.reason,
                "comparisons": [[i, _num_json(c), _num_json(h)]
                                for i, c, h in s.comparisons],
            }
            for s in profile.trace_steps()
        ],
    }
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def _assert_json_matches_naive(profile):
    text = profile_to_json(profile)
    # The text is laid out exactly as json.dumps lays out its own body ...
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    # ... and loses nothing of the per-context entry map.
    assert expand_v1(text) == _naive_profile_json(profile)


def _assert_matches_naive(profile):
    entries = profile.entries()
    # The memo must actually share entries across contexts for the check
    # to exercise the renderers' caches.
    assert len({id(e) for e in entries.values()}) < len(entries)
    assert render_solution(profile) == _naive_render_solution(profile)
    _assert_json_matches_naive(profile)


def _centipede_nodes(depth, prefix="c", first=1):
    nodes = {}
    big, small = 2, 1
    for k in range(depth):
        mover = 1 + (first - 1 + k) % 2
        nxt = f"{prefix}{k + 1}" if k + 1 < depth else f"{prefix}t{depth}"
        nodes[f"{prefix}{k}"] = {"player": mover, "actions": {
            "take": f"{prefix}t{k}", "pass": nxt}}
        nodes[f"{prefix}t{k}"] = [big, small] if mover == 1 else [small, big]
        big, small = big + 2 + k % 3, small + 1 + k % 2
    nodes[f"{prefix}t{depth}"] = [small + 1, small + 1]
    return nodes


@pytest.mark.parametrize("depth,utility", [
    (40, {"combinator": "min"}),
    (44, {"combinator": "sum"}),
    (48, {"combinator": "weighted", "weights": {"1": 3, "2": 1}}),
])
def test_memoized_renderers_match_naive_on_centipedes(depth, utility):
    text = make_game_text(_centipede_nodes(depth), players=2, utility=utility)
    prof = solve_game(*load_game_text(text))
    assert any(e.coalition for e in prof.entries().values())
    _assert_matches_naive(prof)


def test_memoized_renderers_match_naive_with_chance_root():
    nodes = {"root": {"actions": {"L": "a0", "R": "b0"}}}
    nodes.update(_centipede_nodes(14, prefix="a"))
    nodes.update(_centipede_nodes(17, prefix="b", first=2))
    text = make_game_text(nodes, players=2, root="root",
                          chance={"a0": 0.25, "b0": 0.75},
                          utility={"combinator": "sum"})
    prof = solve_game(*load_game_text(text))
    _assert_matches_naive(prof)


def test_memoized_renderers_match_naive_with_mixed_layer():
    nodes = {
        "top": {"player": 1, "actions": {"out": "d0", "in": "y"}},
        "y": {"player": 2, "actions": {"H": "yh", "T": "yt"}},
        "yh": {"player": 1, "actions": {"h": "z1", "t": "z2"}},
        "yt": {"player": 1, "actions": {"h": "z3", "t": "z4"}},
        "z1": [1, -1], "z2": [-1, 1], "z3": [-1, 1], "z4": [1, -1],
    }
    nodes.update(_centipede_nodes(12, prefix="d"))
    text = make_game_text(nodes, players=2, root="top",
                          info_sets={"h1": ["yh", "yt"]})
    prof = solve_game(*load_game_text(text))
    assert any(isinstance(a, tuple) for e in prof.entries().values()
               for a in e.actions.values())
    _assert_matches_naive(prof)


def test_memoized_renderers_match_naive_with_adopted_coalitions():
    rng = random.Random(11)
    nodes, frontier, count = {}, ["x0"], 1
    while count < 40:
        nid = frontier.pop(rng.randrange(len(frontier)))
        kids = [f"x{count}", f"x{count + 1}"]
        count += 2
        nodes[nid] = {"player": rng.randint(1, 3),
                      "actions": {"a": kids[0], "b": kids[1]}}
        frontier.extend(kids)
    for z in frontier:
        nodes[z] = [rng.randint(0, 9) for _ in range(3)]
    text = make_game_text(nodes, players=3, root="x0")
    prof = solve_game(*load_game_text(text))
    assert sum(1 for e in prof.entries().values() if e.coalition) > 5
    _assert_matches_naive(prof)


def _renders(profile):
    return (bracket_summary(profile), render_trace(profile), render_trace(profile, "full"),
            render_solution(profile), profile_to_json(profile),
            export_dot(profile.tree, profile))


def test_render_memos_stay_with_their_call():
    # Two profiles rendered A, B, A, each render call with its own memos:
    # neither may see a text made for the other.
    centipede = make_game_text(_centipede_nodes(30), players=2,
                               utility={"combinator": "sum"})
    mixed = make_game_text({
        "top": {"player": 1, "actions": {"out": "d0", "in": "y"}},
        "y": {"player": 2, "actions": {"H": "yh", "T": "yt"}},
        "yh": {"player": 1, "actions": {"h": "z1", "t": "z2"}},
        "yt": {"player": 1, "actions": {"h": "z3", "t": "z4"}},
        "z1": [1, -1], "z2": [-1, 1], "z3": [-1, 1], "z4": [1, -1],
        **_centipede_nodes(12, prefix="d"),
    }, players=2, root="top", info_sets={"h1": ["yh", "yt"]})
    a = solve_game(*load_game_text(centipede))
    b = solve_game(*load_game_text(mixed))
    first = {"a": _renders(a), "b": _renders(b)}
    assert _renders(a) == first["a"] and first["a"] != first["b"]
    for name, prof, text in (("a", a, centipede), ("b", b, mixed)):
        summary, _, _, listing, js, _ = first[name]
        assert summary == bracket_summary(solve_game(*load_game_text(text)))
        assert listing == _naive_render_solution(prof)
        assert expand_v1(js) == _naive_profile_json(prof)
        assert _renders(solve_game(*load_game_text(text))) == first[name]


@pytest.mark.parametrize("fixture", ["abortion", "example2", "example2_modified"])
def test_json_expands_to_naive_on_fixtures(fixture, request):
    _assert_json_matches_naive(solve_game(*request.getfixturevalue(fixture)))


def test_json_expands_to_naive_on_random_games():
    rng = random.Random(6)
    for _ in range(30):
        _assert_json_matches_naive(
            solve_game(*random_game(rng, max_players=4, max_nodes=20)))


def test_json_lists_each_distinct_entry_once(example2):
    prof = solve_game(*example2)
    body = json.loads(profile_to_json(prof))
    distinct = {id(e) for e in prof.entries().values()}
    assert len(body["entries"]) == len(distinct)
    assert set(body["contexts"]) == {ctx for ctx, _ in prof.entries()}
    assert body["contexts"]["x7"] == 0
    for item in body["entries"]:
        assert all(i < len(body["entries"]) for i in item["children"].values())


def test_json_grows_linearly_with_depth():
    sizes = {}
    for depth in (50, 100, 200):
        text = make_game_text(_centipede_nodes(depth), players=2)
        sizes[depth] = len(profile_to_json(solve_game(*load_game_text(text))))
    # Linear growth gives about 4x; one entry map per context gave 34x.
    assert sizes[50] < sizes[100] < sizes[200] <= 5 * sizes[50]


_ODD_NAMES = {
    'r"\\': {"player": 1, "actions": {"é": "m\n", "b": "z3"}},
    "m\n": {"player": 2, "actions": {"x\t": "z☃", "y": "z2"}},
    "z☃": [2, 3], "z2": [3, 1], "z3": [1, 0],
}


def test_json_escapes_names_as_json_dumps_does():
    prof = solve_game(*load_game_text(make_game_text(_ODD_NAMES, players=2)))
    _assert_json_matches_naive(prof)


_DOT_STR = r'"(?:[^"\\\n]|\\.)*"'
_DOT_ATTRS = rf'\[\w+=(?:{_DOT_STR}|\w+)(?:, \w+=(?:{_DOT_STR}|\w+))*\]'
_DOT_STATEMENT = re.compile(rf'  ({_DOT_STR})(?: -> ({_DOT_STR}))? {_DOT_ATTRS};')


def _dot_unquote(text):
    return re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], text[1:-1])


@pytest.mark.parametrize("with_chance", [False, True])
def test_dot_quotes_odd_ids_and_labels(with_chance):
    nodes, chance = _ODD_NAMES, None
    if with_chance:  # a chance root whose branch labels need escaping too
        nodes = {'c\\"': {"actions": {'h"\n': 'r"\\', "t\\": "z4"}},
                 **nodes, "z4": [0, 0]}
        chance = {'r"\\': "1/3", "z4": "2/3"}
    tree, utils = load_game_text(make_game_text(nodes, players=2, chance=chance))
    for profile in (None, solve_game(tree, utils)):
        lines = export_dot(tree, profile).splitlines()
        assert lines[:2] == ["digraph game {", '  node [fontname="Helvetica"];']
        assert lines[-1] == "}"
        ids, edges = [], []
        for line in lines[2:-1]:
            match = _DOT_STATEMENT.fullmatch(line)
            assert match, line
            if match[2] is None:
                ids.append(_dot_unquote(match[1]))
            else:
                edges.append((_dot_unquote(match[1]), _dot_unquote(match[2])))
        assert ids == list(tree.preorder)
        assert sorted(edges) == sorted((nid, child) for nid in tree.preorder
                                       for _, child in tree.nodes[nid].actions)


def test_listing_within_the_bound_renders_and_beyond_it_is_refused(
        example2, monkeypatch):
    # example2's blocks hold under 1,000 characters; a 40-level chain's
    # hold about 100,000.
    monkeypatch.setattr(render, "_MAX_LISTING_CHARS", 10_000)
    golden = Path(__file__).parent / "golden" / "example2.trace.txt"
    assert render_solution(solve_game(*example2)) + "\n" == golden.read_text()
    deep = solve_game(*load_game_text(chain_text(40)))
    with pytest.raises(TooLarge, match="more than 10000 characters"):
        render_solution(deep)
