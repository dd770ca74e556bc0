"""Hash every output of the benchmark's games, to show a change kept them.

For each request of the `coalitions`, `chains` and `layers` workloads at
seeds 1, 7 and 11 (219 requests), it hashes the `cefg solve` text,
`render_solution`, `profile_to_json`, `export_dot`, the full trace, the
audit's steps, the noncooperative baseline's JSON and the JSON of the
`singletons_only` solve. It prints one line per (workload, seed), then
`requests 219 total <hash>`.

Each audit step is hashed field by field, every number written by
`render.fmt_value`, so the text does not depend on whether an integral
value is an `int` or a `Fraction`. A number of any other type (a float)
stops the script with an error.

    python scripts/output_digest.py [CHECKOUT]

CHECKOUT defaults to the checkout this script is in; the games come from
its `perfbench/gen.py` and the code from its `src/`. A change that alters
outputs on purpose re-pins the total in CI and says why.
"""

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

root = Path(sys.argv[1] if len(sys.argv) > 1
            else Path(__file__).resolve().parent.parent).resolve()
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

import cefg  # noqa: E402
import gen  # noqa: E402
from bench import solve_text  # noqa: E402
from cefg.render import fmt_value, solution_to_json  # noqa: E402


def field_text(v) -> str:
    """An audit field as text: numbers by `fmt_value`, tuples item by item."""
    if type(v) in (int, Fraction):
        return fmt_value(v)
    if type(v) is tuple:
        return "(" + ", ".join(map(field_text, v)) + ")"
    if v is None or type(v) is str:
        return repr(v)
    sys.exit(f"output_digest: audit field {v!r} is a {type(v).__name__}, "
             "not an int or a Fraction")


def audit_text(profile) -> str:
    return "\n".join(field_text(tuple(step)) for step in profile.audit)

total, count = hashlib.sha256(), 0
for workload in ("coalitions", "chains", "layers"):
    for seed in (1, 7, 11):
        h = hashlib.sha256()
        for name, text in gen.workload_games(workload, seed):
            tree, utils = cefg.load_game_text(text)
            profile = cefg.solve_game(tree, utils)
            base = (cefg.backward_induction if tree.is_perfect_information
                    else cefg.spne_in_subgame)(tree, utils)
            single = cefg.solve_game(tree, utils, singletons_only=True)
            for out in (solve_text(profile), cefg.render_solution(profile),
                        cefg.profile_to_json(profile), cefg.export_dot(tree, profile),
                        cefg.render_trace(profile, "full"), audit_text(profile),
                        solution_to_json(base), cefg.profile_to_json(single)):
                h.update(name.encode() + b"\0" + out.encode() + b"\0")
            count += 1
        print(workload, seed, h.hexdigest()[:16])
        total.update(h.digest())
print("requests", count, "total", total.hexdigest()[:16])
