"""Seeded structural fuzzing of the command line, in-process.

Every case runs `cli.main` on a mutated `decompose` payload or a mutated
`verify-algebra` / `verify-s6` argument list.  A case must exit 0 or 1 with
its normal output and an empty stderr, or exit 2 with nothing on stdout and
exactly one stderr line containing "error:"; no exception may escape.  The
tier-1 test runs a fixed number of cases; a long campaign runs the same
generator from the repository root:

    PYTHONPATH=src:tests python -c "import test_cli_fuzz as f; print(f.fuzz(100_000, 1))"

which prints the list of failing cases (empty when none fails).
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import sys
from fractions import Fraction

from su3forms import cli


class Raw(str):
    """A JSON number written verbatim, for literals `json.dumps` never writes."""


class Pairs(list):
    """A JSON object as (key, value) pairs, so that a key can repeat."""


_NUMBERS = (
    0, 1, -1, 7, 10**400, -(10**400), 1e308, -1e308, 5e-324, 1e-300,
    float("nan"), float("inf"), float("-inf"), True, False,
    Raw("1e400"), Raw("-1e400"), Raw("1e-400"), Raw("9" * 5000), Raw("-0"),
)
_STRINGS = (
    "", "0", "1", "-3/4", "2/4", "1/0", "0/0", "1/-2", "1e99999999", "1.5", " 1",
    "0x1f", "1_000", "+1", "nan", "inf", "9" * 5000, "exact", "float",
)
_BLADES = ("e", "e0", "e7", "e17", "e21", "e11", "e1234567", "E12", "f12", "e١", "e12 ")
_MODES = ("EXACT", "Float", "", "nope")
_WEIRD = (None, [], {}, [[]], [None], {"mode": "exact"}, {"blade": "e1", "coeff": "1"})


def _leaf(rng: random.Random):
    # a copy, so that a later mutation in place leaves the pool as it is
    return copy.deepcopy(rng.choice(rng.choice((_NUMBERS, _STRINGS, _BLADES, _MODES, _WEIRD))))


def _seed_payloads() -> dict[str, list]:
    two = [("e12", 1), ("e34", "1/2"), ("e56", -2), ("e13", 3)]
    three = [("e135", 1), ("e146", "-1"), ("e236", "-1/3"), ("e245", -1), ("e123", 2)]
    rows = [[str((i * 7 + j * 3) % 5 - 2) for j in range(6)] for i in range(6)]

    def form(terms, mode):
        if mode == "float":
            terms = [(b, float(Fraction(c))) for b, c in terms]
        return {"mode": mode, "terms": [{"blade": b, "coeff": c} for b, c in terms]}

    def endo(mode):
        body = rows if mode == "exact" else [[float(x) / 3 for x in r] for r in rows]
        return {"mode": mode, "rows": body}

    return {
        "2form": [form(two, m) for m in ("exact", "float")],
        "3form": [form(three, m) for m in ("exact", "float")],
        "endo": [endo(m) for m in ("exact", "float")],
    }


_PAYLOADS = _seed_payloads()


def _nodes(tree, path=()):
    """Paths to every node of a JSON tree, the root included."""
    yield path
    if isinstance(tree, dict):
        for k, v in tree.items():
            yield from _nodes(v, (*path, k))
    elif isinstance(tree, list):
        for i, v in enumerate(tree):
            yield from _nodes(v, (*path, i))


def _get(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def _mutate_node(rng: random.Random, node):
    """A structural change of one node: its type, its keys or items, its
    nesting, or a replacement leaf."""
    choice = rng.randrange(8)
    if choice == 0:
        return _leaf(rng)
    if choice == 1:  # change the JSON type
        if isinstance(node, str):
            return rng.choice((len(node), [node], {"value": node}, node == ""))
        if isinstance(node, (int, float)):
            return rng.choice((str(node), [node], {"value": node}))
        return rng.choice((json.dumps(node), len(node) if node is not None else 0))
    if choice == 2 and isinstance(node, dict) and node:  # drop a key
        node = dict(node)
        del node[rng.choice(list(node))]
        return node
    if choice == 3 and isinstance(node, dict) and node:  # repeat a key
        key = rng.choice(list(node))
        return Pairs([*node.items(), (key, _leaf(rng))])
    if choice == 4 and isinstance(node, list) and node:  # drop or repeat an item
        node = list(node)
        i = rng.randrange(len(node))
        if rng.random() < 0.5:
            del node[i]
        else:
            node.insert(i, node[i])
        return node
    if choice == 5:  # nest
        for _ in range(rng.randint(1, 3)):
            node = rng.choice(([node], {"terms": node}))
        return node
    if choice == 6 and isinstance(node, dict) and node:  # an extra key
        return {**node, rng.choice(("extra", "mode", "terms", "rows", "blade")): _leaf(rng)}
    return _leaf(rng)


def _mutate_payload(rng: random.Random, payload):
    tree = json.loads(json.dumps(payload))
    for _ in range(rng.randint(1, 3)):
        paths = list(_nodes(tree))
        path = rng.choice(paths)
        new = _mutate_node(rng, _get(tree, path) if path else tree)
        if not path:
            tree = new
        else:
            parent = _get(tree, path[:-1])
            if isinstance(parent, Pairs):
                break
            parent[path[-1]] = new
    return tree


def _dump(tree) -> str:
    if isinstance(tree, Raw):
        return str(tree)
    if isinstance(tree, Pairs):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_dump(v)}" for k, v in tree) + "}"
    if isinstance(tree, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in tree.items()) + "}"
    if isinstance(tree, list):
        return "[" + ", ".join(_dump(v) for v in tree) + "]"
    return json.dumps(tree)


def _decompose_case(rng: random.Random) -> tuple[list[str], str]:
    kind = rng.choice(sorted(_PAYLOADS))
    # mostly a payload of the kind asked for, sometimes one of another kind
    payload = rng.choice(_PAYLOADS[rng.choice((kind, kind, rng.choice(sorted(_PAYLOADS))))])
    text = _dump(_mutate_payload(rng, payload)) if rng.random() < 0.9 else _dump(payload)
    roll = rng.random()
    if roll < 0.02:  # nesting past the recursion limit
        depth = rng.choice((1000, 100_000))
        text = "[" * depth + text + "]" * depth
    elif roll < 0.06:  # cut short
        text = text[: rng.randrange(len(text) + 1)]
    if roll > 0.99:
        kind = rng.choice(("4form", "", "2-form"))
    return ["decompose", "--kind", kind], text


#: the one valid count is 1, so that a valid run stays cheap
_COUNTS = ("1", "1", "1", "0", "-1", "-7", "x", "1.5", "", "1e3", "--")
_STEPS = (
    "1e-3", "1e-3", "2.5e-7", "2e-7", "1.5e-7", "1e-7", "0.1", "0.09", "0", "-1e-3",
    "nan", "inf", "-inf", "1e999", "x", "",
)
_DIRECTIONS = (
    "a=e7", "e1", "e0", "e8", "e", "a=", "", "1,2,3", "1,0,0,0,0,0,0", "0,0,0,0,0,0,0",
    "nan,0,0,0,0,0,0", "inf,0,0,0,0,0,0", "1e308,1e308,1,1,1,1,1", "x,0,0,0,0,0,0",
    "a=e3,1", "-0,-0,-0,-0,-0,-0,-0",
)
_VALUES = {
    "--trials": _COUNTS,
    "--samples": _COUNTS,
    "--h": _STEPS,
    "--deform": _DIRECTIONS,
    "--seed": ("0", "1", "-5", "x", "99999999999999999999", "1.0"),
    "--mode": ("exact", "float", "nope"),
    "--suite": ("gray", "spectral", "linearized", "cl", "all", "nope", ""),
    # never a file that a run would leave behind
    "--out": ("", ".", os.devnull),
}
_ARGVS = (
    ["verify-algebra", "--trials", "1", "--seed", "0", "--mode", "exact"],
    ["verify-algebra", "--trials", "1", "--mode", "float"],
    ["verify-s6", "--suite", "gray", "--samples", "1", "--h", "1e-3", "--seed", "0"],
    ["verify-s6", "--suite", "spectral", "--samples", "1", "--h", "1e-3"],
    ["verify-s6", "--suite", "linearized", "--samples", "1", "--seed", "2"],
    ["verify-s6", "--samples", "1", "--deform", "a=e7", "--h", "1e-3"],
)


def _argv_case(rng: random.Random) -> list[str]:
    argv = list(rng.choice(_ARGVS))
    for _ in range(rng.randint(1, 3)):
        flags = [i for i, a in enumerate(argv[:-1]) if a in _VALUES]
        roll = rng.random()
        if roll < 0.6 and flags:  # a new value for an option
            i = rng.choice(flags)
            argv[i + 1] = rng.choice(_VALUES[argv[i]])
        elif roll < 0.7 and flags:  # drop an option's value
            del argv[rng.choice(flags) + 1]
        elif roll < 0.8 and flags:  # drop an option, but not a count: its default is large
            i = rng.choice(flags)
            if argv[i] not in ("--trials", "--samples"):
                del argv[i : i + 2]
        else:  # add an option, known to this command or not
            flag = rng.choice([*_VALUES, "--bogus", "--kind"])
            argv += [flag, rng.choice(_VALUES.get(flag, ("2form",)))]
    return argv


def _check(argv: list[str], stdin: str | None) -> str | None:
    """Run one case; None if it kept the contract, else what went wrong."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    except Exception as exc:  # noqa: BLE001 - the contract forbids any escape
        return f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdin = saved
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        lines = [line for line in err.splitlines() if "error:" in line]
        if out or len(lines) != 1:
            return f"exit 2 with stdout {out[:200]!r}, stderr {err[:200]!r}"
        return None
    if code not in (0, 1) or err:
        return f"exit {code} with stderr {err[:200]!r}"
    if argv[0] == "decompose":
        if code != 0 or "residual" not in json.loads(out):
            return f"decompose exit {code} with stdout {out[:200]!r}"
        return None
    lines = out.splitlines()
    failed = any(line.startswith("FAIL  ") for line in lines)
    if not lines or not all(line.startswith(("pass  ", "FAIL  ")) for line in lines):
        return f"exit {code} with stdout {out[:200]!r}"
    if failed != (code == 1):
        return f"exit {code} disagrees with its summary lines"
    return None


def fuzz(cases: int, seed: int) -> list[str]:
    """Run cases seeded cases, one in twenty on verify argument lists, and
    describe each one that broke the contract."""
    rng = random.Random(seed)
    failures = []
    for n in range(cases):
        if rng.random() < 0.05:
            argv, stdin = _argv_case(rng), None
        else:
            argv, stdin = _decompose_case(rng)
        problem = _check(argv, stdin)
        if problem is not None:
            failures.append(f"case {n}: {argv} stdin {str(stdin)[:200]!r}: {problem}")
    return failures


def test_cli_keeps_its_contract_on_fuzzed_input():
    assert fuzz(1000, seed=0) == []
