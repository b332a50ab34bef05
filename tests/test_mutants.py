"""Mutation tests: a deliberately broken library must fail the checks.

Each mutant is the library's own source with one expression replaced,
compiled and monkeypatched in; it must push at least one cell of each check
it targets over tolerance in ``finslerlab check --seed 7 --samples 4``.  A
check that passes for a wrong formula would pass for a right one just as
well, so this is what gives its residuals meaning.  Only the targeted checks
run, to keep the file fast.
"""

import inspect
import json
import textwrap

import pytest

from finslerlab import calculus
from finslerlab.cli import main


def mutant(func, old, new):
    """``func`` recompiled from its source with ``old`` replaced by ``new``.

    ``old`` must occur exactly once, so a mutant cannot silently become the
    original when the source changes.
    """
    src = textwrap.dedent(inspect.getsource(func))
    assert src.count(old) == 1, f"{old!r} not found once in {func.__qualname__}"
    namespace = {}
    exec(compile(src.replace(old, new), inspect.getsourcefile(func), "exec"),
         func.__globals__, namespace)
    return namespace[func.__name__]


# (name, owner, attribute, old, new, targeted checks)
MUTANTS = [
    ("drop D_Y K", calculus, "_bracket_1_0",
     " - d_y_k[a][b]", "", ["CHK-05", "CHK-13", "CHK-14"]),
    ("flip the sign of D_Y K", calculus, "_bracket_1_0",
     " - d_y_k[a][b]", " + d_y_k[a][b]", ["CHK-05", "CHK-13", "CHK-14"]),
    ("drop K.DY", calculus, "_bracket_1_0",
     " - k_dy[a][b]", "", [f"CHK-{i:02d}" for i in range(5, 12)]),
    ("contract rows instead of columns in K(z, v)", calculus.VectorForm, "__call__",
     "list(zip(*m))", "m", ["CHK-02", "CHK-06", "CHK-07", "CHK-08"]),
]


@pytest.mark.parametrize("name, owner, attr, old, new, checks", MUTANTS,
                         ids=[m[0] for m in MUTANTS])
def test_mutant_fails_every_targeted_check(name, owner, attr, old, new, checks,
                                           monkeypatch, capsys):
    monkeypatch.setattr(owner, attr, mutant(getattr(owner, attr), old, new))
    code = main(["check", "--seed", "7", "--samples", "4", "--only", ",".join(checks)])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    failing = {r["check"] for r in records if r["pass"] is not True}
    assert code != 0
    assert failing == set(checks), f"{name}: {sorted(set(checks) - failing)} still pass"
