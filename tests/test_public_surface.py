"""Every public module-level name of halfpic has a caller outside the tests,
or an entry in ALLOWED that says why it stays."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "halfpic"
CALLER_DIRS = ("src", "scripts", "bench")

# name -> why it stays without a caller in src/, scripts/ or bench/: part of
# the API the README documents, or a reference route, named with the test
# that compares against it.
ALLOWED = {
    "lambda2.wedge": "README API; test_lambda2::test_wedge_inner_is_the_gram_determinant",
    "lambda2.P_PLUS": "README API (the Hodge projectors)",
    "lambda2.P_MINUS": "README API (the Hodge projectors)",
    "lambda2.to_so4": "reference route: the action u -> <x,u>y - <y,u>x that lambda2._so4 "
    "encodes; test_lambda2::test_to_so4_action_matches_the_projection_formula",
    "lambda2.from_so4": "reference route: the checked inverse of to_so4, read off as "
    "lambda2._bracket reads a commutator; test_lambda2::test_to_so4_roundtrip",
    "lambda2.bracket": "reference route for lambda2.AD and the stacked lambda2._bracket; "
    "test_lambda2::test_ad_tensor_matches_bracket",
    "flow.sharp_quadratic_form": "reference route: the defining form of R# at one bivector; "
    "test_flow::test_sharp_quadratic_form_is_the_diagonal",
}


def _public_definitions():
    # (module, name) -> the line numbers of its module-level definition
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if not name.startswith("_"):
                    lines = range(node.lineno, node.end_lineno + 1)
                    found.setdefault((module, name), set()).update(lines)
    return found


def _references():
    # (file, line, name, bare) of every use of a name: a bare load (which
    # counts only in the module that defines the name), an attribute load, an
    # imported name, and a string that is exactly "module.name" (the names
    # in the benchmark's span table)
    refs = set()
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                line = getattr(node, "lineno", None)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.add((path, line, node.id, True))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    refs.add((path, line, node.attr, False))
                elif isinstance(node, ast.ImportFrom):
                    refs.update((path, line, alias.name, False) for alias in node.names)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    m = re.fullmatch(r"[a-z_0-9]+\.([A-Za-z_]\w*)", node.value)
                    if m:
                        refs.add((path, line, m.group(1), False))
    return refs


def _unused():
    # the public names without a caller, as "module.name"
    refs = _references()
    unused = []
    for (module, name), own in _public_definitions().items():
        home = PACKAGE / f"{module}.py"
        if not any(
            n == name and (p == home if bare else True) and not (p == home and ln in own)
            for p, ln, n, bare in refs
        ):
            unused.append(f"{module}.{name}")
    return unused


def test_every_public_name_has_a_caller_or_a_reason():
    assert [name for name in _unused() if name not in ALLOWED] == []


def test_the_allowlist_holds_only_public_names_without_a_caller():
    # an entry whose name gained a caller, or lost its definition, goes
    assert sorted(ALLOWED) == sorted(name for name in _unused() if name in ALLOWED)
    assert all(reason.strip() for reason in ALLOWED.values())
