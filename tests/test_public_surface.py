"""Every public module-level name of halfpic has a caller outside the tests,
and every field of one of its dataclasses a reader there, or an entry in
ALLOWED that says why it stays."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "halfpic"
CALLER_DIRS = ("src", "scripts", "bench")

# name -> why it stays without a caller in src/, scripts/ or bench/: part of
# the API the README documents, or a reference route, named with the test
# that compares against it.  A dataclass field is named module.Class.field.
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
    "lambda2.rot3_of_quat": "reference route: the SO(3) matrix of v -> q v q^-1, the frozen "
    "factor convention that the witness's closed-form quarter turn relies on; "
    "test_lambda2::test_left_multiplication_rotates_selfdual_and_fixes_antiselfdual",
    "flow.sharp_quadratic_form": "reference route: the defining form of R# at one bivector; "
    "test_flow::test_sharp_quadratic_form_is_the_diagonal",
    "flow.ProbeReport.worst_index": "with ProbeReport.seed the replay handle of the worst "
    "trajectory; test_flow::test_probe_worst_seed_replays",
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


def _dataclass_fields():
    # "module.Class.field" of every annotated field of a @dataclass
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "dataclass" for d in node.decorator_list
            ):
                found += [
                    f"{path.stem}.{node.name}.{stmt.target.id}"
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
    return found


def _references():
    # (file, line, name, kind) of every use of a name: "bare", a bare load
    # (which counts only in the module that defines the name); "attr", an
    # attribute load, an imported name or a string that is exactly
    # "module.name" (the names in the benchmark's span table); "word", a
    # string that is exactly "name" (a getattr, say), which counts only for
    # dataclass fields
    refs = set()
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                line = getattr(node, "lineno", None)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.add((path, line, node.id, "bare"))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    refs.add((path, line, node.attr, "attr"))
                elif isinstance(node, ast.ImportFrom):
                    refs.update((path, line, alias.name, "attr") for alias in node.names)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    m = re.fullmatch(r"[a-z_0-9]+\.([A-Za-z_]\w*)", node.value)
                    if m:
                        refs.add((path, line, m.group(1), "attr"))
                    elif node.value.isidentifier():
                        refs.add((path, line, node.value, "word"))
    return refs


def _unused():
    # the public names without a caller, as "module.name", then the dataclass
    # fields that nothing reads, as "module.Class.field"
    refs = _references()
    unused = []
    for (module, name), own in _public_definitions().items():
        home = PACKAGE / f"{module}.py"
        if not any(
            n == name and kind != "word" and (p == home if kind == "bare" else True)
            and not (p == home and ln in own)
            for p, ln, n, kind in refs
        ):
            unused.append(f"{module}.{name}")
    read = {n for _, _, n, kind in refs if kind != "bare"}
    unused += [f for f in _dataclass_fields() if f.rsplit(".", 1)[1] not in read]
    return unused


def test_every_public_name_has_a_caller_or_a_reason():
    assert [name for name in _unused() if name not in ALLOWED] == []


def test_the_allowlist_holds_only_public_names_without_a_caller():
    # an entry whose name gained a caller, or lost its definition, goes
    assert sorted(ALLOWED) == sorted(name for name in _unused() if name in ALLOWED)
    assert all(reason.strip() for reason in ALLOWED.values())
