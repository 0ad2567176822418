"""Every public top-level function and class of sppsim has a user.

A definition counts as used when another sppsim module refers to it, when
the benchmark code (perfbench/*.py) or pyproject.toml names it, or when
another statement of its own module refers to it.  Tests do not count: a
function that only tests call belongs in the tests.  The few exceptions are
listed in ALLOWED, each with its reason.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sppsim"

ALLOWED = {
    "dwr.qoi": "the goal functional; the effectivity index (ROADMAP item 6a) needs it",
    "oracle.fourier_coefficients": "the Fourier-space derivation that the tests check",
    "oracle.dispersion_residual": "the Fourier-space derivation that the tests check",
}


def referenced(nodes) -> set[str]:
    """Names, attribute names and imported names referred to in the nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.alias):
                out.add(sub.name)
    return out


def modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
            if path.stem != "__init__"}


def public_definitions(tree: ast.Module):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node


def unused_definitions() -> list[str]:
    trees = modules()
    named_outside = "\n".join(path.read_text() for path in
                              [*sorted((ROOT / "perfbench").glob("*.py")),
                               ROOT / "pyproject.toml"])
    unused = []
    for short, tree in trees.items():
        elsewhere = referenced(t for other, t in trees.items() if other != short)
        for node in public_definitions(tree):
            own = referenced(n for n in tree.body if n is not node)
            if (node.name not in elsewhere | own
                    and not re.search(rf"\b{node.name}\b", named_outside)):
                unused.append(f"{short}.{node.name}")
    return unused


def test_every_public_definition_has_a_user():
    unused = [name for name in unused_definitions() if name not in ALLOWED]
    assert not unused, f"public sppsim definitions that only tests use: {unused}"


def test_allowlist_names_existing_unused_definitions():
    trees = modules()
    defined = {f"{short}.{node.name}" for short, tree in trees.items()
               for node in public_definitions(tree)}
    assert set(ALLOWED) <= defined
    assert set(ALLOWED) <= set(unused_definitions())
