"""Every name mixcap exports is used by the package itself, or is listed below
with the reason it is public anyway: the library has no surface that only
its tests reach."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mixcap"
ALLOWED = {
    "gw": "the paper's G_w map",
    "solve_s": "the paper's sup{S : G_w <= eps} at a fixed input; the second-order tests scan it",
    "rate_quantile": "the paper's eps-quantile at a fixed input; imported by the acceptance tests",
    "normal_approx": "imported by the acceptance tests",
    "gaussian_inv": "imported by the acceptance tests",
    "mixture_converse_enumeration": "imported by the acceptance tests",
    "divergence": "the oracle for the row kernel _divergences in the channel tests",
}


def _exports() -> set:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _references() -> set:
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_used_or_allowed():
    unused = _exports() - _references() - set(ALLOWED)
    assert not unused, f"exported but referenced nowhere in src/mixcap: {sorted(unused)}"


def test_allowlist_has_no_stale_entries():
    assert set(ALLOWED) <= _exports() - _references()

