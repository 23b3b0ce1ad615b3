"""Every public function and method of the package has a route: some code
in src/ or an acceptance test refers to it by name.  Code that only the
unit tests reach builds up unseen otherwise.

Public means a module-level function whose name has no leading
underscore, or such a method of any module-level class, private classes
included; properties are skipped.  A reference is a name, an attribute
or an imported name anywhere in src/ or in tests/test_acceptance.py, so a
method counts as reached when any attribute of that name is used.  A
package's `__init__.py` only re-exports, so its imports are not
references: a name it imports must still be used somewhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "entropia"

ALLOWED = {
    # the finite-difference reference check of every analytic Jacobian
    "DiscreteSystem.validate_jacobian",
    # the writers of the `bodies --body` and `collapse --spec` file formats,
    # whose readers the CLI calls; the CLI tests write their inputs with them
    "StarBody.to_json",
    "MappingTorusSpec.to_json",
}


def _skipped(node) -> bool:
    return any(ast.unparse(deco) == "property" for deco in node.decorator_list)


def _public_definitions():
    """{qualified name: bare name} of the public functions and methods."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                if not _skipped(node):
                    found[node.name] = node.name
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_") and not _skipped(sub)):
                        found[f"{node.name}.{sub.name}"] = sub.name
    return found


def _referenced_names():
    names = set()
    for path in [*SRC.rglob("*.py"), ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias) and path.name != "__init__.py":
                names.add(node.name)
    return names


def test_every_public_name_has_a_route():
    defined = _public_definitions()
    referenced = _referenced_names()
    unreached = {qual for qual, name in defined.items() if name not in referenced}
    assert ALLOWED <= set(defined), f"allowlisted but gone: {sorted(ALLOWED - set(defined))}"
    assert unreached - ALLOWED == set(), (
        "reached only from unit tests; give each a route or delete it: "
        f"{sorted(unreached - ALLOWED)}")
    assert ALLOWED <= unreached, f"allowlisted but reached: {sorted(ALLOWED - unreached)}"
