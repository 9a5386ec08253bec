"""Every module-level function and class of the package has a caller in the package.

A name counts as used when a Name or Attribute node of another
definition, or of module-level code, in some module other than
`__init__.py` reads it; a name imported under an alias counts under
its own name.  The re-exports in `__init__.py` and a definition's
references to itself do not count, so code that only the tests call
shows up here.
"""

import ast
from pathlib import Path

import stueckelberg

PACKAGE = Path(stueckelberg.__file__).resolve().parent


def _unused():
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        aliases = {a.asname: a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
        # each node inside a top-level definition belongs to that definition's name
        owner = {}
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.append(f"{path.stem}.{top.name}")
                owner.update((id(n), top.name) for n in ast.walk(top))
        for n in ast.walk(tree):
            name = (n.id if isinstance(n, ast.Name)
                    else n.attr if isinstance(n, ast.Attribute) else None)
            name = aliases.get(name, name)
            if name is not None and owner.get(id(n)) != name:
                used.add(name)
    return [d for d in defined if d.split(".")[1] not in used]


def test_every_definition_has_a_library_caller():
    assert _unused() == []
