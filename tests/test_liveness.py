"""Every module-level function and class of the package, and every method, has a caller in it.

A name counts as used when a Name or Attribute node of another
definition, or of module-level code, in some module other than
`__init__.py` reads it; a name imported under an alias counts under
its own name.  The re-exports in `__init__.py` and a definition's
references to itself do not count, so code that only the tests call
shows up here.  A method or property counts as used when an Attribute
node reads its name, since no bare name can reach it; the dunders,
which Python calls, and the checks that `@identity` registers, which
the suite runner calls, are not counted.
"""

import ast
from pathlib import Path

import stueckelberg

PACKAGE = Path(stueckelberg.__file__).resolve().parent

# read from outside the package: perfbench/tracer.py takes its dense view
KEPT = {"exact.ExactMatrix._m"}


def _registered(fn):
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "identity"
               for d in fn.decorator_list)


def _unused():
    defined, methods, used, read_as_attribute = [], [], set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        aliases = {a.asname: a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
        # each node inside a definition belongs to that definition's name,
        # and a node inside a method also to the method's
        owners = {}
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.append(f"{path.stem}.{top.name}")
                owners.update((id(n), {top.name}) for n in ast.walk(top))
            if isinstance(top, ast.ClassDef):
                for fn in top.body:
                    if (isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")
                            and not _registered(fn)):
                        methods.append(f"{path.stem}.{top.name}.{fn.name}")
                        for n in ast.walk(fn):
                            owners[id(n)].add(fn.name)
        for n in ast.walk(tree):
            name = (n.id if isinstance(n, ast.Name)
                    else n.attr if isinstance(n, ast.Attribute) else None)
            name = aliases.get(name, name)
            if name is not None and name not in owners.get(id(n), ()):
                used.add(name)
                if isinstance(n, ast.Attribute):
                    read_as_attribute.add(name)
    return ([d for d in defined if d.split(".")[1] not in used]
            + [m for m in methods if m.split(".")[2] not in read_as_attribute and m not in KEPT])


def test_every_definition_has_a_library_caller():
    assert _unused() == []
