"""Every module-level function and class of the package, and every method, has a caller in it.

A name counts as used when a Name or Attribute node of another
definition, or of module-level code, in some module other than
`__init__.py` reads it; a name imported under an alias counts under
its own name.  The re-exports in `__init__.py` and a definition's
references to itself do not count, so code that only the tests call
shows up here.  A method or property counts as used when an Attribute
node reads its name, since no bare name can reach it; the checks that
`@identity` registers, which the suite runner calls, are not counted.

The dunders, which Python calls and no Attribute node reads, are
checked at run time instead: each one a package class defines, its
construction aside, must be called by one of the commands in `RUNS`,
driven in-process through `cli.main`.
"""

import ast
import contextlib
import io
import sys
import types
from pathlib import Path

import stueckelberg
from stueckelberg import cli

PACKAGE = Path(stueckelberg.__file__).resolve().parent

# read from outside the package: perfbench/tracer.py takes its dense view
# and patches the scalar products by name
KEPT = {"exact.ExactMatrix._m", "exact.GaussianRational.__rmul__"}

# the commands whose calls the runtime check counts, run one after another in-process
RUNS = [
    ("verify", "all", "--workers", "1"),
    ("verify", "all", "--k0", "37/11", "--mass=125/7", "--momentum=-180/7,192/7,144/7",
     "--workers", "1"),
    ("verify", "all", "--momentum", "0,0,0", "--workers", "1"),
    ("verify", "fock", "--scheme", "1", "--workers", "1"),
    ("dump", "epsilon", "--a", "1", "--b", "[12]"),
    ("dump", "wave-matrices"),
    ("dump", "solutions", "--mass", "4", "--momentum", "0,0,3"),
    ("dump", "gram", "--truncation", "3"),
    # the repeated term adds up
    ("stokes", "--state", '[[1, 0, "1", "0"], [0, 1, "1/2", "0"], [1, 0, "0", "1"]]'),
]
CONSTRUCTION = {"__new__", "__init__", "__init_subclass__"}
# witness text, and the hash kept beside each __eq__
UNCALLED_DUNDERS = {"__repr__", "__str__", "__hash__"}


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


def _package_modules():
    return [m for name, m in sys.modules.items() if name.startswith("stueckelberg.")]


def _dunders():
    """(name, class, dunder, function) of each dunder of a package class, construction aside."""
    return [(f"{mod.__name__.rpartition('.')[2]}.{cls.__name__}.{name}", cls, name, fn)
            for mod in _package_modules() for cls in vars(mod).values()
            if isinstance(cls, type) and cls.__module__ == mod.__name__
            for name, fn in vars(cls).items()
            if name.startswith("__") and name.endswith("__")
            and isinstance(fn, types.FunctionType) and name not in CONSTRUCTION]


def test_every_dunder_has_a_call_from_a_command(monkeypatch):
    called = set()
    for key, cls, name, fn in _dunders():
        # the first call notes the dunder and puts the function back
        def first_call(*args, _key=key, _cls=cls, _name=name, _fn=fn, **kwargs):
            called.add(_key)
            setattr(_cls, _name, _fn)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cls, name, first_call)
    # as in a fresh process: no object an earlier test built is reused
    for mod in _package_modules():
        for v in vars(mod).values():
            if hasattr(v, "cache_clear"):
                v.cache_clear()
    for argv in RUNS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(argv)) == 0, argv
    assert [key for key, _, name, _ in _dunders() if key not in called
            and name not in UNCALLED_DUNDERS and key not in KEPT] == []
