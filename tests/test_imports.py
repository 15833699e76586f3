"""Every name a module imports is used in it, and every constant is read.

Each module under `src/` and `tests/` is parsed, not imported.  A name
counts as used when it appears anywhere in the module's syntax tree,
annotations included.  `from __future__` imports and the names a package
re-exports through `__all__` are exempt.  Every UPPER_CASE constant a
module under `src/` assigns at its top level must be read somewhere under
`src/`, by name or as an attribute: tests alone do not keep one alive.
Every top-level function and class under `src/` must be named somewhere
under `src/` outside its own definition, or exported by the package.
Every parameter with a default of a top-level function under `src/` must
be passed by some call under `src/`, `tests/` or `perfbench/`, and no
parameter of one may get the same literal constant from every such call,
unless the function is also named outside a call (passed on as a value).
The package's `__all__` must list exactly the names its `__init__`
imports, and a short session loads neither the drawer nor the replay
parser.  A test's `monkeypatch.setattr(module, "name", ..., raising=False)`
on a module of the package must name something that module binds at its
top level, or a builtin it shadows: any other name patches nothing.
"""

import ast
import builtins
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").rglob("*.py"))
CALLERS = MODULES + sorted((ROOT / "perfbench").rglob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exempt = used | _exported(tree)
    return [f"line {line}: {name}" for name, line in sorted(_imported(tree).items(),
                                                            key=lambda kv: kv[1])
            if name not in exempt]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_finds_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport math\nfrom a import b, c as d\n"
           "__all__ = ['d']\n"
           "def f(x: b) -> None:\n    return os.sep\n")
    assert unused_imports(src) == ["line 3: math"]


def unread_constants(sources: dict[str, str]) -> list[str]:
    """'module: NAME' for each top-level UPPER_CASE constant of the modules
    `sources` (name -> source) that none of them reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name.id):
                        defined.append((module, name.id))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{module}: {name}" for module, name in defined if name not in read]


def test_every_source_constant_is_read():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    assert unread_constants(sources) == []


def test_check_finds_an_unread_constant():
    sources = {"a.py": "LIMIT = 1\n_STEP, WIDTH = 2, 3\nDONE: int = 0\nlower = LIMIT\n"
                       "def f():\n    OTHER = 4\n    return OTHER\n",
               "b.py": "from a import DONE\nimport a\nprint(a.WIDTH)\nDONE = 5\n"}
    assert unread_constants(sources) == ["a.py: _STEP", "a.py: DONE", "b.py: DONE"]


def _is_command(node: ast.AST) -> bool:
    """Whether a definition is decorated `@<group>.command(...)` or
    `@click.group(...)`: the command line reaches it through its group."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _names(node: ast.AST) -> Counter:
    """How often each name appears under `node`, bare or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def dead_definitions(sources: dict[str, str], exported: set[str]) -> list[str]:
    """'module: name' for each top-level function or class of the modules
    `sources` (name -> source) that none of them names outside its own
    definition, unless it is in `exported` or a command."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    return [f"{module}: {node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not _is_command(node) and node.name not in exported
            and named[node.name] == _names(node)[node.name]]


# Named nowhere in the package, but deleted by name in the perfbench test of
# a layer whose entry point is absent; it goes with that test (ROADMAP item 6).
UNUSED_KEPT = ["src/spdcqkd/_kernels.py: fnv1a64"]


def test_every_source_definition_is_used():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    exported = _exported(ast.parse((ROOT / "src" / "spdcqkd" / "__init__.py").read_text()))
    assert dead_definitions(sources, exported) == UNUSED_KEPT


def test_check_finds_a_dead_definition():
    sources = {"a.py": "import click\n@click.group()\ndef main(): pass\n"
                       "@main.command('go')\ndef go(): pass\n"
                       "def loop(n):\n    return loop(n - 1) if n else 0\n"
                       "def used(): pass\nclass Kept: pass\nclass Gone: pass\n",
               "b.py": "import a\ndef helper():\n    return a.used()\n"
                       "def public(): pass\n"}
    assert dead_definitions(sources, {"public", "Kept"}) == ["a.py: loop", "a.py: Gone",
                                                             "b.py: helper"]


def _defaulted(node: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(positional index or None if keyword-only, name) of each parameter
    of `node` that has a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(i, a.arg) for i, a in enumerate(positional) if i >= first]
            + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def unset_parameters(sources: dict[str, str], callers: dict[str, str]) -> list[str]:
    """'module: function.parameter' for each parameter with a default of a
    top-level function of `sources` that no call in `callers` (both name ->
    source) passes: by keyword, or positionally past its index, to a call
    of the function's name, bare or as an attribute.  A call with *args or
    **kwargs passes everything."""
    passed: dict[str, set] = {}
    for source in callers.values():
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            given = passed.setdefault(name, set())
            if (any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg is None for k in call.keywords)):
                given.add("*")  # no parameter has this name
            given.update(range(len(call.args)))
            given.update(k.arg for k in call.keywords)
    return [f"{module}: {node.name}.{param}"
            for module, source in sources.items() for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)
            for index, param in _defaulted(node)
            if not {"*", index, param} & passed.get(node.name, set())]


def test_every_defaulted_parameter_is_passed():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    callers = {str(p.relative_to(ROOT)): p.read_text() for p in CALLERS}
    assert unset_parameters(sources, callers) == []


def test_check_finds_an_unset_parameter():
    sources = {"a.py": "def f(x, y=1, z=2, *, k=3, m=4): pass\n"
                       "def g(a=1, b=2): pass\n"
                       "def h(a, b=1): pass\n"
                       "class C:\n    def method(self, unset=0): pass\n"}
    callers = {"a.py": "f(0, 1)\nf(0, m=5)\n",
               "b.py": "import a\na.g(*[1])\nh(1)\n"}
    assert unset_parameters(sources, callers) == ["a.py: f.z", "a.py: f.k", "a.py: h.b"]


def _literal(node: ast.AST | None) -> str | None:
    """repr of the literal constant `node` stands for, None if it is not one."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError):
        return None


def constant_arguments(sources: dict[str, str], callers: dict[str, str]) -> list[str]:
    """'module: function.parameter' for each parameter of a top-level
    function of `sources` to which every call in `callers` (both name ->
    source) of the function's name, bare or as an attribute, gives one
    literal constant, passed or as the default.  A function named anywhere
    outside a call's callee, or called with *args or **kwargs, is skipped:
    its other callers are unknown."""
    calls: dict[str, list[ast.Call]] = {}
    named = set()
    for source in callers.values():
        tree = ast.parse(source)
        callees = set()
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                callees.add(call.func)
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                calls.setdefault(name, []).append(call)
        named.update(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                     if isinstance(n, (ast.Name, ast.Attribute)) and n not in callees)
    found = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            sites = calls.get(getattr(node, "name", None), [])
            if (not isinstance(node, ast.FunctionDef) or node.name in named or not sites
                    or any(isinstance(a, ast.Starred) for c in sites for a in c.args)
                    or any(k.arg is None for c in sites for k in c.keywords)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = dict(zip([a.arg for a in positional[len(positional) - len(args.defaults):]],
                                args.defaults))
            defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults))
            for index, param in ([(i, a.arg) for i, a in enumerate(positional)]
                                 + [(None, a.arg) for a in args.kwonlyargs]):
                values = set()
                for call in sites:
                    given = {k.arg: k.value for k in call.keywords}
                    if index is not None and index < len(call.args):
                        given[param] = call.args[index]
                    values.add(_literal(given.get(param, defaults.get(param))))
                if len(values) == 1 and None not in values:
                    found.append(f"{module}: {node.name}.{param}")
    return found


def test_no_parameter_gets_one_constant_from_every_call():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    callers = {str(p.relative_to(ROOT)): p.read_text() for p in CALLERS}
    assert constant_arguments(sources, callers) == []


def test_check_finds_a_constant_argument():
    sources = {"a.py": "def f(x, path, n=1, *, k=2): pass\n"
                       "def g(x, y): pass\n"
                       "def h(x): pass\n"
                       "def spread(x): pass\n"
                       "def unused(x): pass\n"
                       "def starred(x): pass\n"}
    callers = {"a.py": "f(1, 'p.')\nf(2, 'p.', 1)\ng(0, 1)\nh(True)\nspread(3)\n"
                       "starred(*[0])\n",
               "b.py": "import a\na.f(x=3, path='p.', k=2)\ng(0, 2)\na.h(1)\n"
                       "spread(3)\nfunctools.partial(a.spread, 4)\n"}
    assert constant_arguments(sources, callers) == ["a.py: f.path", "a.py: f.n", "a.py: f.k",
                                                    "a.py: g.x"]


def _top_level_names(tree: ast.Module) -> set[str]:
    """Names a module binds outside any function or class: what it
    defines, assigns or imports in its top-level statements, any branch
    included, and what a function declares `global`."""
    names = {n for node in ast.walk(tree) if isinstance(node, ast.Global) for n in node.names}
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif not isinstance(node, (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):  # their names are their own
            todo.extend(ast.iter_child_nodes(node))
    return names


def dead_patches(tests: dict[str, str], package: dict[str, str]) -> list[str]:
    """'file:line: module.name' for each `<any>.setattr(module, "name", ...,
    raising=False)` in `tests` (name -> source) whose `module` is a module
    of the package (`package`: module name -> source), imported by `from
    spdcqkd import`, that binds no `name` at its top level, unless `name`
    is a builtin."""
    bound = {module: _top_level_names(ast.parse(source)) for module, source in package.items()}
    found = []
    for path, source in tests.items():
        tree = ast.parse(source)
        modules = {a.asname or a.name: a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "spdcqkd"
                   for a in node.names if a.name in package}
        for call in ast.walk(tree):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "setattr" and len(call.args) >= 2
                    and any(k.arg == "raising" and isinstance(k.value, ast.Constant)
                            and k.value.value is False for k in call.keywords)
                    and isinstance(call.args[0], ast.Name) and call.args[0].id in modules
                    and isinstance(call.args[1], ast.Constant)):
                module, name = modules[call.args[0].id], call.args[1].value
                if name not in bound[module] and not hasattr(builtins, name):
                    found.append(f"{path}:{call.lineno}: {module}.{name}")
    return found


def test_no_patch_of_a_missing_name():
    tests = {str(p.relative_to(ROOT)): p.read_text() for p in MODULES if p not in SOURCES}
    package = {p.stem: p.read_text() for p in SOURCES}
    assert dead_patches(tests, package) == []


def test_check_finds_a_patch_of_a_missing_name():
    package = {"mod": "import os\nfrom a import b as c\nX, (Y, Z) = 1, (2, 3)\n"
                      "if X:\n    def f(): pass\nelse:\n    class K: pass\n"
                      "W = [i for i in range(3)]\n"
                      "def g():\n    global G\n    G = local = 1\n",
               "other": ""}
    tests = {"t.py": "import os\nfrom spdcqkd import mod, other as o, __version__\n"
                     "def test(monkeypatch):\n"
                     + "".join(f"    monkeypatch.setattr(mod, {name!r}, 0, raising=False)\n"
                               for name in ("os", "c", "X", "Z", "f", "K", "W", "G", "open",
                                            "i", "local"))
                     + "    monkeypatch.setattr(o, 'gone', 0, raising=False)\n"
                     "    with monkeypatch.context() as m:\n"
                     "        m.setattr(mod, 'b', 0, raising=False)\n"
                     "    monkeypatch.setattr(mod, 'unset', 0)\n"
                     "    monkeypatch.setattr(mod, 'unset', 0, raising=True)\n"
                     "    monkeypatch.setattr(os, 'unset', 0, raising=False)\n"}
    assert dead_patches(tests, package) == ["t.py:13: mod.i", "t.py:14: mod.local",
                                            "t.py:15: other.gone", "t.py:17: mod.b"]


def test_package_exports_exactly_its_imports():
    """`__all__` lists every name `__init__` imports, no other, and each
    resolves: an export of a deleted name fails here, not at import time."""
    import spdcqkd

    tree = ast.parse((ROOT / "src" / "spdcqkd" / "__init__.py").read_text())
    assert sorted(spdcqkd.__all__) == sorted(_imported(tree))
    for name in spdcqkd.__all__:
        assert hasattr(spdcqkd, name), name


def test_short_simulate_loads_no_drawer_and_no_replay(tmp_path):
    """A short `simulate`, with or without a transcript, in a fresh
    interpreter imports neither module it loads on first use, so a cold
    start compiles neither the drawer nor the transcript reader and text
    converter."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rounds": 2000, "seed": 1, "source": {"kind": "singlet"}}))
    transcript = tmp_path / "run.v3"
    script = ("import sys\n"
              "from spdcqkd.cli import main\n"
              "try:\n"
              "    main(['simulate', '--config', *sys.argv[1:]])\n"
              "except SystemExit as exc:\n"
              "    assert not exc.code, exc.code\n"
              "print(sorted(name for name in sys.modules if name.startswith('spdcqkd.')),"
              " file=sys.stderr)\n")
    for args in ([str(config)], [str(config), "--transcript", str(transcript)]):
        result = subprocess.run([sys.executable, "-c", script, *args],
                                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["results"]["rounds"] == 2000
        loaded = ast.literal_eval(result.stderr.strip().splitlines()[-1])
        assert "spdcqkd.protocol" in loaded
        assert "spdcqkd._drawer" not in loaded and "spdcqkd._replay" not in loaded
    assert transcript.read_bytes().startswith(b"spdcqkd-transcript 3\n")
