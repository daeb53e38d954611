"""Source hygiene: no module imports a name it never uses, every
function the bench tracer wraps still exists and every function a bench
workload must reach is called by its inputs, every __all__ entry
resolves, the package re-exports each public name as its defining
module's object, read at each access, rings are built only by the
ringexpr constructors, every CLI subcommand is run by some test in
tests/test_cli.py, every word the DSL parser reads as grammar is a
keyword a let cannot bind, every __slots__ field of a gradal class is
read somewhere, and nothing in gradal uses dataclasses, so importing it
generates no code.  In a fresh interpreter, import gradal loads no
submodule and each golden CLI command loads exactly the modules it runs.

A stdlib AST scan stands in for a linter.  A name counts as used when it
is read anywhere in the module or listed in the module's __all__.  The
bench tables (TRACED in bench/tracer.py, COVERAGE in bench/worker.py,
CLI_COMMANDS in bench/workloads.py) are read with ast as well, so the
bench package is never imported.
"""

import argparse
import ast
import importlib
import io
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = sorted((ROOT / "src" / "gradal").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def _imported(tree):
    """(bound name, line) for every import in the module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0],
                            node.lineno))
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def _used(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree)
            if name not in used]


def test_scanner_flags_unused_and_keeps_exported():
    src = ("import os\nimport os.path as osp\nfrom math import gcd, lcm\n"
           "from x import y as z\n__all__ = ['lcm']\nprint(gcd)\n")
    assert unused_imports(src) == [("os", 1), ("osp", 2), ("z", 4)]


def test_no_unused_imports():
    found = []
    for path in SCANNED:
        for name, line in unused_imports(path.read_text()):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "imported but unused:\n" + "\n".join(found)


def bench_table(filename, name):
    """The literal value assigned to name at the top of bench/filename."""
    tree = ast.parse((ROOT / "bench" / filename).read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/{filename} defines no {name}")


def traced_names():
    """The (module, qualname) pairs of TRACED in bench/tracer.py."""
    return bench_table("tracer.py", "TRACED")


def test_traced_functions_resolve():
    missing = []
    for module, qual in traced_names():
        owner = importlib.import_module("gradal." + module)
        for part in qual.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"gradal.{module}.{qual}")
    assert not missing, "traced but gone:\n" + "\n".join(missing)


def called_functions(run):
    """"module.qualname" of every gradal function that run() calls."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    src = ROOT / "src" / "gradal"
    return {f"{path.stem}.{code.co_qualname}" for code in codes
            for path in [pathlib.Path(code.co_filename)] if path.parent == src}


def test_called_functions_records_methods():
    from gradal.abelian import FgGroup
    g = FgGroup(1, (2,))
    called = called_functions(lambda: g.element((1, 1)) + g.zero())
    assert {"abelian.FgGroup.element", "abelian.GroupElem.__add__"} <= called
    assert "abelian.FgGroup.torsion_elements" not in called


def test_bench_workloads_reach_their_coverage():
    """Each function a bench workload must reach (COVERAGE in
    bench/worker.py) is called by that workload's inputs: the 12 checks
    at 24 trials and seed 2024 for harness, the golden commands
    (CLI_COMMANDS in bench/workloads.py) for cli-cold."""
    import gradal
    from gradal.cli import main
    from gradal.harness import CHECK_IDS, CheckConfig, run_check
    coverage = bench_table("worker.py", "COVERAGE")
    memos = {id(fn): fn for mod in pkgutil.iter_modules(gradal.__path__)
             for fn in vars(importlib.import_module(
                 f"gradal.{mod.name}")).values()
             if hasattr(fn, "cache_clear")}
    assert memos, "no lru_cache found in gradal"

    def harness():
        for cid in CHECK_IDS:
            run_check(CheckConfig(cid, 24, 2024))

    def cli():
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            codes = [main(list(argv)) for _, _, argv in
                     bench_table("workloads.py", "CLI_COMMANDS")]
        assert codes == [0] * len(codes)

    missing = []
    for workload, run in (("harness", harness), ("cli-cold", cli)):
        # The bench runs each workload in a fresh process, but here one
        # process runs them all; a memo hit enters no Python frame, so
        # start each workload with every lru_cache in gradal empty.
        for fn in memos.values():
            fn.cache_clear()
        called = called_functions(run)
        missing += [f"{workload}: {fn}" for fn in coverage[workload]
                    if fn not in called]
    assert not missing, "bench coverage not reached:\n" + "\n".join(missing)


def normal_form_calls(source):
    """Lines that call NormalForm(...), by bare name or as an attribute."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr",
                                                                  None)
            if name == "NormalForm":
                out.append(node.lineno)
    return out


def test_normal_form_scanner():
    src = ("a = NormalForm('Q', e, g, d)\nb = ringexpr.NormalForm(1)\n"
           "c: NormalForm = f(NormalForm)\n")
    assert normal_form_calls(src) == [1, 2]


def test_normal_form_built_only_in_ringexpr():
    found = []
    for path in sorted((ROOT / "src" / "gradal").glob("*.py")):
        if path.name == "ringexpr.py":
            continue
        for line in normal_form_calls(path.read_text()):
            found.append(f"{path.relative_to(ROOT)}:{line}")
    assert not found, ("NormalForm built outside ringexpr, use its "
                       "constructors:\n" + "\n".join(found))


def test_all_entries_resolve():
    missing = []
    names = ["gradal"] + sorted(
        "gradal." + p.stem for p in (ROOT / "src" / "gradal").glob("*.py")
        if p.stem != "__init__")
    for name in names:
        module = importlib.import_module(name)
        for entry in getattr(module, "__all__", ()):
            if not hasattr(module, entry):
                missing.append(f"{name}.{entry}")
    assert not missing, "listed in __all__ but undefined:\n" + "\n".join(
        missing)


def test_public_names_come_from_their_defining_module():
    """gradal re-exports each __all__ name as the very object of the
    module that defines it: the Fraction of element, not the
    fractions.Fraction that intmat also binds."""
    import fractions
    import gradal
    from gradal import element, intmat
    assert gradal.Fraction is element.Fraction is not fractions.Fraction
    assert gradal.hermite_columns is intmat.hermite_columns
    assert set(gradal._OWNER) == set(gradal.__all__)
    wrong = []
    for name in gradal.__all__:
        module = importlib.import_module("gradal." + gradal._OWNER[name])
        obj = getattr(module, name)
        if (getattr(gradal, name) is not obj
                or getattr(obj, "__module__", module.__name__)
                != module.__name__):
            wrong.append(f"gradal.{name} is not {module.__name__}.{name}")
    assert not wrong, "\n".join(wrong)


def test_package_namespace():
    """A star import binds all of __all__, dir lists it, and a name the
    package does not export is an AttributeError, not a lookup into some
    module (solve_int is intmat's, not public)."""
    import gradal
    scope = {}
    exec("from gradal import *", scope)
    assert set(gradal.__all__) <= set(scope)
    assert set(gradal.__all__) <= set(dir(gradal))
    assert not hasattr(gradal, "no_such_name")
    assert not hasattr(gradal, "solve_int")


def test_package_names_are_read_at_each_access(monkeypatch):
    """The package caches nothing, so a function patched into its
    defining module is the one gradal returns, until the patch is undone."""
    import gradal
    from gradal import closure
    original, patched = closure.find_integral_equation, object()
    monkeypatch.setattr(closure, "find_integral_equation", patched)
    assert gradal.find_integral_equation is patched
    monkeypatch.undo()
    assert gradal.find_integral_equation is original


def invoked_strings(source):
    """String constants passed to a call or listed in a tuple or list:
    the places a CLI test spells out its argv."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            items = node.args
        elif isinstance(node, (ast.Tuple, ast.List)):
            items = node.elts
        else:
            continue
        out.update(a.value for a in items
                   if isinstance(a, ast.Constant) and isinstance(a.value, str))
    return out


def test_invoked_strings_scanner():
    src = ("run_main(capsys, 'classify', ring)\nX = [('demo', 'a90')]\n"
           "y = {'almost': 1}\nz = 'idempotent'\n")
    assert invoked_strings(src) == {"classify", "demo", "a90"}


def test_every_subcommand_tested():
    from gradal.cli import _parser
    sub = next(a for a in _parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    called = invoked_strings((ROOT / "tests" / "test_cli.py").read_text())
    missing = sorted(set(sub.choices) - called)
    assert not missing, ("subcommands no test in tests/test_cli.py runs: "
                         + ", ".join(missing))


def _strings(node):
    """The string constants of a constant or of a tuple, list or set."""
    items = (node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set))
             else [node])
    return {n.value for n in items
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def parser_words(source):
    """Words (identifier-like strings) that _Parser compares token text
    against: operands of a comparison with some `.text`, the argument of
    `expect`, and the reserved words of `ref` (all but its first
    argument, the kind of binding it resolves)."""
    tree = ast.parse(source)
    cls = next(n for n in tree.body
               if isinstance(n, ast.ClassDef) and n.name == "_Parser")
    found = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Attribute) and o.attr == "text"
                   for o in operands):
                for o in operands:
                    found |= _strings(o)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)):
            args = {"expect": node.args,
                    "ref": node.args[1:]}.get(node.func.attr, [])
            for arg in args:
                found |= _strings(arg)
    return {w for w in found if w.isidentifier()}


def test_parser_words_scanner():
    src = ("class _Parser:\n"
           "    def f(self, t, kind):\n"
           "        if t.text == 'Z' or self.peek().text in ('fine', '['):\n"
           "            self.expect('let')\n"
           "        self.expect('(')\n"
           "        self.ref('group', 'e')\n"
           "        if kind == 'ring' or t.kind != 'name':\n"
           "            pass\n"
           "class Other:\n"
           "    def g(self, t):\n"
           "        return t.text == 'Q'\n")
    assert parser_words(src) == {"Z", "fine", "let", "e"}


def test_parser_words_are_keywords():
    """Where the parser reads a word as grammar, a name spelled the same
    cannot be referenced, so a let must not bind it.  "x", the infix
    product of groups, is the exception: a name x resolves wherever a
    name is read."""
    from gradal.cli import _KEYWORDS
    words = parser_words((ROOT / "src" / "gradal" / "cli.py").read_text())
    missing = sorted(words - _KEYWORDS - {"x"})
    assert not missing, ("words the parser reads but a let may bind: "
                         + ", ".join(missing))


def dataclass_uses(source):
    """Lines that import dataclasses or name dataclass (a decorator, a
    call or an attribute)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(a.name == "dataclasses" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "dataclasses"
        elif isinstance(node, ast.Name):
            hit = node.id == "dataclass"
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "dataclass"
        else:
            continue
        if hit:
            out.append(node.lineno)
    return sorted(set(out))


def test_dataclass_scanner():
    src = ("import dataclasses\nfrom dataclasses import field\n"
           "@dataclass(frozen=True)\nclass A:\n    pass\n"
           "@dataclasses.dataclass\nclass B:\n    dataclass_like = 1\n")
    assert dataclass_uses(src) == [1, 2, 3, 6]


def test_no_dataclasses_in_gradal():
    found = []
    for path in sorted((ROOT / "src" / "gradal").glob("*.py")):
        for line in dataclass_uses(path.read_text()):
            found.append(f"{path.relative_to(ROOT)}:{line}")
    assert not found, ("dataclasses generate code at import; write a "
                       "__slots__ class:\n" + "\n".join(found))


def fresh_stdout(code, *argv):
    """What code prints in a fresh interpreter without site imports, with
    gradal on its path and argv as sys.argv[1:]."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_cli_import_loads_no_code_generators():
    """A fresh interpreter without site imports gradal.cli and loads
    neither dataclasses nor inspect."""
    code = ("import sys; import gradal.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert fresh_stdout(code) == "[]"


GRADAL_LOADED = ("import sys; print(' '.join(sorted(m for m in sys.modules "
                 "if m == 'gradal' or m.startswith('gradal.'))))")

# What gradal.cli imports at the top, and the modules beyond those that
# each golden command loads.
CLI_TOP = ("gradal", "gradal.cli", "gradal.errors", "gradal.abelian",
           "gradal.intmat", "gradal.ringexpr")
COMMAND_MODULES = {
    "classify": (),
    "demo a140": (),
    "demo p90": ("element",),
    "demo a90": ("closure", "element"),
    "divide": ("closure", "element"),
    "integrality": ("closure", "element"),
    "check": ("closure", "element", "harness"),
}


def test_import_gradal_loads_no_submodule():
    assert fresh_stdout("import gradal; " + GRADAL_LOADED) == "gradal"


def test_cli_commands_load_only_their_modules():
    """Each golden command (CLI_COMMANDS in bench/workloads.py), run by
    main in a fresh interpreter, loads exactly the gradal modules it
    runs: only check compiles the harness, and classify and demo a140
    compile neither closure nor element."""
    code = ("import contextlib, io, sys\nfrom gradal.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(sys.argv[1:]) == 0\n" + GRADAL_LOADED)
    wrong = []
    for _, _, argv in bench_table("workloads.py", "CLI_COMMANDS"):
        key = " ".join(argv[:2]) if argv[0] == "demo" else argv[0]
        want = " ".join(sorted(CLI_TOP + tuple(
            "gradal." + m for m in COMMAND_MODULES[key])))
        got = fresh_stdout(code, *argv)
        if got != want:
            wrong.append(f"{' '.join(argv)}: loads {got}, not {want}")
    assert not wrong, "\n".join(wrong)


def slot_fields(source):
    """(class, field, line) for every __slots__ entry in the module."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for st in node.body:
                if (isinstance(st, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__slots__"
                                for t in st.targets)):
                    out += [(node.name, f, st.lineno)
                            for f in ast.literal_eval(st.value)]
    return out


def attributes_read(source):
    """Every name read as an attribute, x.name in load context, except
    where it is called: g.generators() reads a method, not a field."""
    tree = ast.parse(source)
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and id(n) not in called}


def test_slot_scanner():
    src = ("class A:\n    __slots__ = ('x', 'y', 'z')\n\n"
           "    def f(self):\n        self.y = 1\n        self.z()\n"
           "        return self.x\n")
    assert slot_fields(src) == [("A", "x", 2), ("A", "y", 2), ("A", "z", 2)]
    assert attributes_read(src) == {"x"}


def test_no_dead_slot_fields():
    """A field that src, tests, bench and the README's Python never read
    is stored for nobody.  The scan goes by name alone, so a field is
    missed while another class's attribute of that name is read: a
    group field passes because GroupElem.group is read."""
    readers = [p.read_text() for p in SCANNED]
    readers += [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    readers += re.findall(r"```python\n(.*?)```",
                          (ROOT / "README.md").read_text(), re.S)
    read = set().union(*map(attributes_read, readers))
    dead = [f"{path.relative_to(ROOT)}:{line}: {cls}.{field}"
            for path in sorted((ROOT / "src" / "gradal").glob("*.py"))
            for cls, field, line in slot_fields(path.read_text())
            if field not in read]
    assert not dead, "stored but never read:\n" + "\n".join(dead)
