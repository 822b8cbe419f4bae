"""Structural guards on the package.

Every top-level function, class and assigned name (dunders excepted) and
every non-dunder method defined in src/leveltower/*.py must be named, as a
whole word, somewhere in src/ or perfbench/ outside its own definition, its
import lines and `__all__`: code that only tests reach belongs in the
tests.  The console-script entry point `main` is exempt.  Every name a
module in src/ or tests/ imports is read in that module or listed in its
`__all__` (`__future__` imports are exempt).  Every field a class in src/
stores is read in src/ or perfbench/.  README's module map lists exactly
the package's modules, one module owns the permutation expansion, and every
function perfbench traces is found in the package.
"""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "leveltower"
EXEMPT = {"main"}


def _is_all(node):
    return (isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets))


def _excluded_lines(tree):
    """1-based line numbers of import statements and `__all__` assignments."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or _is_all(node):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(path, tree):
    """(name, path, first line, last line) for each guarded definition."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend((name.id, path, node.lineno, node.end_lineno)
                       for target in targets for name in ast.walk(target)
                       if isinstance(name, ast.Name) and not _is_dunder(name.id))
            continue
        if not isinstance(node, defs):
            continue
        out.append((node.name, path, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _is_dunder(item.name)):
                    out.append((item.name, path, item.lineno, item.end_lineno))
    return out


def test_every_definition_is_referenced():
    # names match as words, so a method escapes when any other definition
    # of the same name is referenced
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    where, definitions = {}, []   # word -> [(path, line number)]
    for path in sources:
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        excluded = _excluded_lines(tree)
        for number, line in enumerate(text.splitlines(), start=1):
            if number not in excluded:
                for word in set(re.findall(r"\w+", line)):
                    where.setdefault(word, []).append((path, number))
        if path.parent == PACKAGE:
            definitions.extend(_definitions(path, tree))

    unreferenced = [
        f"{home.name}:{first} {name}"
        for name, home, first, last in definitions
        if name not in EXEMPT
        and all(path == home and first <= number <= last
                for path, number in where.get(name, ()))]
    assert not unreferenced, "unreferenced definitions:\n" + "\n".join(unreferenced)


def _unread_imports(tree):
    """(line, name) for each name the module imports but never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.extend((node.lineno, (a.asname or a.name).split(".")[0])
                            for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if _is_all(node):
            read.update(elt.value for elt in node.value.elts)
    return [(line, name) for line, name in imported if name not in read]


def test_every_import_is_read():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unread = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in sources
              for line, name in _unread_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert not unread, "imported names never read:\n" + "\n".join(unread)


def _is_dataclass(node):
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in node.decorator_list)


def _stored_fields(cls):
    """The dataclass fields, `__slots__` entries and `self.<name>` that
    `__init__`/`__new__` set, of one class."""
    out = set()
    for item in cls.body:
        if (_is_dataclass(cls) and isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)):
            out.add(item.target.id)
        if (isinstance(item, ast.Assign)
                and any(getattr(t, "id", None) == "__slots__" for t in item.targets)):
            out.update(elt.value for elt in item.value.elts)
        if isinstance(item, ast.FunctionDef) and item.name in ("__init__", "__new__"):
            out.update(node.attr for node in ast.walk(item)
                       if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                       and getattr(node.value, "id", None) == "self")
    return out


def _read_names(tree):
    """Attribute names loaded, and names passed to `getattr` as strings."""
    out = {node.attr for node in ast.walk(tree)
           if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    out.update(node.args[1].value for node in ast.walk(tree)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
               and len(node.args) > 1 and isinstance(node.args[1], ast.Constant))
    return out


def test_every_stored_field_is_read():
    # matched by name, like the definition check: a field escapes when any
    # other class has an attribute of the same name that is read
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    read = set().union(*map(_read_names, trees.values()))
    unread = [f"{path.name}:{cls.lineno} {cls.name}.{name}"
              for path, tree in trees.items() if path.parent == PACKAGE
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for name in sorted(_stored_fields(cls) - read)]
    assert not unread, "fields never read:\n" + "\n".join(unread)


def _modules():
    return {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}


def test_readme_module_map_lists_every_module():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Module map", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert len(listed) == len(set(listed)), listed
    assert set(listed) == _modules()


def test_one_module_imports_permutations():
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            from_itertools = (isinstance(node, ast.ImportFrom) and node.module == "itertools"
                              and any(a.name == "permutations" for a in node.names))
            attribute = (isinstance(node, ast.Attribute) and node.attr == "permutations"
                         and getattr(node.value, "id", None) == "itertools")
            if from_itertools or attribute:
                importers.append(path.name)
    assert importers == ["chain.py"]


def test_traced_spans_resolve_in_the_package():
    # perfbench wraps each SPANS and COUNTS entry by module and attribute
    # path; a renamed function must fail here, not in a traced benchmark run
    spec = importlib.util.spec_from_file_location(
        "traced_job", ROOT / "perfbench" / "traced_job.py")
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    entries = {**traced.SPANS, **traced.COUNTS}
    assert entries
    missing = []
    for name, (module, path) in entries.items():
        owner = importlib.import_module(f"leveltower.{module}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{name}: leveltower.{module}.{path}")
    assert not missing, "traced names not found:\n" + "\n".join(missing)
