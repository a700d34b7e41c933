"""The package's own source: checks on the code, not on what it computes."""

import ast
from pathlib import Path

import qhermite

SOURCE = Path(qhermite.__file__).parent


def _unused_imports(path: Path) -> list:
    """The names that path's module-level imports bind and its code never
    reads, save `from __future__` and lines marked `# noqa: F401`."""
    text = path.read_text()
    lines, tree = text.splitlines(), ast.parse(text)
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_every_import_is_read():
    # __init__.py imports only to re-export
    modules = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    unused = {p.name: names for p in modules if (names := _unused_imports(p))}
    assert unused == {}


def _names_read(tree: ast.Module) -> list:
    """Per top-level statement of tree: (the statement, every name and
    attribute its code reads)."""
    return [(node, {n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(node)
                    if isinstance(n, (ast.Name, ast.Attribute))})
            for node in tree.body]


def test_every_private_helper_is_named_outside_its_definition():
    # a private top-level function or class that no other code in the
    # package names is dead: a refactor orphaned it
    statements = [read for p in sorted(SOURCE.glob("*.py"))
                  for read in _names_read(ast.parse(p.read_text()))]
    private = [node for node, _ in statements
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert len(private) >= 20
    dead = [node.name for node in private
            if not any(node.name in names for other, names in statements
                       if other is not node)]
    assert dead == []


# read outside the package only: bench/tracer.py wraps CompensatedSum.add
# until ROADMAP item 15 moves the tracer off names
_PUBLIC_FOR_THE_BENCH = {("scalars.py", "CompensatedSum")}


def test_every_public_name_has_a_caller_or_is_exported():
    # a public top-level function or class of a library module that no
    # other package code names and no __all__ lists serves only tests
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(SOURCE.glob("*.py"))}
    statements = [read for tree in trees.values() for read in _names_read(tree)]
    exported = {elt.value for tree in trees.values() for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                for elt in node.value.elts}
    public = [(name, node) for name, tree in trees.items()
              if name not in ("cli.py", "__init__.py") for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    assert len(public) >= 40
    unused = [(name, node.name) for name, node in public
              if node.name not in exported
              and (name, node.name) not in _PUBLIC_FOR_THE_BENCH
              and not any(node.name in names for other, names in statements
                          if other is not node)]
    assert unused == []


_MEMOS = {"kept", "shared"}


def _memo_call(node) -> bool:
    """node calls kept or shared, by name or as (shared if ... else kept)."""
    func = node.func
    if isinstance(func, ast.IfExp):
        return {getattr(func.body, "id", None),
                getattr(func.orelse, "id", None)} <= _MEMOS
    return isinstance(func, ast.Name) and func.id in _MEMOS


def test_every_table_is_built_through_the_memo():
    # a table is the memo of its stream: `_Rows` is read only as the first
    # argument of a kept or shared call, never called or passed on itself,
    # so no table is built unmemoized
    memoized, stray = 0, []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        annotations = {id(n) for node in ast.walk(tree)
                       for a in _annotations(node) for n in ast.walk(a)}
        first = {id(node.args[0]) for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and _memo_call(node)
                 and node.args}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == "_Rows"
                    and id(node) not in annotations):
                if id(node) in first:
                    memoized += 1
                else:
                    stray.append((path.name, node.lineno))
    assert stray == []
    assert memoized >= 5


def _annotations(node) -> list:
    """The annotation expressions node holds itself."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns else []
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return [node.annotation] if node.annotation else []
    return []
