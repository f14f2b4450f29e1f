"""Only program code in src/: every public name there has a reader.

A top-level public function, class or constant of src/qzeros passes when
code elsewhere in src/qzeros reads it (a Name or Attribute node outside its
own definition; imports, re-exports and docstrings are not reads), or when a
bench/*.py file names it, as code or as a string: the tracer's TARGETS name
functions by strings. Code that only the tests read belongs in
tests/oracles.py.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _definitions(tree):
    """(name, node) of each top-level public def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def _reads(tree, skip=None):
    """Names read by Name and Attribute nodes, outside the subtree skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _bench_names():
    out = set()
    for path in (ROOT / "bench").glob("*.py"):
        tree = ast.parse(path.read_text())
        out |= _reads(tree)
        out |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return out


def unread_public_names(src=ROOT / "src" / "qzeros"):
    """module.name of each public name of src with no reader."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    reads = {module: _reads(tree) for module, tree in trees.items()}
    bench = _bench_names()
    unread = []
    for module, tree in trees.items():
        others = set().union(*(r for m, r in reads.items() if m != module))
        for name, node in _definitions(tree):
            if name not in others | bench | _reads(tree, skip=node):
                unread.append(f"{module}.{name}")
    return unread


def test_every_public_name_has_a_reader():
    unread = unread_public_names()
    assert not unread, f"no reader in src/qzeros or bench: {', '.join(unread)}"
