"""The package keeps only what it runs: every public function, class and
method in src/gl2trace is referenced somewhere in src/ outside its own
definition, apart from the names that the benchmark harness pins from
outside.  (cli.main, the console script of pyproject.toml, is also what
`python -m gl2trace.cli` calls.)"""

import ast
import os
from collections import Counter

import gl2trace

SRC = os.path.dirname(os.path.abspath(gl2trace.__file__))
ROOT = os.path.dirname(os.path.dirname(SRC))

# module.name -> (file that pins it, the line there that does)
PINNED = {
    "basicfn.truncated_basic_identity":
        ("perfbench/trace.py", '("basicfn", "truncated_basic_identity", None),'),
    "chargroup.fourier": ("perfbench/trace.py", '("chargroup", "fourier", None),'),
    "rings.QiV": ("perfbench/trace.py",
                  'RING_CLASSES = [("rings", "LaurentQ"), ("rings", "QiV"), '
                  '("rings", "QiNumber"),'),
    "spectral.mr_estimator": ("perfbench/trace.py", '("spectral", "mr_estimator", None),'),
}


def _trees():
    return {name[:-3]: ast.parse(open(os.path.join(SRC, name)).read())
            for name in sorted(os.listdir(SRC)) if name.endswith(".py")}


def _public_defs(trees):
    " (label, definition node, is a method) for every public def and class "
    out = []

    def walk(mod, node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if not child.name.startswith("_"):
                    label = ".".join(x for x in (mod, owner, child.name) if x)
                    out.append((label, child, owner is not None))
                if isinstance(child, ast.ClassDef):
                    walk(mod, child, child.name)
    for mod, tree in trees.items():
        walk(mod, tree, None)
    return out


def _references(node):
    """names read as a bare name and attributes read off any object, in
    the subtree of node, counted; an import alone is no reference"""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out["name", n.id] += 1
        elif isinstance(n, ast.Attribute):
            out["attr", n.attr] += 1
    return out


def unreferenced():
    trees = _trees()
    total = sum((_references(t) for t in trees.values()), Counter())
    out = []
    for label, node, method in _public_defs(trees):
        own = _references(node)
        kinds = ("attr",) if method else ("attr", "name")
        if not any(total[k, node.name] > own[k, node.name] for k in kinds):
            out.append(label)
    return out


def test_every_public_name_is_referenced_in_src():
    assert sorted(unreferenced()) == sorted(PINNED)


def test_pinned_names_are_pinned():
    for label, (path, line) in PINNED.items():
        with open(os.path.join(ROOT, path)) as fh:
            assert line in fh.read(), (label, path)
