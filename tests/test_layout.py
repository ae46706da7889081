"""The package keeps only what it runs: every public function, class and
method in src/gl2trace is referenced somewhere in src/ outside its own
definition, apart from the names that the benchmark harness pins from
outside.  (cli.main, the console script of pyproject.toml, is also what
`python -m gl2trace.cli` calls.)  It also has no `assert` statement, so
python -O drops no check."""

import ast
import os
import subprocess
import sys
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


def test_no_assert_statements():
    found = [(mod, n.lineno) for mod, tree in _trees().items()
             for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


def test_internal_invariants_survive_optimize():
    """a broken internal invariant raises RuntimeError, not ValueError (which
    the CLI reports as a usage error, exit 2), with python -O as without.
    Each invariant is broken from outside: a degree whose products come
    out one too long, a non-monic or non-dividing divisor, a trace with a
    v-part, a local square class that is always trivial, which leaves
    the S-unit rank at 0 while the reciprocity count of the dual is
    unchanged, and Hecke structure constants that double every product,
    which convolve's Satake self-check catches."""
    code = ("from gl2trace import basicfn, chargroup, hecke\n"
            "from gl2trace.basicfn import RepSpec\n"
            "from gl2trace.rings import LaurentQ\n"
            "class Long(int):\n"
            "    def __mul__(self, j):\n"
            "        return int(self) * j + 1\n"
            "def vpart(h, c):\n"
            "    return LaurentQ(1, 1, 2)\n"
            "def trivial(t, v):\n"
            "    return (0,) * (1 if v == 'inf' else 3 if v == 2 else 2)\n"
            "basicfn.spherical_trace, chargroup.local_square_class = vpart, trivial\n"
            "hecke._structure_constants = lambda q, m1, m2: [(0, 2)]\n"
            "f2 = hecke.LocalField(2)\n"
            "for call in (lambda: basicfn.symn_trace(RepSpec(1), Long(1)),\n"
            "             lambda: basicfn._trace_value(None, None),\n"
            "             lambda: chargroup._poly_divexact([1, 0, 1], [1, 2]),\n"
            "             lambda: chargroup._poly_divexact([1, 0, 1], [1, 1]),\n"
            "             lambda: chargroup.class_group_mod_squares(['inf', '3']),\n"
            "             lambda: hecke.convolve(hecke.HeckeElement.unit(f2),\n"
            "                                    hecke.HeckeElement.unit(f2))):\n"
            "    try:\n"
            "        call()\n"
            "    except Exception as e:\n"
            "        print(type(e).__name__, e)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable] + flags + ["-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "RuntimeError weight multiset is not Weyl-stable",
            "RuntimeError trace of a basic-function coefficient kept a v-part",
            "RuntimeError cyclotomic divisors are monic",
            "RuntimeError inexact cyclotomic division",
            "RuntimeError dual size 2 does not match group order 8",
            "HomomorphismError transform of the product differs from the "
            "product of transforms"], flags
