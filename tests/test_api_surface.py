"""Every public top-level function and class of the package has a caller
that is not a test.

A public name defined in src/deltachar must be used by name somewhere in the
package outside its own definition (an import by deltachar/__init__.py
counts), or be named by the benchmark in perfbench/spans.py or
perfbench/workloads.py.  Code only the tests call belongs in the tests.

The scan is by name, so an attribute or annotation that shares a
definition's name counts as a use of it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deltachar"
BENCH = [ROOT / "perfbench" / "spans.py", ROOT / "perfbench" / "workloads.py"]


def _names(tree, strings=False):
    """Counter of every name a tree mentions: identifiers, attributes and
    imported names, and with `strings` the dotted parts of string constants
    (how perfbench/spans.py names its targets)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            out.update(node.value.split("."))
    return out


def _unused_public_names():
    trees = {path: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    for path in BENCH:
        used.update(_names(ast.parse(path.read_text()), strings=True))
    unused = []
    for path, tree in sorted(trees.items()):
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and used[node.name] <= _names(node)[node.name]):
                unused.append("%s.%s" % (path.stem, node.name))
    return unused


def test_every_public_definition_has_a_library_caller():
    assert _unused_public_names() == []
