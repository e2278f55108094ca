"""The benchmark's tracer (bench/spans.py) wraps zerosum functions by
module and attribute name, and the benchmark scripts read the package by
attribute; a rename in the package would break them silently, so every
name they use is checked here."""

import ast
import runpy
from functools import reduce
from pathlib import Path

import zerosum

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


def test_every_traced_name_resolves():
    # run_path compiles the file without importing it as a module, so no
    # bytecode is written next to it
    patches = runpy.run_path(str(SPANS))["PATCHES"]
    assert patches
    missing = [
        (module, attr)
        for module, attr, _ in patches
        if not callable(getattr(getattr(zerosum, module, None), attr, None))
    ]
    assert missing == []


def test_every_unused_import_is_traced():
    # a module-level import that its module never reads is kept only for
    # the tracer to wrap: it says so with noqa, and PATCHES lists it there
    traced = {(module, attr) for module, attr, _ in runpy.run_path(str(SPANS))["PATCHES"]}
    unused = []
    for path in sorted((ROOT / "src" / "zerosum").glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        tree = ast.parse(source)
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        lines = source.splitlines()
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or (
                isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__"
            ):
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append((path.stem, name))
                    assert "# noqa: F401" in lines[alias.lineno - 1], (path.name, name)
    assert [entry for entry in unused if entry not in traced] == []


def test_every_package_name_the_benchmark_reads_resolves():
    # bench/*.py reads the package as zs and zerosum.extremal as ex; every
    # attribute chain it writes from either must resolve, so a rename fails
    # here before it fails the benchmark
    roots = {"zs": zerosum, "ex": zerosum.extremal}
    missing = []
    chains = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            while isinstance(node, ast.Attribute):
                names.append(node.attr)
                node = node.value
            if names and isinstance(node, ast.Name) and node.id in roots:
                chain = (node.id, *reversed(names))
                chains.add(chain)
                obj = reduce(lambda o, name: getattr(o, name, None), chain[1:], roots[node.id])
                if obj is None:
                    missing.append(".".join(chain))
    assert chains and missing == []
