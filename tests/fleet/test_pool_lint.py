"""Lint: ``repro.fleet.pool`` is the only place a process pool is built.

Retries, crash containment, timeouts and the checkpoint hook live in one
scheduling loop; a module that constructs its own
``ProcessPoolExecutor`` gets none of them.  An AST scan of ``src/repro``
finds every call to ``ProcessPoolExecutor`` (by name, attribute or an
import alias) outside ``repro/fleet/pool.py``.
"""

import ast
import os

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.normpath(os.path.join(_HERE, "..", "..", "src", "repro"))

_ALLOWED = os.path.join("fleet", "pool.py")


def _constructions(tree):
    names = {"ProcessPoolExecutor"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname for alias in node.names
                         if alias.name == "ProcessPoolExecutor"
                         and alias.asname)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name in names:
            yield node.lineno


def _offenders():
    offenders = []
    for root, _dirs, files in os.walk(_SRC):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, _SRC)
            if rel == _ALLOWED:
                continue
            with open(path) as handle:
                tree = ast.parse(handle.read())
            offenders.extend(f"{rel}:{lineno}"
                             for lineno in _constructions(tree))
    return offenders


def test_only_the_pool_module_constructs_a_process_pool():
    offenders = _offenders()
    assert not offenders, (
        "ProcessPoolExecutor constructed outside repro/fleet/pool.py — "
        "run the work through pool_imap or pool_outcomes:\n"
        + "\n".join(offenders))


def test_scan_sees_every_construction_form():
    tree = ast.parse(
        "import concurrent.futures as cf\n"
        "from concurrent.futures import ProcessPoolExecutor as Pool\n"
        "a = ProcessPoolExecutor()\n"
        "b = cf.ProcessPoolExecutor(max_workers=2)\n"
        "c = Pool()\n"
        "d = ThreadPoolExecutor()\n")
    assert sorted(_constructions(tree)) == [3, 4, 5]
