"""Source hygiene: no module imports a name that it never uses, no private
top-level function or class in ``src`` goes unread there, and every committed
benchmark record is a correct run with the benchmark's metric names."""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def unread_private_definitions(paths: list[Path]) -> list[str]:
    """``_``-prefixed top-level functions and classes that nothing in ``paths`` reads.

    A definition is read where its own module loads the name, or where any module
    reads it as an attribute or imports it (which ``test_every_import_is_used``
    then requires to be used).  Two modules may define the same private name.
    """
    defined, elsewhere = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        defined += [(node.name, f"{path.relative_to(ROOT)}:{node.lineno}", loaded)
                    for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                elsewhere.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                elsewhere.update(alias.name for alias in node.names)
    return [f"{where}: {name}" for name, where, loaded in defined
            if name not in loaded and name not in elsewhere]


def test_every_private_definition_is_read():
    paths = sorted((ROOT / "src").rglob("*.py"))
    assert paths
    assert unread_private_definitions(paths) == []


def test_every_import_is_used():
    paths = sorted(p for top in ("src", "tests", "demos", "perfbench")
                   for p in (ROOT / top).rglob("*.py") if p.name != "__init__.py")
    assert paths
    assert [hit for p in paths for hit in unused_imports(p)] == []


def test_committed_bench_records_are_correct_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {"trace0": sorted(m["name"] for m in spec["end_to_end"]),
             "trace1": sorted(m["name"] for m in spec["per_layer"])}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        for workload in (w["name"] for w in spec["workloads"]):
            for level, expected in names.items():
                run = record[workload][level]
                where = f"{path.name} {workload} {level}"
                assert run["correct"] is True and run["failed"] == 0, where
                assert sorted(run["metrics"]) == expected, where
