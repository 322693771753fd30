"""The package's import graph runs one way.

Imports are read from the source with ast, so the check sees every
`from . import x`, `from .x import y` and `import pcurvature.x` without
running any module.
"""

import ast
from pathlib import Path

import pcurvature

PKG = Path(pcurvature.__file__).parent
ENGINE = ("fields", "polys", "linalg", "local_eval", "interp", "reconstruct")


def _imports(path, modules):
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith(
                    "pcurvature"):
                base = node.module.split(".")[1:]
            elif node.level == 1:
                base = node.module.split(".") if node.module else []
            else:
                continue
            if base:
                found.add(base[0])
            else:
                found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "pcurvature" and len(parts) > 1:
                    found.add(parts[1])
    return found & modules


def _graph():
    paths = {p.stem: p for p in PKG.glob("*.py")}
    return {name: _imports(path, set(paths)) for name, path in paths.items()}


def _reachable(graph, start):
    seen, todo = set(), list(graph[start])
    while todo:
        m = todo.pop()
        if m not in seen:
            seen.add(m)
            todo.extend(graph[m])
    return seen


def test_import_graph_runs_one_way():
    graph = _graph()
    # the reader sees the edges it must, so an empty graph cannot pass
    assert set(ENGINE) <= set(graph)
    assert {"polys", "linalg"} <= graph["interp"]
    assert "nilprofile" in graph["cli"]
    cyclic = sorted(m for m in graph if m in _reachable(graph, m))
    assert cyclic == []
    engine_on_nilprofile = sorted(
        m for m in ENGINE if "nilprofile" in _reachable(graph, m))
    assert engine_on_nilprofile == []


def test_fixed_modulus_division_lives_in_one_class():
    # NEWTON_CUTOFF is set once, and only MonicModReducer calls the Newton
    # primitives, so every division by a fixed modulus shares one cutoff
    # and one kind of inverse cache
    newton = {"series_inv", "rem_monic_precomp"}
    cutoffs, callers = [], set()
    for path in sorted(PKG.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = ".".join([path.stem] + (
                [top.name] if hasattr(top, "name") else []))
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    f = node.func
                    if getattr(f, "id", getattr(f, "attr", None)) in newton:
                        callers.add(owner)
                elif (isinstance(getattr(node, "ctx", None), ast.Store)
                      and "NEWTON_CUTOFF" in (getattr(node, "id", None),
                                              getattr(node, "attr", None))):
                    cutoffs.append(owner)
    assert cutoffs == ["polys.MonicModReducer"]
    assert callers == {"polys.MonicModReducer"}
