"""The benchmark calls library functions by name, and its traced runs
wrap them by name; every singlink name it uses must still exist."""

import ast
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_layer_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{layer}.{name}"
               for layer, names in tracing.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"singlink.{layer}"),
                                       name, None))]
    assert not missing


def _singlink_names(path: Path):
    """Every singlink name a file uses: the names it imports from a
    singlink module, and each attribute it reads off a singlink module it
    imported, as (module, name)."""
    tree = ast.parse(path.read_text())
    modules, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "singlink":
                    # `import singlink.x` binds singlink, `as y` binds x
                    modules[alias.asname or "singlink"] = \
                        alias.name if alias.asname else "singlink"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "singlink":
            for alias in node.names:
                names.append((node.module, alias.name))
                if node.module == "singlink":
                    modules[alias.asname or alias.name] = f"singlink.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            names.append((modules[node.value.id], node.attr))
    return names


def test_benchmark_singlink_names_resolve():
    bench = TRACING.parent
    used = [use for name in ("workloads.py", "braids.py")
            for use in _singlink_names(bench / name)]
    assert {module for module, _ in used} >= {"singlink.pairs", "singlink.diagram"}
    missing = [f"{module}.{name}" for module, name in used
               if not _resolves(importlib.import_module(module), name)]
    assert not missing


def _resolves(module, name: str) -> bool:
    """name is an attribute of module, or a submodule of the package."""
    return hasattr(module, name) or hasattr(module, "__path__") and \
        importlib.util.find_spec(f"{module.__name__}.{name}") is not None
