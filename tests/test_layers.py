"""The package's modules form layers: each imports only the modules before
it in LAYERS (the package's ``__init__`` re-exports them all and is exempt),
and ``ulam.__all__`` names each export once, none of them stale."""
import ast
from pathlib import Path

import ulam

LAYERS = ["bounds", "sampling", "subsequences", "hammersley", "couplings",
          "montecarlo", "cli"]
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ulam"


def package_imports(path: Path) -> set[str]:
    """The package modules that ``path`` imports, by relative or absolute name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["ulam" if node.level else "", node.module]))
            names = [base, *(f"{base}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("ulam."))
    return found & set(LAYERS)


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_modules_import_only_earlier_layers():
    for rank, name in enumerate(LAYERS):
        later = package_imports(PACKAGE / f"{name}.py") - set(LAYERS[:rank])
        assert not later, f"{name} imports {sorted(later)}, which come later"


def test_every_export_resolves_once():
    assert len(ulam.__all__) == len(set(ulam.__all__))
    missing = [name for name in ulam.__all__ if not hasattr(ulam, name)]
    assert not missing, f"ulam.__all__ names {missing}, which the package lacks"
