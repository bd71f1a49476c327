"""The package's modules form layers: each imports only the modules before
it in LAYERS (the package's ``__init__`` re-exports them all and is exempt),
``ulam.__all__`` names each export once, none of them stale, no function
of the library or the CLI is dead, and no module imports scipy."""
import ast
from pathlib import Path

import ulam

LAYERS = ["bounds", "sampling", "subsequences", "hammersley", "couplings",
          "montecarlo", "cli"]
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ulam"


def imported_names(path: Path) -> set[str]:
    """Every module ``path`` imports, at any depth of its body, and each name
    it imports from one, with relative names made absolute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["ulam" if node.level else "", node.module]))
            found.update([base, *(f"{base}.{alias.name}" for alias in node.names)])
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return found


def package_imports(path: Path) -> set[str]:
    """The package modules that ``path`` imports, by relative or absolute name."""
    return {name.split(".")[1] for name in imported_names(path)
            if name.startswith("ulam.")} & set(LAYERS)


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_modules_import_only_earlier_layers():
    for rank, name in enumerate(LAYERS):
        later = package_imports(PACKAGE / f"{name}.py") - set(LAYERS[:rank])
        assert not later, f"{name} imports {sorted(later)}, which come later"


def test_no_module_imports_scipy():
    # the library needs numpy alone; scipy.stats costs about 60 MB and 1 s
    for path in sorted(PACKAGE.glob("*.py")):
        scipy = sorted(n for n in imported_names(path) if n.split(".")[0] == "scipy")
        assert not scipy, f"{path.name} imports {scipy}"


def test_only_the_cli_reads_and_writes_file_formats():
    # the library returns values; the command line and every file format the
    # commands read or write belong to the CLI
    for path in sorted(PACKAGE.glob("*.py")):
        formats = sorted(imported_names(path) & {"argparse", "csv", "json"})
        assert path.stem == "cli" or not formats, f"{path.name} imports {formats}"


def test_montecarlo_counts_chains_only_through_the_slab():
    # its replicas reach a chain length by the slab alone, never by the
    # patience pass or the exact enumeration of `subsequences`
    assert "subsequences" not in package_imports(PACKAGE / "montecarlo.py")


def callers(name: str) -> list[str]:
    """``module.function`` for each call of ``name`` in the package, by its
    bare name or as an attribute, with nested functions dotted."""
    found = []

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == name:
                    found.append(scope)
            visit(child, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_only_the_cloud_chunk_worker_keys_clouds():
    # `_chain_keys` keys exactly only positions at or above x_max * 2**-53,
    # which every sampled position is: its one caller keys only what the
    # samplers draw
    assert callers("_chain_keys") == ["montecarlo._poisson_chunk"]


def test_every_export_resolves_once():
    assert len(ulam.__all__) == len(set(ulam.__all__))
    missing = [name for name in ulam.__all__ if not hasattr(ulam, name)]
    assert not missing, f"ulam.__all__ names {missing}, which the package lacks"


# The three ways the package computes a chain length: the replica-batched
# slab, the scalar step rules with the patience pass, and the quadratic DP.
# Each is the others' oracle, so none may reach a function of another.
FAMILIES = {
    "slab": {"_slab_counts", "_chain_keys", "_word_counts", "_key_dtype"},
    "scalar rules and patience pass": {
        "run_dynamics", "_strict_rule", "_weak_rule", "lis_strict", "lnds_weak",
        "_patience_length", "_row_sequence", "longest_chain_with_boundary",
        "_boundary_nodes", "chain_rows", "_chain_order", "_check_boundary"},
    "quadratic DP": {"brute_force_longest_chain", "_as_nodes"},
}
CHECKED = ["bounds", "sampling", "subsequences", "hammersley", "couplings", "montecarlo"]


def function_references() -> dict[str, set[str]]:
    """Each function and method of the CHECKED modules, by its bare name, to
    the names and attributes its body mentions."""
    refs: dict[str, set[str]] = {}
    for name in CHECKED:
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if isinstance(node, ast.FunctionDef):
                names = refs.setdefault(node.name, set())
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Name):
                        names.add(inner.id)
                    elif isinstance(inner, ast.Attribute):
                        names.add(inner.attr)
    return refs


def test_oracles_share_no_code_with_the_paths_they_check():
    refs = function_references()
    for family, members in FAMILIES.items():
        assert members <= refs.keys(), f"{family}: {sorted(members - refs.keys())} not found"
        others = set().union(*(m for f, m in FAMILIES.items() if f != family))
        seen, todo = set(), list(members)
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(refs[name] & refs.keys())
        assert not seen & others, f"the {family} reaches {sorted(seen & others)}"


# Every name in ``ulam.__all__`` is reached by a CLI command, an acceptance
# criterion, a benchmark workload or a library function that one of them
# reaches.  Each name listed here is reached by none of them yet; it leaves
# the list when the ROADMAP item named beside it reaches it.
UNREACHED = {
    "regime_diagnostics": "item 4, ulam sweep",
    "depoissonization_report": "item 4, ulam sweep",
    "deviation_profile": "item 1, the weak order's rate",
}
ROOT = PACKAGE.parents[1]
ENTRIES = [PACKAGE / "cli.py", ROOT / "tests" / "test_acceptance.py",
           ROOT / "perfbench" / "workloads.py"]


def mentioned(tree: ast.AST) -> set[str]:
    """The names and attributes that ``tree`` mentions (not those it imports)."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def module_names(node: ast.AST) -> list[str]:
    """The names a module-level assignment binds."""
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def reached(roots: set[str]) -> set[str]:
    """``roots`` and every function, method, class or module-level name of the
    library modules, by its bare name, that they reach through the names the
    bodies and the assigned values mention."""
    refs: dict[str, set[str]] = {}
    for name in CHECKED:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                refs.setdefault(node.name, set()).update(mentioned(node))
        for node in tree.body:
            for bound in module_names(node):
                refs.setdefault(bound, set()).update(mentioned(node.value))
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(refs.get(name, ()))
    return seen


def entry_mentions() -> set[str]:
    """The names that the commands, the criteria and the workloads mention."""
    return set().union(*(mentioned(ast.parse(path.read_text())) for path in ENTRIES))


def test_every_export_is_reached():
    entries = entry_mentions()
    missing = sorted(set(ulam.__all__) - reached(entries | UNREACHED.keys()))
    assert not missing, f"no command, criterion, workload or library function reaches {missing}"
    # a listed name that something now reaches leaves the list
    stale = sorted(reached(entries) & UNREACHED.keys())
    assert not stale, f"{stale} are reached now: take them off UNREACHED"


def test_every_function_is_reached():
    # a function, method or class of the library or the CLI that no command,
    # criterion or workload reaches is dead code; dunder methods are called
    # by Python itself
    defined = {node.name for name in [*CHECKED, "cli"]
               for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text()))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    dead = sorted(defined - reached(entry_mentions() | UNREACHED.keys()))
    assert not dead, f"no command, criterion, workload or library function reaches {dead}"
