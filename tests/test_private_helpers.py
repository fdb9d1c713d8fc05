"""Every module-level function or class of the library has a library caller,
or is listed with the reason it stays without one; every module imports at
module level and uses each name it imports,
and only `layers` opens a `LayerCache`'s saved dict, each reader through one check."""

import ast
import pathlib

import scenemixer

PACKAGE = pathlib.Path(scenemixer.__file__).resolve().parent

# definitions that no library code calls, each with the reason it stays
NO_LIBRARY_CALLER = {
    ("numerics", "finite_diff_grad"): "the finite-difference oracle every hand-written gradient is tested against",
    ("layers", "count_multiplies"): "the multiply counter of acceptance criterion 05 and of bench/",
    ("data", "resize_bilinear"): "called by bench/workloads.py and wrapped by bench/spans.py",
    ("data", "synth_generate"): "the in-memory dataset of bench/workloads.py's set-up, wrapped by bench/spans.py; "
                                "`cli synth` writes `synth_samples` as it goes",
    ("layers", "softmax_backward"): "wrapped by bench/spans.py as the head's backward span",
}


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree):
    """The module-level functions and classes of tree, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
            yield node


def _nodes_outside(tree, skip):
    """The nodes of tree, minus `skip` and everything under it."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _library_uses(trees: dict, module: str, definition) -> int:
    """How often library code outside `definition` refers to it: by bare name
    inside its own module, by attribute or `from` import elsewhere."""
    name, count = definition.name, 0
    for other, tree in trees.items():
        for node in _nodes_outside(tree, definition):
            if other == module:
                count += isinstance(node, ast.Name) and node.id == name
            elif isinstance(node, ast.Attribute):
                count += node.attr == name
            elif isinstance(node, ast.ImportFrom) and node.module in (module, f"scenemixer.{module}"):
                count += sum(alias.name == name for alias in node.names)
    return count


def _unlisted_without_caller(private: bool) -> list:
    trees = _trees()
    return [
        f"{module}.{definition.name}"
        for module, tree in trees.items()
        for definition in _definitions(tree)
        if definition.name.startswith("_") == private
        and (module, definition.name) not in NO_LIBRARY_CALLER and not _library_uses(trees, module, definition)
    ]


def test_every_private_definition_has_a_library_caller():
    uncalled = _unlisted_without_caller(private=True)
    assert uncalled == [], f"private definitions that no library code calls: {uncalled}"


def test_every_public_definition_has_a_library_caller_or_a_listed_reason():
    uncalled = _unlisted_without_caller(private=False)
    assert uncalled == [], f"public definitions that no library code calls and NO_LIBRARY_CALLER omits: {uncalled}"


def test_every_listed_exception_still_has_no_library_caller():
    trees = _trees()
    for (module, name), reason in NO_LIBRARY_CALLER.items():
        definitions = [d for d in _definitions(trees[module]) if d.name == name]
        assert definitions, f"{module}.{name} is gone; drop it from NO_LIBRARY_CALLER ({reason})"
        assert not _library_uses(trees, module, definitions[0]), f"{module}.{name} has a library caller now"


def _imported_names(tree):
    """(name bound, line) of each import in tree, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def test_every_imported_name_is_used():
    unused = []
    for module, tree in _trees().items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module}:{line} {name}" for name, line in _imported_names(tree) if name not in used]
    assert unused == [], f"imported names that no code of their module uses: {unused}"


# functions allowed to import inside their body, each with its reason
LOCAL_IMPORTS = {
    ("__init__", "__getattr__"): "loads a submodule on first access, so that importing the package "
                                 "does not import numpy before `cli` pins the BLAS threads",
}


def test_every_import_is_at_module_level():
    # an import inside a function hides a module's dependencies, or dodges an import cycle
    local = {
        (module, node.name)
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and any(isinstance(inner, (ast.Import, ast.ImportFrom)) for inner in ast.walk(node))
    }
    assert local == LOCAL_IMPORTS.keys(), f"functions that import inside their body: {sorted(local)}"


def test_only_layers_reads_or_writes_a_layer_caches_saved_dict():
    # other modules ask layers for what a cache holds, as model's backward asks
    # `layers.batch_norm_output` for a block input, instead of editing cache dicts
    users = [
        f"{module}:{node.lineno}"
        for module, tree in _trees().items()
        if module != "layers"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "saved"
    ]
    assert users == [], f"library code outside layers.py that touches LayerCache.saved: {users}"


def test_every_cache_reader_checks_the_cache_itself():
    # `_check_cache` is the one place that refuses a wrong, consumed or
    # infer-mode cache, so each reader calls it, or `_consume`, by name
    tree = _trees()["layers"]
    readers = {
        node.name: {inner.func.id for inner in ast.walk(node)
                    if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name)}
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and (node.name.endswith("_backward") or node.name in ("batch_norm_partials", "batch_norm_output"))
    }
    assert len(readers) == 10, sorted(readers)  # 8 backwards, the partials and the output
    unchecked = sorted(name for name, calls in readers.items() if not calls & {"_consume", "_check_cache"})
    assert unchecked == [], f"cache readers in layers.py that call neither _consume nor _check_cache: {unchecked}"
