"""Every private module-level function or class of the library has a library caller."""

import ast
import pathlib

import scenemixer

PACKAGE = pathlib.Path(scenemixer.__file__).resolve().parent

# private definitions that only tests call, each with the reason it stays
TEST_ONLY = {
    ("layers", "_normal_cdf"): "the seam through which tests/test_layers.py checks the GELU CDF's accuracy",
}


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
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


def test_every_private_definition_has_a_library_caller():
    trees = _trees()
    uncalled = [
        f"{module}.{definition.name}"
        for module, tree in trees.items()
        for definition in _private_definitions(tree)
        if (module, definition.name) not in TEST_ONLY and not _library_uses(trees, module, definition)
    ]
    assert uncalled == [], f"private definitions that no library code calls: {uncalled}"


def test_every_listed_exception_still_has_no_library_caller():
    trees = _trees()
    for (module, name), reason in TEST_ONLY.items():
        definitions = [d for d in _private_definitions(trees[module]) if d.name == name]
        assert definitions, f"{module}.{name} is gone; drop it from TEST_ONLY ({reason})"
        assert not _library_uses(trees, module, definitions[0]), f"{module}.{name} has a library caller now"
