"""The package's public surface: one export list, the one README shows, and
no module reaching into a sibling's private names."""
import ast
import inspect
import re
from pathlib import Path

import hqds3

README = Path(__file__).resolve().parent.parent / "README.md"
SOURCES = Path(hqds3.__file__).resolve().parent


def test_readme_library_block_is_the_export_list():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"from hqds3 import \(([^)]*)\)", library).group(1)
    names = [name.strip() for name in block.split(",") if name.strip()]
    exported = {
        name
        for name, value in vars(hqds3).items()
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert len(names) == len(set(names))
    assert set(names) == exported
    for name in names:
        assert callable(getattr(hqds3, name)), name


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = []
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").split(".")[0] == "hqds3":
                offenders += [
                    f"{path.name}: {node.module} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []
