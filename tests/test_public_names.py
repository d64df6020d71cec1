"""Every public name of the package has a reader besides its own tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eitgate"

# The code that may read a public name: the package itself, the demos, the
# benchmark and the frozen acceptance test. The other tests do not count,
# so a name that only its own tests call shows up here.
READERS = (
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "demos").rglob("*.py")),
    *sorted((ROOT / "perfbench").rglob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
)


def _public_definitions():
    """(module path, name, line) of every public module-level function,
    class and assigned name of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_"):
                    yield path, name, node.lineno


def test_every_public_name_is_read_outside_its_own_tests():
    lines = {path: path.read_text(encoding="utf-8").splitlines() for path in READERS}
    unread = []
    for module, name, at in _public_definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(
            word.search(text)
            for path, texts in lines.items()
            for number, text in enumerate(texts, 1)
            if (path, number) != (module, at)
        ):
            unread.append(f"{module.stem}.{name}")
    assert not unread, f"public names read nowhere but their definition: {unread}"
