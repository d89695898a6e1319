"""The README's examples run as written, no module imports a name it
never uses, and every exported name exists where it is exported from."""

import ast
import copy
import importlib
import shlex
from pathlib import Path

import pytest

from rtmon.cli import main
from rtmon.monitor import FullTrust, register

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _transcripts() -> list[tuple[str, str]]:
    """Each ``$ rtmon ...`` line of a shell block with the output lines
    that follow it, up to the next prompt or the end of the block."""
    found = []
    blocks = README.split("```")[1::2]
    for block in (b[len("sh\n"):] for b in blocks if b.startswith("sh\n")):
        command = None
        for line in block.splitlines():
            if line.startswith("$ "):
                command = line[2:]
                found.append((command, ""))
            elif command is not None:
                found[-1] = (command, found[-1][1] + line + "\n")
    return found


def test_the_readme_shows_transcripts():
    # Parametrized over no transcript, the test below would check nothing.
    assert _transcripts()


@pytest.mark.parametrize("command, output", _transcripts(), ids=lambda x: x[:40])
def test_readme_transcripts_print_what_they_show(command, output, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    program, *argv = shlex.split(command)
    assert program == "rtmon"
    main(argv)
    assert capsys.readouterr().out == output


def test_readme_library_block_runs_from_the_fixtures(monkeypatch):
    library = README[README.index("## Library"):]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(FIXTURES)
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    # The records registered against one state equal each constraint
    # registered alone on a fresh copy, and the session's initial records.
    alone = [register(copy.copy(scope["state"]), c, FullTrust()) for c in scope["constraints"]]
    assert scope["records"] == alone == list(scope["session"].initial)
    assert scope["record"] == alone[0]


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in (ROOT / "src" / "rtmon").glob("*.py") if p.name != "__init__.py")
    + sorted((ROOT / "tests").glob("*.py")),
    ids=lambda p: p.name,
)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path) == []


_MODULES = sorted(
    p.stem for p in (ROOT / "src" / "rtmon").glob("*.py") if p.stem not in ("__init__", "__main__")
)


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_a_module_exports_is_bound_there(name):
    module = importlib.import_module(f"rtmon.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_the_package_imports_only_exported_names():
    tree = ast.parse((ROOT / "src" / "rtmon" / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    stale = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(f"rtmon.{node.module}").__all__
    ]
    assert stale == []
