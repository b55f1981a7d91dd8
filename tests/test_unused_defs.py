"""The unused-definition sweep (``scripts/check_unused_defs.py``)."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "bench", "benchmarks", "scripts", "examples")


def sweep(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_unused_defs.py"), str(root)],
        capture_output=True, text=True, check=False,
    )


@pytest.fixture
def tree(tmp_path):
    """A copy of every scanned directory's Python sources."""
    for top in SCANNED:
        shutil.copytree(
            ROOT / top, tmp_path / top,
            ignore=shutil.ignore_patterns("__pycache__", "results", "*.json", "*.npz"),
        )
    return tmp_path


def add_def(path: Path, text: str) -> None:
    path.write_text(path.read_text() + text)


def test_repository_has_no_unallowlisted_unused_definition():
    result = sweep(ROOT)
    assert result.returncode == 0, result.stdout


def test_a_definition_only_tests_call_fails_the_sweep(tree):
    # Recursion inside its own body is no use either.
    add_def(tree / "src/repro/utils/tables.py",
            "\n\ndef only_tests_call_me(n):\n    return only_tests_call_me(n - 1)\n")
    result = sweep(tree)
    assert result.returncode == 1
    assert "src/repro/utils/tables.py" in result.stdout
    assert "only_tests_call_me (2 lines)" in result.stdout


def test_a_package_reexport_is_no_use(tree):
    add_def(tree / "src/repro/utils/tables.py", "\n\ndef reexported():\n    pass\n")
    add_def(tree / "src/repro/utils/__init__.py",
            "\nfrom repro.utils.tables import reexported\n__all__ = ['reexported']\n")
    assert sweep(tree).returncode == 1


def test_a_use_outside_the_package_counts(tree):
    add_def(tree / "src/repro/utils/tables.py", "\n\ndef used_by_an_example():\n    pass\n")
    add_def(tree / "examples/quickstart.py",
            "\nfrom repro.utils.tables import used_by_an_example\n")
    assert sweep(tree).returncode == 0


def test_a_stale_allowlist_entry_fails_the_sweep(tree):
    add_def(tree / "examples/quickstart.py", "\n# unregister_tensor_method\n")
    result = sweep(tree)
    assert result.returncode == 1
    assert "allowlist entry 'unregister_tensor_method' is stale" in result.stdout
