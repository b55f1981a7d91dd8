"""List the public top-level definitions in ``src/repro`` that nothing uses.

Run from the repository root:

    python scripts/check_unused_defs.py [ROOT]

A function or class counts as used when its name appears as a whole word
anywhere in ``src/``, ``bench/``, ``benchmarks/``, ``scripts/`` or
``examples/`` outside its own definition.  Package re-exports (the imports
and ``__all__`` of an ``__init__.py``) do not count.  Tests are not
scanned: code that only its own tests call is not a use of the program.

Exits 1 when an unused name is missing from :data:`ALLOWLIST`, or when an
allowlist entry no longer names an unused definition; each entry gives the
reason it stays.  Standard library only.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

SCANNED = ("src", "bench", "benchmarks", "scripts", "examples")

#: Unused definitions that stay on purpose, each with its reason.
ALLOWLIST = {
    # Serve the tests on purpose.
    "expected_state_dict": "repro.testing golden helper: the v1-v3 golden tests",
    "expected_method_state": "repro.testing golden helper: the method-golden tests",
    "unregister": "registry test hook: plug-in tests register, then unregister",
    "unregister_tensor_method": "registry test hook: plug-in tests register, then unregister",
    "canonical_events": "obs determinism comparator of the trace-determinism tests",
    "installed_sinks": "sink-leak check of the recorder and CLI tests",
}


_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _names(source: str, skip: set[int]) -> list[tuple[str, int]]:
    """Every word of ``source`` and its line, except on ``skip`` lines."""
    return [
        (word, number)
        for number, line in enumerate(source.splitlines(), start=1)
        if number not in skip
        for word in _WORD.findall(line)
    ]


def _reexport_lines(tree: ast.Module) -> set[int]:
    """Lines of an ``__init__.py``'s imports and ``__all__``."""
    lines: set[int] = set()
    for node in tree.body:
        is_all = isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        )
        if is_all or isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _definitions(tree: ast.Module) -> list[tuple[str, int, int]]:
    """``(name, first line, last line)`` of each public top-level def."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                found.append((node.name, first, node.end_lineno))
    return found


def unused_definitions(root: Path) -> list[tuple[str, Path, int, int]]:
    """``(name, file, first line, line count)`` of every unused definition."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    definitions = []
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            if path == root / "scripts" / Path(__file__).name:
                continue  # the allowlist names every entry
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
            skip = _reexport_lines(tree) if path.name == "__init__.py" else set()
            for name, line in _names(source, skip):
                uses.setdefault(name, []).append((path, line))
            if path.is_relative_to(root / "src" / "repro"):
                definitions.extend((name, path, first, last)
                                   for name, first, last in _definitions(tree))
    unused = []
    for name, path, first, last in definitions:
        outside = [use for use in uses.get(name, ())
                   if use[0] != path or not first <= use[1] <= last]
        if not outside:
            unused.append((name, path, first, last - first + 1))
    return unused


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else ".").resolve()
    unused = unused_definitions(root)
    status = 0
    for name, path, line, count in unused:
        if name not in ALLOWLIST:
            print(f"{path.relative_to(root)}:{line}: {name} ({count} lines) "
                  "is used nowhere outside its own definition")
            status = 1
    for name in sorted(set(ALLOWLIST) - {entry[0] for entry in unused}):
        print(f"allowlist entry {name!r} is stale: it is used, or gone")
        status = 1
    allowed = [entry for entry in unused if entry[0] in ALLOWLIST]
    print(f"{len(unused)} unused public definition(s), {len(allowed)} allowlisted "
          f"({sum(entry[3] for entry in allowed)} lines)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
