"""Production is what production runs: no unreferenced public names.

Every public top-level function or class that ``src/repro`` defines
outside ``repro.bench`` must be referenced from somewhere that runs it in
production or measures it: ``src/repro`` itself (``repro.bench``
included), ``examples/`` or ``benchmarks/ledger/``. A package
``__init__`` re-exporting a name, or listing it in ``__all__``, is not a
reference — that is how a helper only its own tests call survives. The
ledger's trace targets name functions in strings (``"Portal.submit"``),
so dotted-identifier strings there count.

The only exceptions are :data:`ALLOWED`, each with its reason. The list
may only shrink: :data:`ALLOWED_CEILING` fails the test if it grows, and a
stale entry (defined no more, or referenced after all) fails it too.
"""

import ast
import functools
import re
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Public names no production module references, and why they stay.
ALLOWED: Dict[str, str] = {
    "random_on_sphere": "test helper: uniform sky positions for the "
    "sphere, HTM and region suites",
    "parse_rpc_request": "test helper: the server-side parse of a request "
    "envelope without its headers, for the SOAP envelope suites",
    "id_for_radec": "test helper: a trixel id from degrees, for the HTM "
    "index and table suites",
    "trixel_by_id": "test helper: rebuilds a trixel from its id for the "
    "HTM mesh, index and cover-oracle suites",
    "chord_for_angle": "test helper: the chord bound of the sphere "
    "distance suite",
    "trace_from_dict": "test helper: the inverse of Trace.to_dict, for the "
    "tracing round-trip suites",
    "assert_span_tree": "span-tree oracle of the tracing suite",
    "assert_serial": "span-tree oracle of the tracing suite",
    "assert_overlapping": "span-tree oracle of the tracing suite",
}
ALLOWED_CEILING = 9

_DOTTED = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$")


def _module_of(path: Path) -> str:
    parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _production_files() -> Iterator[Tuple[Path, ast.Module]]:
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _outside_files() -> Iterator[Tuple[Path, ast.Module]]:
    for folder in (ROOT / "examples", ROOT / "benchmarks" / "ledger"):
        for path in sorted(folder.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _references(
    tree: ast.Module, *, reexports: bool, strings: bool
) -> Set[str]:
    """Names ``tree`` uses; ``reexports`` drops its ``from`` imports."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not reexports:
            names.update(alias.name for alias in node.names)
        elif (
            strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _DOTTED.match(node.value)
        ):
            names.update(node.value.split("."))
    return names


@functools.lru_cache(maxsize=None)
def scan() -> Tuple[Dict[str, str], Set[str]]:
    """(public production name -> defining module, every referenced name)."""
    defined: Dict[str, str] = {}
    referenced: Set[str] = set()
    for path, tree in _production_files():
        module = _module_of(path)
        if not module.startswith("repro.bench"):
            for node in tree.body:
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ) and not node.name.startswith("_"):
                    defined[node.name] = module
        referenced |= _references(
            tree, reexports=path.name == "__init__.py", strings=False
        )
    for _, tree in _outside_files():
        referenced |= _references(tree, reexports=False, strings=True)
    return defined, referenced


def test_every_public_production_name_is_reached():
    defined, referenced = scan()
    unreached = sorted(
        f"{module}.{name}"
        for name, module in defined.items()
        if name not in referenced and name not in ALLOWED
    )
    assert unreached == [], (
        "public names nothing in production references (delete them, or "
        f"move them beside the tests that use them): {unreached}"
    )


def test_allow_list_only_shrinks():
    defined, referenced = scan()
    stale = sorted(
        name for name in ALLOWED
        if name not in defined or name in referenced
    )
    assert stale == [], f"drop these from ALLOWED: {stale}"
    assert len(ALLOWED) <= ALLOWED_CEILING
    assert all(reason.strip() for reason in ALLOWED.values())
