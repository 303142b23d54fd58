"""Documentation presence, link, path, module-name and option-name checker (CI gate).

Five failure modes make docs rot silently: a book that exists but
nothing points at (unreachable, so effectively deleted), a link whose
target moved (dead, so the reader bounces), a file path that outlived
its file, a module name that outlived its module, and an option that
outlived its parameter.  This checker makes all five loud:

* **presence** — every ``docs/*.md`` file must be referenced by a
  relative link from ``README.md`` itself, so the README remains the
  single entry point to the whole book set;
* **liveness** — every relative (intra-repo) markdown link in
  ``README.md`` and ``docs/*.md`` must resolve to an existing file or
  directory.  External ``http(s)``/``mailto`` links and pure
  ``#fragment`` anchors are out of scope (CI must not flake on the
  network);
* **paths** — every backticked ``<dir>/…/<file>.<ext>`` (optionally with
  a ``::test`` suffix) in ``README.md`` and ``docs/*.md`` must name a
  file that exists under the repo root (a ``*`` glob must match at least
  one), so a citation cannot outlive the file it points at;
* **module names** — every backticked ``repro.<pkg>.<name>`` in
  ``README.md`` and ``docs/*.md`` must be a module or subpackage under
  ``src/repro/<pkg>/``, or a name that package's ``__init__.py``
  mentions (read as text: the checker imports nothing);
* **option names** — every backticked ``<identifier>=…`` (lower-case, so
  environment variables are out of scope) in ``README.md`` and
  ``docs/*.md`` must name a parameter or annotated class field of some
  function or class under ``src/`` (an ``ast`` scan, again no import).

Run it from the repo root (CI does)::

    python tools/check_docs.py

or point it elsewhere with ``--root``.  Exit code 0 means clean; 1
means problems, each printed one per line as ``<file>: <problem>``.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import List, Set

#: Inline markdown links/images: ``[text](target)`` / ``![alt](target)``.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: Schemes that point outside the repo and are deliberately not checked.
_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")
#: A backticked dotted name at least ``repro.<pkg>.<name>`` deep.
_MODULE_RE = re.compile(r"`repro\.(\w+)\.(\w+)[\w.]*`")
#: A backticked repo-relative file path, ``dir/.../file.ext`` or
#: ``dir/.../file.ext::node`` (save-layout names like ``shard-0000/`` and
#: slash-joined words like ``add/update/remove`` have no extension).
_PATH_RE = re.compile(r"`((?:[\w.-]+/)+)([\w*-]+\.\w+)(?:::[^`]*)?`")
#: A backticked ``name=`` / ``name=value`` option token (``PYTHONPATH=src``
#: and other upper-case environment variables do not match).
_OPTION_RE = re.compile(r"`([a-z_][a-z0-9_]*)=[^`]*`")


def extract_links(markdown: str) -> List[str]:
    """Return every inline link target in the document, in order."""
    return _LINK_RE.findall(markdown)


def is_relative_link(target: str) -> bool:
    """True for intra-repo targets (not external, not a bare anchor)."""
    if target.startswith(_EXTERNAL_PREFIXES):
        return False
    if target.startswith("#"):
        return False
    return True


def resolve_link(source: Path, target: str) -> Path:
    """Resolve ``target`` (less any ``#fragment``) against its source file."""
    path = target.split("#", 1)[0]
    return (source.parent / path).resolve()


def missing_modules(markdown: str, root: Path) -> List[str]:
    """Backticked ``repro.<pkg>.<name>`` prefixes nothing under ``src/`` backs."""
    missing = []
    for package, name in _MODULE_RE.findall(markdown):
        package_dir = root / "src" / "repro" / package
        init = package_dir / "__init__.py"
        if (
            (package_dir / f"{name}.py").is_file()
            or (package_dir / name).is_dir()
            or (
                init.is_file()
                and re.search(rf"\b{name}\b", init.read_text(encoding="utf-8"))
            )
        ):
            continue
        dotted = f"repro.{package}.{name}"
        if dotted not in missing:
            missing.append(dotted)
    return missing


def declared_options(root: Path) -> Set[str]:
    """Every parameter and annotated class field declared under ``src/``."""
    names: Set[str] = set()
    for path in (root / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                spec = node.args
                for arg in (
                    *spec.posonlyargs,
                    *spec.args,
                    *spec.kwonlyargs,
                    spec.vararg,
                    spec.kwarg,
                ):
                    if arg is not None:
                        names.add(arg.arg)
            elif isinstance(node, ast.ClassDef):
                names.update(
                    stmt.target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                )
    return names


def check_docs(root: Path) -> List[str]:
    """Check the doc set under ``root``; return problems (empty == clean)."""
    root = root.resolve()
    readme = root / "README.md"
    problems: List[str] = []
    if not readme.is_file():
        return [f"{readme}: README.md is missing"]

    docs_dir = root / "docs"
    doc_files = sorted(docs_dir.glob("*.md")) if docs_dir.is_dir() else []
    sources = [readme, *doc_files]

    # Liveness: every module name, file path, option name and relative
    # link in every source must resolve.
    options = declared_options(root)
    readme_targets: Set[Path] = set()
    for source in sources:
        rel_source = source.relative_to(root)
        markdown = source.read_text(encoding="utf-8")
        for dotted in missing_modules(markdown, root):
            problems.append(f"{rel_source}: no such module -> {dotted}")
        for directory, name in dict.fromkeys(_PATH_RE.findall(markdown)):
            if not (root / directory).is_dir():
                problems.append(f"{rel_source}: no such directory -> {directory}")
            elif not any((root / directory).glob(name)):
                problems.append(f"{rel_source}: no such file -> {directory}{name}")
        for option in dict.fromkeys(_OPTION_RE.findall(markdown)):
            if option not in options:
                problems.append(f"{rel_source}: no such option -> {option}=")
        for target in extract_links(markdown):
            if not is_relative_link(target):
                continue
            resolved = resolve_link(source, target)
            if not resolved.exists():
                problems.append(f"{rel_source}: dead link -> {target}")
            elif source == readme:
                readme_targets.add(resolved)

    # Presence: every docs/*.md must be linked from the README itself —
    # the README is the entry point, so a doc only reachable through
    # another doc (or through nothing) is effectively unpublished.
    for doc in doc_files:
        if doc.resolve() not in readme_targets:
            problems.append(
                f"{doc.relative_to(root)}: not referenced from "
                "README.md — link it or delete it"
            )
    return problems


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: this file's grandparent)",
    )
    args = parser.parse_args(argv)
    problems = check_docs(args.root)
    for problem in problems:
        print(problem)
    if problems:
        print(f"FAIL: {len(problems)} documentation problem(s)")
        return 1
    print(
        "OK: docs present, linked from README, no dead intra-repo links, "
        "no stale path, module or option names"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
