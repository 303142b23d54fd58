"""Readers and writers for tag-assignment logs.

Two interchange formats are supported:

* **TSV** — one assignment per line, ``user<TAB>tag<TAB>resource``, the
  format most public folksonomy dumps (and the paper's Fig. 2a table) use.
* **JSON lines** — one JSON object per line with ``user``/``tag``/``resource``
  keys, convenient when labels may contain tabs or newlines.

Both readers are generators so arbitrarily large logs can be streamed, and
both raise :class:`~repro.utils.errors.DataFormatError` with the offending
line number on malformed input.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Union

from repro.tagging.entities import TagAssignment
from repro.utils.errors import DataFormatError

PathLike = Union[str, Path]


def read_assignments_tsv(path: PathLike) -> Iterator[TagAssignment]:
    """Stream assignments from a tab-separated file.

    Blank lines and lines starting with ``#`` are skipped.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.rstrip("\n")
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split("\t")
            if len(parts) != 3:
                raise DataFormatError(
                    f"{path}:{line_number}: expected 3 tab-separated fields, "
                    f"got {len(parts)}"
                )
            user, tag, resource = parts
            if not user or not tag or not resource:
                raise DataFormatError(
                    f"{path}:{line_number}: empty user, tag or resource field"
                )
            yield TagAssignment(user=user, tag=tag, resource=resource)


def write_assignments_tsv(
    assignments: Iterable[TagAssignment], path: PathLike
) -> int:
    """Write assignments to a TSV file; returns the number of lines written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        handle.write("# user\ttag\tresource\n")
        for assignment in assignments:
            _check_writable_labels(assignment, separator="\t")
            handle.write(
                f"{assignment.user}\t{assignment.tag}\t{assignment.resource}\n"
            )
            count += 1
    return count


def read_assignments_jsonl(path: PathLike) -> Iterator[TagAssignment]:
    """Stream assignments from a JSON-lines file."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise DataFormatError(
                    f"{path}:{line_number}: invalid JSON ({exc})"
                ) from exc
            try:
                yield TagAssignment(
                    user=str(record["user"]),
                    tag=str(record["tag"]),
                    resource=str(record["resource"]),
                )
            except (KeyError, TypeError) as exc:
                raise DataFormatError(
                    f"{path}:{line_number}: record must contain "
                    "'user', 'tag' and 'resource' keys"
                ) from exc


def write_assignments_jsonl(
    assignments: Iterable[TagAssignment], path: PathLike
) -> int:
    """Write assignments to a JSON-lines file; returns the number written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for assignment in assignments:
            record = {
                "user": assignment.user,
                "tag": assignment.tag,
                "resource": assignment.resource,
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
            count += 1
    return count


def _check_writable_labels(assignment: TagAssignment, separator: str) -> None:
    """Refuse labels the TSV reader would not read back unchanged: it splits
    fields on ``separator``, lines on ``\n`` and ``\r``, and skips a line
    starting with ``#`` as a comment."""
    labels = assignment.as_tuple()
    if assignment.user.startswith("#") or any(
        separator in label or "\n" in label or "\r" in label for label in labels
    ):
        raise DataFormatError(
            f"assignment {labels!r} has a field separator, a newline or a "
            "leading '#' in a label; use the JSON-lines format instead"
        )
