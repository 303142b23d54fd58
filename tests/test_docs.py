"""The docs gate: the real doc set is clean, and the checker can fail.

``tools/check_docs.py`` is CI's guarantee that the architecture and
operations books stay published (linked from the README) and that no
intra-repo link rots.  This suite runs the checker against the actual
repository — so a doc PR that forgets the README link fails tier-1,
not just the CI docs job — and against synthetic broken repos, so the
checker itself is known to detect every failure mode it claims to.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_docs import (  # noqa: E402  (path bootstrap above)
    check_docs,
    extract_links,
    is_relative_link,
    main,
    resolve_link,
)


class TestLinkExtraction:
    def test_extracts_inline_links_and_images(self):
        text = (
            "See [the book](docs/architecture.md) and "
            "![badge](https://ci.example/badge.svg); also "
            "[ops](docs/operations.md#sizing)."
        )
        assert extract_links(text) == [
            "docs/architecture.md",
            "https://ci.example/badge.svg",
            "docs/operations.md#sizing",
        ]

    def test_relative_link_classification(self):
        assert is_relative_link("docs/architecture.md")
        assert is_relative_link("../README.md")
        assert not is_relative_link("https://example.com/x.md")
        assert not is_relative_link("http://example.com")
        assert not is_relative_link("mailto:ops@example.com")
        assert not is_relative_link("#anchor-only")

    def test_resolve_strips_fragment_and_follows_source_dir(self):
        source = REPO_ROOT / "docs" / "architecture.md"
        resolved = resolve_link(source, "../README.md#quickstart")
        assert resolved == REPO_ROOT / "README.md"


class TestRealRepository:
    def test_repository_docs_are_clean(self):
        problems = check_docs(REPO_ROOT)
        assert problems == [], "\n".join(problems)

    def test_every_doc_exists_and_readme_links_it(self):
        docs = sorted((REPO_ROOT / "docs").glob("*.md"))
        assert docs, "docs/ must contain the architecture/operations books"
        names = {doc.name for doc in docs}
        assert {"architecture.md", "operations.md"} <= names
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for doc in docs:
            assert f"docs/{doc.name}" in readme

    def test_cli_exit_codes(self, capsys):
        assert main(["--root", str(REPO_ROOT)]) == 0
        assert "OK" in capsys.readouterr().out


class TestBrokenRepositories:
    def _repo(self, tmp_path, readme="", docs=None):
        (tmp_path / "README.md").write_text(readme, encoding="utf-8")
        if docs:
            (tmp_path / "docs").mkdir()
            for name, body in docs.items():
                (tmp_path / "docs" / name).write_text(body, encoding="utf-8")
        return tmp_path

    def test_missing_readme_is_fatal(self, tmp_path):
        problems = check_docs(tmp_path)
        assert len(problems) == 1
        assert "README.md is missing" in problems[0]

    def test_unreferenced_doc_is_flagged(self, tmp_path):
        root = self._repo(
            tmp_path,
            readme="# Repo\nNo links here.\n",
            docs={"orphan.md": "# Orphan\n"},
        )
        problems = check_docs(root)
        assert any(
            "orphan.md" in p and "not referenced" in p for p in problems
        )

    def test_dead_link_is_flagged_with_source_file(self, tmp_path):
        root = self._repo(
            tmp_path,
            readme="[book](docs/book.md)\n",
            docs={"book.md": "[gone](missing.md)\n"},
        )
        problems = check_docs(root)
        assert problems == ["docs/book.md: dead link -> missing.md"]

    def test_stale_module_name_is_flagged(self, tmp_path):
        root = self._repo(
            tmp_path,
            readme=(
                "`repro.search.engine`, `repro.search.engine.SearchEngine`, "
                "`repro.search.merge_topk` and `repro.search` exist; "
                "`repro.search.topk` and `repro.gone.module` do not.\n"
            ),
        )
        package = root / "src" / "repro" / "search"
        package.mkdir(parents=True)
        (package / "engine.py").write_text("", encoding="utf-8")
        (package / "__init__.py").write_text(
            "from repro.search.sharding import merge_topk\n", encoding="utf-8"
        )
        assert check_docs(root) == [
            "README.md: no such module -> repro.search.topk",
            "README.md: no such module -> repro.gone.module",
        ]

    def test_path_under_a_missing_directory_is_flagged(self, tmp_path):
        root = self._repo(
            tmp_path,
            readme=(
                "`tests/test_docs.py::TestX::test_y`, `docs/*.md` and "
                "`src/repro/load/runner.py` sit in real directories; "
                "`oldbench/test_bench_serve.py` and "
                "`src/repro/gone/module.py::test_z` do not.  A save layout "
                "(`shard-0000/`) or `add/update/remove` is not a file path.  "
                "[a](docs/a.md)\n"
            ),
        )
        for path in ("tests/test_docs.py", "docs/a.md", "src/repro/load/runner.py"):
            (root / path).parent.mkdir(parents=True, exist_ok=True)
            (root / path).write_text("", encoding="utf-8")
        assert check_docs(root) == [
            "README.md: no such directory -> oldbench/",
            "README.md: no such directory -> src/repro/gone/",
        ]

    def test_missing_file_in_a_real_directory_is_flagged(self, tmp_path):
        root = self._repo(
            tmp_path,
            readme=(
                "`examples/quickstart.py` and `examples/*.py` exist; "
                "`examples/serving_frontend.py` and `tools/*.sh` do not.\n"
            ),
        )
        for directory in ("examples", "tools"):
            (root / directory).mkdir()
        (root / "examples" / "quickstart.py").write_text("", encoding="utf-8")
        assert check_docs(root) == [
            "README.md: no such file -> examples/serving_frontend.py",
            "README.md: no such file -> tools/*.sh",
        ]

    def test_stale_option_name_is_flagged(self, tmp_path):
        root = self._repo(
            tmp_path,
            readme=(
                "Replay with `num_workers=4`, a `frontend_config=` and "
                "`top_k=10` under `PYTHONPATH=src`; `pace=True` is gone.\n"
            ),
        )
        package = root / "src" / "repro" / "load"
        package.mkdir(parents=True)
        (package / "runner.py").write_text(
            "def run_concurrent(self, num_workers, *, frontend_config=None):\n"
            "    pass\n"
            "class Config:\n"
            "    top_k: int = 10\n",
            encoding="utf-8",
        )
        assert check_docs(root) == ["README.md: no such option -> pace="]

    def test_doc_linked_only_from_another_doc_still_fails(self, tmp_path):
        root = self._repo(
            tmp_path,
            readme="[a](docs/a.md)\n",
            docs={"a.md": "[b](b.md)\n", "b.md": "# b\n"},
        )
        problems = check_docs(root)
        assert any("b.md" in p and "not referenced" in p for p in problems)

    def test_external_links_and_anchors_are_ignored(self, tmp_path):
        root = self._repo(
            tmp_path,
            readme=(
                "[ci](https://example.com/missing) "
                "[mail](mailto:x@example.com) [jump](#section) "
                "[doc](docs/a.md)\n"
            ),
            docs={"a.md": "# a\n"},
        )
        assert check_docs(root) == []

    def test_fragment_links_resolve_to_the_file(self, tmp_path):
        root = self._repo(
            tmp_path,
            readme="[doc](docs/a.md#some-section)\n",
            docs={"a.md": "# a\n"},
        )
        assert check_docs(root) == []

    def test_cli_reports_failures_nonzero(self, tmp_path, capsys):
        root = self._repo(tmp_path, readme="[gone](missing.md)\n")
        assert main(["--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "dead link" in out and "FAIL" in out
