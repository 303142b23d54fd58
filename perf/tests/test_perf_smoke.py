"""Smoke tests of the benchmark itself (``pytest perf/tests -q``).

Deliberately outside ``testpaths``: wall-clock never decides tier-1.  The
``--quick`` sizes make every workload a few seconds of work.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent
ROOT = PERF.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(PERF))

from cubeperf import catalogue, ladder, oracle  # noqa: E402
from cubeperf.runner import run_workload  # noqa: E402
from cubeperf.workloads import QUICK, QuerySteady  # noqa: E402
from repro.search.engine import SearchEngine  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def reports():
    return {
        (name, trace): run_workload(name, 7, 0.0, trace, quick=True)
        for name in catalogue.WORKLOADS
        for trace in (False, True)
    }


def test_catalogue_is_well_formed():
    names = [m.name for m in catalogue.END_TO_END + catalogue.PER_LAYER]
    names += list(catalogue.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in catalogue.END_TO_END:
        assert UNIT.fullmatch(metric.unit) and metric.meaning
        assert metric.better in ("lower", "higher")
        assert 0 < metric.bound <= 0.25
    assert any(
        m.name == "setup_s" and m.unit == "s" and m.better == "lower"
        for m in catalogue.END_TO_END
    )
    for metric in catalogue.PER_LAYER:
        assert UNIT.fullmatch(metric.unit) and metric.moves
        assert metric.better in ("lower", "higher")
        assert metric.workload in (*catalogue.WORKLOADS, "all")
    assert all(len(why) <= 200 for why in catalogue.WORKLOADS.values())


def test_benchmark_json_is_the_catalogue():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert contract == catalogue.benchmark_json()


def test_every_run_prints_the_contracted_metrics(reports):
    for (name, trace), report in reports.items():
        result = report["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, (name, trace)
        assert result["attempted"] >= 1 and report["fail_ratio"] == 0
        wanted = catalogue.PER_LAYER if trace else catalogue.END_TO_END
        assert list(result["metrics"]) == [m.name for m in wanted]
        for metric in wanted:
            entry = result["metrics"][metric.name]
            assert entry["unit"] == metric.unit
            assert isinstance(entry["value"], (int, float))
        if not trace:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_measures_its_own_rungs(reports):
    for name in catalogue.WORKLOADS:
        report = reports[name, True]
        assert report["absent_layers"] == []
        for metric in catalogue.PER_LAYER:
            measured = report["per_layer"][metric.name] is not None
            assert measured == (metric.workload in (name, "all")), metric.name
    assert reports["fit_offline", True]["per_layer"]["perf.fit_stage_coverage"] > 0.5


def test_span_files_parse_and_parents_exist(reports):
    for name in catalogue.WORKLOADS:
        payload = json.loads((ladder.OUT_DIR / f"trace-{name}.json").read_text())
        spans = payload["spans"]
        assert payload["workload"] == name and spans
        ids = {span["id"] for span in spans}
        assert len(ids) == len(spans)
        for span in spans:
            assert span["end"] >= span["start"]
            assert span["parent"] is None or span["parent"] in ids
            assert NAME.fullmatch(span["name"])


def test_a_corrupted_answer_is_caught(monkeypatch):
    workload = QuerySteady(7, QUICK)
    workload.set_up()
    assert workload.check()[1] == 0
    good = workload.engine.rank_batch(workload.queries[:5], top_k=10)
    bad = [ranking[1:] for ranking in good]
    assert oracle.count_mismatches(bad, good, 10) > 0

    honest = SearchEngine.search

    def drops_the_best_hit(self, query_tags, top_k=None):
        return honest(self, query_tags, top_k=top_k)[1:]

    monkeypatch.setattr(SearchEngine, "search", drops_the_best_hit)
    report = run_workload("query_steady", 7, 0.0, False, quick=True)
    assert not report["result"]["correct"]
    assert report["result"]["failed"] > 0 and report["fail_ratio"] > 0


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "fit_offline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
