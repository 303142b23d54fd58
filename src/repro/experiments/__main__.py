"""``python -m repro.experiments``: print every regenerated table and figure.

Runs the ten drivers once on half-scale corpora with a fixed seed (~10 s)
and takes no arguments; to vary one, call that driver's ``run(...)``.
"""

from __future__ import annotations

import warnings

from repro.experiments import (
    fig4_ndcg,
    fig5_reduction_sweep,
    running_example,
    table1_tag_pairs,
    table2_datasets,
    table3_semantics,
    table4_clusters,
    table5_preprocessing,
    table6_query_time,
    table7_memory,
)
from repro.utils.errors import ConvergenceWarning

SCALE = 0.5
SEED = 7
NUM_QUERIES = 32
NUM_CONCEPTS = 30


def main() -> None:
    warnings.filterwarnings("ignore", category=ConvergenceWarning)
    corpus = {"scale": SCALE, "seed": SEED}
    model = {**corpus, "num_concepts": NUM_CONCEPTS}
    queries = {**model, "num_queries": NUM_QUERIES}
    reports = [
        running_example.run(),
        table1_tag_pairs.run(**model),
        table2_datasets.run(**corpus),
        table3_semantics.run(**model),
        table4_clusters.run(**model),
        *fig4_ndcg.run(**queries).values(),
        table5_preprocessing.run(**model),
        fig5_reduction_sweep.run(**corpus),
        table6_query_time.run(**queries),
        table7_memory.run(**model),
    ]
    print("\n\n".join(report.render() for report in reports))


if __name__ == "__main__":
    main()
