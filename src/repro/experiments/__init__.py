"""Experiment drivers: one module per table / figure of the paper.

Every driver exposes a ``run(...)`` function returning an
:class:`~repro.experiments.common.ExperimentReport` whose ``render()``
method prints the same rows or series the paper reports, so regenerating a
table is one function call away; ``python -m repro.experiments`` prints all:

====================  ============================================  =============================
Experiment            Paper result                                  Module
====================  ============================================  =============================
Table I               tag-pair semantic relations                   ``table1_tag_pairs``
Table II              dataset statistics raw vs cleaned             ``table2_datasets``
Table III             JCN / rank accuracy of tag distances          ``table3_semantics``
Table IV              sample tag clusters                           ``table4_clusters``
Figure 4              NDCG@N of six rankers on three datasets       ``fig4_ndcg``
Table V               pre-processing time CubeLSI vs CubeSim        ``table5_preprocessing``
Figure 5              pre-processing time vs reduction ratio        ``fig5_reduction_sweep``
Table VI              query time CubeLSI vs FolkRank                ``table6_query_time``
Table VII             memory of F-hat vs core + factor              ``table7_memory``
Running example       Section IV/V worked example                   ``running_example``
====================  ============================================  =============================
"""

from repro.experiments.common import ExperimentReport, PreparedCorpus, prepare_corpus

__all__ = [
    "ExperimentReport",
    "PreparedCorpus",
    "prepare_corpus",
]
