"""The paper's core contribution: PCRs, CFBs, pruning rules, U-tree, U-PCR."""

from repro.core.catalog import UCatalog
from repro.core.costmodel import CostEstimate, UTreeCostModel
from repro.core.cfb import LinearBoxFunction, fit_cfbs, fit_inner_cfb, fit_outer_cfb
from repro.core.filterkernel import CFBFilterKernel, PCRFilterKernel
from repro.core.nn import (
    NNCandidate,
    NNResult,
    expected_nearest_neighbors,
    probabilistic_nearest_neighbors,
)
from repro.core.pcr import PCRSet, compute_pcrs
from repro.core.pruning import CFBRules, PCRRules, Verdict, covers_band, subtree_may_qualify
from repro.core.query import ProbRangeQuery, QueryAnswer, refine_candidates
from repro.core.scan import SequentialScan
from repro.core.stats import QueryStats, WorkloadStats
from repro.core.upcr import UPCRLeafRecord, UPCRTree
from repro.core.utree import UpdateCost, UTree, UTreeLeafRecord

__all__ = [
    "CFBFilterKernel",
    "CFBRules",
    "CostEstimate",
    "NNCandidate",
    "NNResult",
    "LinearBoxFunction",
    "PCRFilterKernel",
    "PCRRules",
    "PCRSet",
    "ProbRangeQuery",
    "QueryAnswer",
    "QueryStats",
    "SequentialScan",
    "UCatalog",
    "UPCRLeafRecord",
    "UPCRTree",
    "UTreeCostModel",
    "UTree",
    "UTreeLeafRecord",
    "UpdateCost",
    "Verdict",
    "WorkloadStats",
    "compute_pcrs",
    "covers_band",
    "expected_nearest_neighbors",
    "fit_cfbs",
    "fit_inner_cfb",
    "fit_outer_cfb",
    "probabilistic_nearest_neighbors",
    "refine_candidates",
    "subtree_may_qualify",
]
