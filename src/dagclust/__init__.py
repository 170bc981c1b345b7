"""Cluster mappings of DAGs under dependent, cluster-aware cost functions."""

__version__ = "0.1.0"

from .dag import (
    CapExceededError,
    Dag,
    LayerAssignment,
    ValidationError,
    assign_layers,
    check_contiguity,
    founding_labels,
    load_dag,
    parse_dag_text,
    search_space_size,
    seven_node_example,
)
from .factors import OpCostWeights, eval_schedule
from .costs import BnComputationCost, JEntry, evaluate_mapping
from .inference import cluster_inference_cost
from .generator import GeneratorSpec, generate_dag
from .search import SearchConfig, SolutionRecord, partition_signature, search, stream_search
from .oracle import enumerate_feasible, optimal_set, similarity

__all__ = [
    "CapExceededError",
    "Dag",
    "LayerAssignment",
    "ValidationError",
    "assign_layers",
    "check_contiguity",
    "founding_labels",
    "load_dag",
    "parse_dag_text",
    "search_space_size",
    "seven_node_example",
    "OpCostWeights",
    "eval_schedule",
    "BnComputationCost",
    "JEntry",
    "evaluate_mapping",
    "cluster_inference_cost",
    "GeneratorSpec",
    "generate_dag",
    "SearchConfig",
    "SolutionRecord",
    "partition_signature",
    "search",
    "stream_search",
    "enumerate_feasible",
    "optimal_set",
    "similarity",
]
