"""Multi-crossing graphs of elections.

Maps elections with a fixed voter order to the graph of candidate pairs
that cross more than once, constructs elections implementing target
graphs, recognises the relevant graph classes, and solves the Candidate
Deletion and k-Candidate Partition closeness measures exactly.
"""
from types import ModuleType as _ModuleType

from .analysis import (
    AnalysisInputError,
    AnalysisResult,
    candidate_deletion,
    candidate_partition,
    reduce_coloring,
    reduce_independent_set,
)
from .constructions import (
    ConstructionError,
    ConstructionInputError,
    ImplementationResult,
    RamseyExtract,
    fully_single_crossing,
    implement_clique,
    implement_empty,
    implement_even_cycle,
    implement_general,
    implement_path,
    implement_permutation_graph,
    implement_tree,
    intersect_implementations,
    ramsey_extract,
)
from .elections import (
    CrossingSequence,
    Election,
    ElectionError,
    ElectionParseError,
    crossing_sequence,
    emit_election,
    is_single_crossing,
    multicrossing_graph,
    parse_election,
    restrict,
)
from .graphs import (
    GraphError,
    GraphParseError,
    Orientation,
    PermutationDiagram,
    SolveReport,
    UndirectedGraph,
    emit_dot,
    emit_graph,
    exact_coloring,
    is_bipartite,
    max_antichain,
    maximum_independent_set,
    minimum_chain_cover,
    mirsky_coloring,
    parse_graph,
    recognize_permutation,
    transitive_orientation,
)

__all__ = [name for name in dir()  # the public names, not the submodules
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
