"""Higher-order network alignment via tensor Kronecker product structure.

The package aligns two graphs by matching motif (clique) adjacency tensors.
Its core exploits that contractions against the product tensor of two motif
tensors decouple into per-operand contractions for low-rank arguments, and
that the product's dominant Z-eigenpair factorizes into the operands'
dominant pairs.  On top of that sit three alignment iterations (dense,
exact low-rank, and fully decoupled per-graph power sequences), exact
max-weight matching, greedy local-search refinement, and a synthetic
benchmark generator, all exposed through the ``tenalign`` command.
"""

from .align import (
    AlignmentOutput,
    AlignOptions,
    FactorPair,
    lambda_tame,
    lowrank_tame,
    rank_reveal,
    tame,
)
from .eigen import (
    DecouplingReport,
    EigenPair,
    dominant_eigen,
    spectrum_sample,
    verify_decoupling,
)
from .errors import (
    BudgetExceededError,
    DegenerateIterateError,
    DegenerateProblemError,
    DimensionMismatchError,
    InputFormatError,
    NumericalFailureError,
    TenalignError,
    UnsupportedContractionError,
)
from .graphs import Graph, clique_tensor, enumerate_cliques, load_edge_list, save_edge_list
from .kron import (
    KronPair,
    explicit_kron,
    implicit_kron_ttv,
    lowrank_kron_ttv,
    rank1_kron_ttv,
)
from .matching import (
    Matching,
    accuracy,
    edges_aligned,
    max_weight_matching,
    motifs_aligned,
)
from .refine import RefineOptions, RefineStats, local_search
from .synth import AlignmentProblem, duplication_noise, er_noise, make_problem, permute, rgg
from .tensors import MotifTensor, ttv_same

__version__ = "0.1.0"
