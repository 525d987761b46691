"""Provably near-calibrated recommendation lists under decaying attention."""

from .core import (
    Instance,
    ItemPositionSet,
    OverlapMeasure,
    PositionWeights,
    Sequence,
    Subdistribution,
    ValidationError,
    concave,
    f_divergence,
    fg_set,
    hatfg_set,
    hellinger_squared,
    induced_distribution,
    power,
    seq_objective,
    validate_instance,
)
from .greedy import (
    GreedyTrace,
    best_length_solve,
    discrete_greedy,
    discrete_objective,
    greedy_sequence,
)
from .matroid import (
    LaminarMatroid,
    PartitionMatroid,
    continuous_greedy,
    pipage_round,
    set_to_sequence,
    solve_distributional,
    solve_with_repeats,
)
from .oracle import (
    check_mdr,
    check_ordered_submodular,
    check_overlap_axioms,
    check_set_to_sequence,
    exhaustive_opt,
    ratio_report,
)
from .repro import GenParams, generate_instances

__version__ = "0.1.0"
