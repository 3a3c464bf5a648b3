"""Norm-aware linear attention: kernels, O(N) evaluators, entropy toolkit."""

from .attention import (
    AttentionResult,
    BlockParams,
    block_forward,
    layer_norm,
    nala_causal_recurrent,
    nala_linear,
    nala_quadratic,
    random_block_params,
    softmax_attention,
)
from .entropy import (
    EntropyScanRecord,
    concavity_probe,
    norm_entropy_experiment,
    prop2_invariance_check,
    pse,
    pse_of_exp,
    theorem1_scan,
)
from .errors import (
    DegenerateSequence,
    DimensionMismatch,
    InvalidPerturbation,
    NearSingular,
    NonPositiveSum,
    WrongKernel,
    ZeroVector,
)
from .gradcheck import Jacobian, finite_diff_jacobian, jac_phi_k, jac_phi_q
from .kernels import (
    KernelKind,
    KernelSpec,
    baseline_map,
    direction_squash,
    pairwise_similarity,
    phi_k,
    phi_q,
    power_exponent,
)
from .linalg import NDParts, gaussian_fill, make_rng, nd_decompose

__version__ = "0.1.0"
