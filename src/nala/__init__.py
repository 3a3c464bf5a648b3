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
    pse,
    pse_of_exp,
    theorem1_scan,
)
from .errors import (
    DegenerateSequence,
    DimensionMismatch,
    InvalidPerturbation,
    NearSingular,
    NonFinite,
    NonPositiveSum,
    WrongKernel,
)
from .gradcheck import finite_diff_jacobian, jac_phi_k, jac_phi_q
from .kernels import (
    KernelKind,
    KernelSpec,
    baseline_map,
    direction_squash,
    phi_k,
    phi_q,
    power_exponent,
)
from .linalg import make_rng

__version__ = "0.1.0"
