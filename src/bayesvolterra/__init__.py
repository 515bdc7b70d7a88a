"""Bayesian identification of truncated Volterra systems.

The kernel coefficients of a degree-D Volterra model are held in CPD
(sum of Kronecker products) form and inferred by mean-field variational
Bayes with hierarchical sparsity priors: per-column precisions prune the
CPD rank, a shared per-lag precision vector learns fading memory, and the
noise precision yields calibrated Student-t predictive distributions.
"""

from .data import (
    Dataset,
    SyntheticSystem,
    calibrate_components,
    center_output,
    compute_normalization,
    load_csv,
    normalize_input,
    random_cpd_system,
    save_csv,
    split_count,
    standardize_output,
    synthesize,
)
from .errors import (
    BayesVolterraError,
    DataFormatError,
    ModelFormatError,
    NumericFailure,
)
from .features import (
    block_quadratics,
    build_lagged_matrix,
    column_products,
    design_matrix,
    expected_gram,
    expected_output,
    expected_residual,
    kept_pairs,
    lag_blocks,
    moment_pairs,
    second_moments,
    window_pairs,
)
from .inference import (
    FitConfig,
    FitTrace,
    compute_elbo,
    identify,
    truncate_rank,
    update_col_precisions,
    update_factor,
    update_noise_precision,
    update_row_precisions,
)
from .model import (
    FactorPosterior,
    GammaPosterior,
    ModelState,
    NormalizationRecord,
    PriorConfig,
    init_state,
    prior_precision,
)
from .persistence import load_manifest, load_model, save_model
from .prediction import (
    EvalReport,
    evaluate,
    nll,
    predict,
    predictive_arrays,
    rmse,
)
from .tensor_ops import khatri_rao

__version__ = "0.1.0"
