"""Dyadic Haar shifts, torus Riesz multipliers, and the coding between them.

The package has three layers: dyadic analysis on [0, 1) (haar, shifts), trig
polynomial calculus on products of tori (torus), and the sign-toss coding
that carries martingale increments onto square waves (coding). experiments
turns their structural identities into finite certified checks; serialize
and cli expose everything as files and subcommands.
"""

from .errors import (
    GoldenMismatchError,
    InvalidInputError,
    ParseError,
    ResourceLimitError,
)
from .haar import (
    DyadicNode,
    HaarCoeffs,
    basis_position,
    coeff_inner,
    cube_haar_eval,
    haar_analyze,
    haar_synthesize,
)
from .shifts import (
    ShiftOperator,
    apply_s0,
    apply_sj,
    operator_matrix,
    signed_permutation,
)
from .torus import (
    ARC_NS,
    ArcBundle,
    TrigPoly,
    arc_average,
    arc_exp_integral,
    arc_of_angle,
    bundle_inner,
    bundle_poly_inner,
    directional_hilbert,
    embed_variable,
    inner_product,
    quarter_arc_project,
    riesz_apply,
    square_wave,
    square_wave_arc_values,
    square_wave_exact,
)
from .coding import (
    EkSpaceElement,
    EkTerm,
    MartingaleBlock,
    ModulatedSpectrum,
    ScaledFrequency,
    SignTossPath,
    block_depth,
    blocks_to_haar,
    check_ek_membership,
    coded_shift_blocks,
    duality_transfer_check,
    ek_to_trig_poly,
    encode_path,
    evaluate_blocks_at_path,
    make_ek_element,
    martingale_decompose,
    modulate,
    modulated_riesz_multiplier,
    modulation_difference,
    path_outcomes,
    random_ek_element,
    random_paths,
    sliced_multiplier_apply,
)
from .experiments import (
    DualityReport,
    LemmaReport,
    NormEstimate,
    dimension_free_check,
    duality_chain_check,
    hilbert_multiplier_operator,
    identity_depth_operator,
    identity_operator,
    lp_norm_estimate,
    matrix_operator,
    modulation_decay_experiment,
    riesz_vector_operator,
    run_duality_experiment,
    verify_lemma_hvs,
)

__version__ = "0.1.0"

_M_TOP_PAD = -2  # glibc's mallopt parameter number


def _keep_freed_heap():
    """Keep up to 32 MiB of freed heap in the process instead of giving it back.

    By default glibc returns the free top of the heap to the kernel after each
    large free, and the next operation faults the same pages back in, zeroed:
    a quarter of a lemma check's CPU time. mallopt is missing on macOS and
    Windows, where nothing is done, and is a stub on musl.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_TOP_PAD, 32 << 20)


_keep_freed_heap()

__all__ = [
    "GoldenMismatchError",
    "InvalidInputError",
    "ParseError",
    "ResourceLimitError",
    "DyadicNode",
    "HaarCoeffs",
    "basis_position",
    "coeff_inner",
    "cube_haar_eval",
    "haar_analyze",
    "haar_synthesize",
    "ShiftOperator",
    "apply_s0",
    "apply_sj",
    "operator_matrix",
    "signed_permutation",
    "ARC_NS",
    "ArcBundle",
    "TrigPoly",
    "arc_average",
    "arc_exp_integral",
    "arc_of_angle",
    "bundle_inner",
    "bundle_poly_inner",
    "directional_hilbert",
    "embed_variable",
    "inner_product",
    "quarter_arc_project",
    "riesz_apply",
    "square_wave",
    "square_wave_arc_values",
    "square_wave_exact",
    "EkSpaceElement",
    "EkTerm",
    "MartingaleBlock",
    "ModulatedSpectrum",
    "ScaledFrequency",
    "SignTossPath",
    "block_depth",
    "blocks_to_haar",
    "check_ek_membership",
    "coded_shift_blocks",
    "duality_transfer_check",
    "ek_to_trig_poly",
    "encode_path",
    "evaluate_blocks_at_path",
    "make_ek_element",
    "martingale_decompose",
    "modulate",
    "modulated_riesz_multiplier",
    "modulation_difference",
    "path_outcomes",
    "random_ek_element",
    "random_paths",
    "sliced_multiplier_apply",
    "DualityReport",
    "LemmaReport",
    "NormEstimate",
    "dimension_free_check",
    "duality_chain_check",
    "hilbert_multiplier_operator",
    "identity_depth_operator",
    "identity_operator",
    "lp_norm_estimate",
    "matrix_operator",
    "modulation_decay_experiment",
    "riesz_vector_operator",
    "run_duality_experiment",
    "verify_lemma_hvs",
    "__version__",
]
