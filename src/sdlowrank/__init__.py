"""Sigma-Delta quantization of linear matrix measurements and low-rank recovery.

The package is organized around a small pipeline:

* :mod:`sdlowrank.sigma_delta` turns a measurement vector into quantized
  values plus a bounded state sequence.
* :mod:`sdlowrank.noise_shaping` provides the difference operator, its
  inverse powers, and the leading singular pairs of D^{-r} that the
  stabilized decoder reads.
* :mod:`sdlowrank.sensing` draws seeded sub-Gaussian measurement operators.
* :mod:`sdlowrank.recovery` solves the constrained nuclear-norm program.
* :mod:`sdlowrank.encoding` compresses quantized measurements with a
  Bernoulli sketch and tracks the implied bit rate.
* :mod:`sdlowrank.harness` runs seeded experiment sweeps and writes CSV.
"""

from sdlowrank.sigma_delta import (
    Alphabet,
    QuantizationRun,
    SigmaDeltaScheme,
    build_alphabet,
    default_scheme,
    quantize,
    required_levels,
    state_residual,
)
from sdlowrank.noise_shaping import (
    NoiseShapingBasis,
    apply_difference,
    apply_inverse_power,
    compute_basis,
    project_shaped,
)
from sdlowrank.sensing import (
    MeasurementOperator,
    RipEstimate,
    apply,
    draw_operator,
    empirical_rip,
    gaussian_rank_k,
)
from sdlowrank.recovery import (
    RecoveryProblem,
    RecoverySolution,
    SolverParams,
    best_rank_k_error,
    check_feasibility,
    recover,
)
from sdlowrank.encoding import (
    EncodedMeasurements,
    draw_encoder,
    encode,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "SigmaDeltaScheme",
    "QuantizationRun",
    "build_alphabet",
    "default_scheme",
    "required_levels",
    "quantize",
    "state_residual",
    "NoiseShapingBasis",
    "apply_difference",
    "apply_inverse_power",
    "compute_basis",
    "project_shaped",
    "MeasurementOperator",
    "RipEstimate",
    "draw_operator",
    "apply",
    "empirical_rip",
    "gaussian_rank_k",
    "RecoveryProblem",
    "RecoverySolution",
    "SolverParams",
    "recover",
    "check_feasibility",
    "best_rank_k_error",
    "EncodedMeasurements",
    "draw_encoder",
    "encode",
    "__version__",
]
