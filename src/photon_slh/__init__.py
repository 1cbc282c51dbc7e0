"""Single-photon pulse shaping through finite-level open quantum systems.

Model a plant as a scattering matrix, a scalar-profile coupling vector and
a Hamiltonian; verify the algebraic conditions under which it responds
linearly to a single-photon input; and shape pulses through the resulting
one-pole transfer filters, including series composition and coherent
feedback reduction.
"""

__version__ = "0.1.0"

from .operators import (
    Operator,
    commutator,
    embed_site,
    ground_state,
    identity,
    sigma_minus,
    sigma_plus,
    sigma_z,
    zero,
)
from .model import (
    ConditionReport,
    DerivedParams,
    ModelValidationError,
    SingularLoopError,
    SLHModel,
    ValidationReport,
    feedback_reduce,
    feedback_shift,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    series_product,
    validate_model,
)
from .transfer import (
    FilterStage,
    PhotonTransfer,
    from_model,
)
from .pulses import (
    GridSpanError,
    Pulse,
    PulseSpec,
    TimeGrid,
    decaying_exp_pulse,
    gaussian_pulse,
    read_pulse_csv,
    rising_exp_pulse,
    shape_fft,
    shape_ode,
    square_pulse,
    write_pulse_csv,
)
from .oracles import (
    TwoLevelParams,
    feedback_g,
    memory_g,
    memory_kernel,
    two_channel_g,
    two_level_g,
)

__all__ = [
    "__version__",
    # operators
    "Operator",
    "identity",
    "zero",
    "sigma_z",
    "sigma_plus",
    "sigma_minus",
    "ground_state",
    "commutator",
    "embed_site",
    # model
    "SLHModel",
    "DerivedParams",
    "ConditionReport",
    "ValidationReport",
    "ModelValidationError",
    "SingularLoopError",
    "validate_model",
    "series_product",
    "feedback_reduce",
    "feedback_shift",
    "model_to_dict",
    "model_from_dict",
    "load_model",
    "save_model",
    # transfer
    "FilterStage",
    "PhotonTransfer",
    "from_model",
    # pulses
    "TimeGrid",
    "Pulse",
    "PulseSpec",
    "GridSpanError",
    "gaussian_pulse",
    "decaying_exp_pulse",
    "rising_exp_pulse",
    "square_pulse",
    "shape_fft",
    "shape_ode",
    "read_pulse_csv",
    "write_pulse_csv",
    # oracles
    "TwoLevelParams",
    "two_level_g",
    "two_channel_g",
    "memory_g",
    "memory_kernel",
    "feedback_g",
]
