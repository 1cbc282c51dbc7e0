"""Single-photon pulse shaping through finite-level open quantum systems.

Model a plant as a scattering matrix, a scalar-profile coupling vector and
a Hamiltonian; verify the algebraic conditions under which it responds
linearly to a single-photon input; and shape pulses through the resulting
one-pole transfer filters, including series composition and coherent
feedback reduction.

The package exports exactly the names in each module's ``__all__``.
"""

__version__ = "0.1.0"

from . import model, operators, oracles, pulses, transfer
from .model import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .oracles import *  # noqa: F401,F403
from .pulses import *  # noqa: F401,F403
from .transfer import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name for module in (operators, model, transfer, pulses, oracles) for name in module.__all__
]
