"""Desk-scale laboratory for Landau damping in the Vlasov--Poisson equation.

Modules:

* ``models``  -- equilibrium profiles, interaction potentials, hypothesis checks
* ``linear``  -- memory kernel, Volterra mode equation, stability scans, rates
* ``sim``     -- nonlinear 1D1V split-step spectral simulator and observables
* ``norms``   -- gliding hybrid analytic norms and spatial mode norms
* ``echoes``  -- plasma-echo timing predictions, two-pulse experiments
* ``cli``     -- batch experiment runner (``landau-lab run/certify/sweep``)
"""

from .errors import (
    ConfigError,
    DivergenceError,
    LandauLabError,
    NumericError,
    StabilityGapError,
)
from .models import (
    Interaction,
    VelocityProfile,
    bi_maxwellian,
    builtin_interaction,
    builtin_profile,
    bump_on_tail,
    maxwellian,
    verify_analyticity,
    verify_decay,
    zero_interaction,
)

__version__ = "0.1.0"
