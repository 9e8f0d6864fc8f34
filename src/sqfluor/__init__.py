"""Two-photon excitation and fluorescence of a four-level emitter.

Computes excitation probabilities/rates, fluorescence counts and the
peak intermediate-state population for classical or non-degenerate
squeezed light (CW and pulsed), including the Cs-MOT example system and
its analytic limits.  `energy_ledger` also books the scattered and
absorbed energy of time-integrated populations the caller supplies; no
command computes it, and its b-level term is whatever the caller passes.
"""

from .excitation import (
    EnergyLedger,
    ExcitationOutcome,
    FluorescenceResult,
    energy_ledger,
    fluorescence,
    matched_classical_cw,
    matched_classical_pulsed,
    max_intermediate_population,
    p_classical_pulsed,
    p_squeezed_pulsed,
    rate_classical_cw,
    rate_squeezed_cw,
)
from .geometry import AtomCloud, BeamProfile, EffectiveArea, effective_area
from .sources import (
    ClassicalCW,
    ClassicalPulsed,
    SchmidtDecomposition,
    SqueezedCW,
    SqueezedPulsed,
    jsa_eval,
    photon_number_pulsed,
    photon_rate_cw,
    schmidt_decompose_analytic,
)
from .spectral import (
    GaussianAmplitude,
    GreenFunctionParams,
    LorentzianLineshape,
    SpectralGrid,
    green,
    lorentzian,
)
from .system import (
    CrossSectionPrefactor,
    DipoleCoupling,
    FourLevelSystem,
    cross_section,
    cs_preset,
    dipole_from_rate,
    eta_prefactor,
    radiative_rate,
)

__version__ = "0.1.0"
