import numpy as np
import pytest
from hypothesis import settings

from sqfluor.geometry import AtomCloud, BeamProfile, effective_area, fwhm_to_sigma, waist_fwhm_to_w0
from sqfluor.system import cs_preset, eta_prefactor

# Property tests repeat exactly (a fixed example sequence, so no example
# database is kept) and are never failed for running slowly on a loaded host.
settings.register_profile(
    "sqfluor", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("sqfluor")

# Shipped-config Cs rates: D1/D2 linewidths plus 7S partial rates scaled to
# the reference width ratio (see configs/cs_mot.json provenance).
CS_RATES = {
    "gamma_r": {
        "ba": 4.5612e6 * 2.0 * np.pi,
        "cb": 4.7772e6,
        "cd": 8.8060e6,
        "da": 5.2227e6 * 2.0 * np.pi,
    }
}

# MOT geometry from the case study: both FWHM 0.1 mm, 1e6 atoms.
MOT_CLOUD_FWHM = 0.1e-3
MOT_BEAM_FWHM = 0.1e-3
MOT_ATOMS = 1.0e6


@pytest.fixture(scope="session")
def cs_system():
    system, coupling = cs_preset(CS_RATES)
    return system, coupling


@pytest.fixture(scope="session")
def cs_eta(cs_system):
    system, coupling = cs_system
    return eta_prefactor(system, coupling)


@pytest.fixture(scope="session")
def mot_area(cs_system):
    system, _ = cs_system
    w0 = waist_fwhm_to_w0(MOT_BEAM_FWHM)
    beam = BeamProfile(w0, wavelength=895e-9)
    cloud = AtomCloud(fwhm_to_sigma(MOT_CLOUD_FWHM), MOT_ATOMS)
    return effective_area(beam, beam, cloud).a_eff
