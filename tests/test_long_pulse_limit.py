"""The pulsed engine tends to the CW engine in the long-pulse limit, on two-photon resonance.

As sigma_p -> 0 at fixed sigma_c the pulse grows long against the pair
coherence time, and at each instant it is a CW source at the local pump
strength.  With sigma_c_bar = sigma_c / sqrt(2) and the envelope
beta_bar(t) = beta_bar0 exp(-sigma_p^2 t^2), beta_bar0 chosen so that
Int photon_rate(beta_bar(t)) dt = N(beta),

    p_sq,coh(beta) -> Int r_sq,coh(beta_bar(t)) dt,
    p_sq,inc(beta) -> Int r_sq,inc(beta_bar(t)) dt,

and beta_bar0 -> r0 = beta sqrt(1 - mu).  At low gain this is the
entangled two-photon cross-section's pair-flux form (Fei et al., PRL 78,
1679 (1997)).  The two engines share no table: the pulsed one reads Mehler
tables of the Schmidt gains, the CW one Faddeeva values and one K x K
table per column.  Here sigma_c = Gamma_b, the sources sit on both lines,
N(beta) is the pulsed engine's own photon number and the CW side reads
one `CwExcitationEngine` along the envelope.  The time integrals take a
Gauss-Hermite rule in u = sigma_p t.  Each gap pulsed/CW - 1 is second
order in sigma_p: from sigma_c/sigma_p = 1e3 to 1e5 it must fall by at
least 50x per decade, or be below 1e-9.  At sigma_c = 0.3 and 10 Gamma_b
the gaps at 1e3 reach 4.6e-6 and 4.3e-3, so there only their fall is
held; these bandwidths take the error-function kernels
(`sqfluor.special`) over wider arguments than the shipped panels do.
One-photon detuned centres, c_I = omega_ba + 0.7 Gamma_b and c_II =
omega_cb - 0.7 Gamma_b (still on two-photon resonance), put the Green
pole off the band centre in both engines; their gaps at 1e3 reach 3.9e-5.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from sqfluor.cli import _beta_for_photons
from sqfluor.excitation import CwExcitationEngine, PulsedExcitationEngine
from sqfluor.sources import SqueezedCW, SqueezedPulsed, photon_rate_cw

RATIOS = (1e3, 1e4, 1e5)  # sigma_c / sigma_p
BANDWIDTHS = (0.3, 10.0)  # sigma_c / Gamma_b besides 1
PHOTONS = (0.1, 10.0, 1000.0)
R0_MAX = math.asinh(math.sqrt(max(PHOTONS)))

# Gauss-Hermite nodes and weights for the weight e^(-v^2), v = sqrt(2) u:
# every rate is a sum of e^(-2 j u^2), j >= 1, so the weighted integrand is
# smooth.  120 nodes agree with 240 to 1e-15 in every gap.
NODES, WEIGHTS = np.polynomial.hermite.hermgauss(120)
ENVELOPE = np.exp(-0.5 * NODES * NODES)  # beta_bar(t) / beta_bar0
RULE = WEIGHTS * np.exp(NODES * NODES) / math.sqrt(2.0)  # for Int du


def over_the_pulse(read, beta_bar0: float, sigma_p: float) -> float:
    """Int read(beta_bar(t)) dt for the envelope beta_bar0 e^(-sigma_p^2 t^2)."""
    return float(RULE @ [read(beta_bar0 * e) for e in ENVELOPE]) / sigma_p


def column_and_pulses(system, eta, area, sigma_c, detuning=0.0):
    """The CW column engine at sigma_c_bar = sigma_c / sqrt(2), and one pulsed engine per ratio.

    Band I is centred `detuning` above omega_ba and band II as far below
    omega_cb, so that their sum stays on omega_ca.
    """
    center_i, center_ii = system.omega_ba + detuning, system.omega_cb - detuning
    column = SqueezedCW(5.0, sigma_c / math.sqrt(2.0), center_i, center_ii)
    cw = CwExcitationEngine(column, system, eta, area)
    pulsed = {
        ratio: PulsedExcitationEngine(
            SqueezedPulsed(sigma_c / ratio, sigma_c, center_i, center_ii),
            system, eta, area, r0_max=R0_MAX,
        )
        for ratio in RATIOS
    }
    return cw, pulsed


@pytest.fixture(scope="module")
def engines(cs_system, cs_eta, mot_area):
    return column_and_pulses(cs_system[0], cs_eta, mot_area, cs_system[0].gamma_b)


@pytest.fixture(scope="module")
def detuned_engines(cs_system, cs_eta, mot_area):
    system = cs_system[0]
    return column_and_pulses(system, cs_eta, mot_area, system.gamma_b, 0.7 * system.gamma_b)


@pytest.fixture(scope="module", params=BANDWIDTHS)
def other_engines(request, cs_system, cs_eta, mot_area):
    system = cs_system[0]
    return column_and_pulses(system, cs_eta, mot_area, request.param * system.gamma_b)


def gaps(cw, engine, n_photons):
    """(coherent, incoherent, beta_bar0 / r0 - 1) of one pulsed engine at N photons per pulse."""
    sigma_p = engine.src.sigma_p
    beta = _beta_for_photons(engine, n_photons)
    n_beta = engine.photon_number(beta)
    r0 = beta * engine.sqrt_p0

    def photons(beta_bar0):
        return over_the_pulse(
            lambda b: photon_rate_cw(replace(cw.src, beta_bar=b), cw), beta_bar0, sigma_p
        )

    beta_bar0 = scipy.optimize.brentq(
        lambda b: photons(b) - n_beta, 0.5 * r0, min(2.0 * r0, cw.beta_bar_max), rtol=1e-15
    )
    coherent = over_the_pulse(lambda b: cw.outcome(b).coherent, beta_bar0, sigma_p)
    incoherent = over_the_pulse(lambda b: cw.outcome(b).incoherent, beta_bar0, sigma_p)
    out = engine.outcome(beta)
    return out.coherent / coherent - 1.0, out.incoherent / incoherent - 1.0, beta_bar0 / r0 - 1.0


def assert_second_order(measured):
    """Each gap falls by at least 50x per decade of sigma_c/sigma_p, or ends below 1e-9."""
    for ratio, (_, _, pump) in zip(RATIOS, measured):
        assert abs(pump) <= 2.0 / ratio
    for name, column in (("coherent", 0), ("incoherent", 1)):
        gap = [abs(m[column]) for m in measured]
        for longer, shorter in zip(gap[1:], gap):
            assert longer <= shorter / 50.0 or longer < 1e-9, (name, gap)


def assert_limit(cw, pulsed, n_photons):
    """Second order, and every gap at sigma_c/sigma_p = 1e3 below 1e-4."""
    measured = [gaps(cw, pulsed[ratio], n_photons) for ratio in RATIOS]
    assert_second_order(measured)
    for name, column in (("coherent", 0), ("incoherent", 1)):
        assert abs(measured[0][column]) < 1e-4, (name, measured)


@pytest.mark.parametrize("n_photons", PHOTONS)
def test_pulsed_rates_tend_to_the_cw_rates_over_the_envelope(engines, n_photons):
    assert_limit(*engines, n_photons)


@pytest.mark.parametrize("n_photons", PHOTONS)
def test_one_photon_detuned_rates_tend_to_the_cw_rates_over_the_envelope(
    detuned_engines, n_photons
):
    assert_limit(*detuned_engines, n_photons)


@pytest.mark.parametrize("n_photons", PHOTONS)
def test_other_bandwidths_tend_to_the_cw_rates_over_the_envelope(other_engines, n_photons):
    cw, pulsed = other_engines
    assert_second_order([gaps(cw, pulsed[ratio], n_photons) for ratio in RATIOS])
