"""Kernel-times-envelope quadrature validated against dense brute force."""

import numpy as np
import pytest

from sqfluor.peaked import (
    NumericsOptions,
    abs2_green_kernel,
    green_kernel,
    lorentzian_kernel,
    quad_kernel_smooth,
)
from sqfluor.spectral import SpectralGrid, quad_1d

OPTS = NumericsOptions()


def brute(kernel, smooth, half, n=1_200_001):
    return quad_1d(lambda w: kernel(w) * smooth(w), SpectralGrid(0.0, half, n))


def bumpy_gaussian(width):
    return lambda w: np.exp(-(w * w) / (2.0 * width**2)) * (1.0 + 0.2 * np.sin(3.0 * w / width))


@pytest.mark.parametrize("make", [green_kernel, lorentzian_kernel, abs2_green_kernel])
def test_gaussian_moments_match_brute_force(make):
    kernel = make(0.0, 0.7)
    window = 5.0
    m0, m1 = kernel.gaussian_moments(window)
    g = lambda w: np.exp(-(w * w) / (2.0 * window**2))
    b0 = brute(kernel, g, 60.0, 400_001)
    b1 = brute(kernel, lambda w: w * g(w), 60.0, 400_001)
    assert m0 == pytest.approx(b0, rel=1e-9, abs=0.0)
    assert m1 == pytest.approx(b1, rel=1e-9, abs=1e-12 * abs(b0))


@pytest.mark.parametrize("make", [green_kernel, lorentzian_kernel, abs2_green_kernel])
def test_broadband_extraction_matches_brute(make):
    width = 100.0
    kernel = make(0.0, 1.0)  # narrow core: extraction path
    smooth = bumpy_gaussian(width)
    value = quad_kernel_smooth(kernel, smooth, 0.0, width, opts=OPTS)
    reference = brute(kernel, smooth, 9 * width, 4_000_001)
    assert value == pytest.approx(reference, rel=2e-5)


def test_narrowband_plain_path_matches_brute():
    width = 0.01
    kernel = green_kernel(0.0, 1.0)  # kernel much wider than the envelope
    smooth = bumpy_gaussian(width)
    value = quad_kernel_smooth(kernel, smooth, 0.0, width, opts=OPTS)
    reference = brute(kernel, smooth, 9 * width, 400_001)
    assert value == pytest.approx(reference, rel=1e-6)


def test_paths_agree_at_the_switchover():
    # gamma around width/4 flips between extraction and plain Simpson; both
    # must agree with brute force.
    width = 10.0
    smooth = bumpy_gaussian(width)
    for gamma in (width / 4.5, width / 3.5):
        kernel = green_kernel(0.0, gamma)
        value = quad_kernel_smooth(kernel, smooth, 0.0, width, opts=OPTS)
        reference = brute(kernel, smooth, 9 * width, 1_200_001)
        assert value == pytest.approx(reference, rel=5e-5)


def test_offset_kernel_center():
    width = 50.0
    kernel = green_kernel(17.0, 0.5)
    smooth = bumpy_gaussian(width)
    value = quad_kernel_smooth(kernel, smooth, 0.0, width, opts=OPTS)
    reference = brute(kernel, smooth, 9 * width, 2_400_001)
    assert value == pytest.approx(reference, rel=5e-5)


def test_complex_envelope():
    width = 40.0
    kernel = green_kernel(0.0, 0.5)
    smooth = lambda w: np.exp(-(w * w) / (2.0 * width**2)) * np.exp(0.4j * w / width)
    value = quad_kernel_smooth(kernel, smooth, 0.0, width, opts=OPTS)
    reference = brute(kernel, smooth, 9 * width, 2_400_001)
    assert value == pytest.approx(reference, rel=5e-5)


def test_kernel_validation():
    with pytest.raises(ValueError):
        green_kernel(0.0, 0.0)
    from sqfluor.peaked import PeakedKernel

    with pytest.raises(ValueError):
        PeakedKernel("unknown", 0.0, 1.0)


@pytest.mark.parametrize("center, gamma", [(0.0, 0.7), (2.105e15, 3.0e7), (1.385e15, 2.9e7)])
def test_kernels_evaluate_the_spectral_lineshapes_bit_for_bit(center, gamma):
    # One formula per kernel: the green and lorentzian kinds are the
    # spectral-module functions themselves, not copies of their formulas.
    from sqfluor.spectral import GreenFunctionParams, LorentzianLineshape, green, lorentzian

    w = center + np.linspace(-50.0, 50.0, 20_001) * gamma
    assert np.array_equal(
        green_kernel(center, gamma)(w), green(w, GreenFunctionParams(center, gamma))
    )
    assert np.array_equal(
        lorentzian_kernel(center, gamma)(w), lorentzian(w, LorentzianLineshape(center, gamma))
    )
