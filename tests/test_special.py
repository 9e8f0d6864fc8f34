"""The error-function kernels of `sqfluor.special` against 30-digit mpmath and `scipy.special`.

Each kernel is held to mpmath at a relative bound, with scipy's as a
second reference, on

- the arguments that every table of the shipped and benchmark panels
  visits, captured through the engines: all of them against scipy; the
  CW columns' Faddeeva arguments all against mpmath, and of the rest a
  sorted subsample and the ones furthest from scipy;
- log grids from 1e-10 to 1e8;
- complex regions: |z| < 6, the strip 0 < Im z < 0.05, Re z and Im z up
  to 60 and up to 1e3, |z| > 1e3, and Im z < 0.

ERFCX_BOUND = 1e-15 is set by the A_eff oracle (`tests/test_geometry.py`,
1e-15 for unequal and collimated beams): it magnifies an erfcx error
where two of its values nearly cancel, and a kernel 2-3.5e-15 off failed
eight of its cases.  scipy's own kernels are off mpmath by up to 8.9e-16
(erfcx) and 1.3e-14 (wofz, |z| < 6).  Below the real axis w(z) = 2 e^(-z^2) -
w(-z), which cancels near the zeros of w, so there the error is measured
against |2 e^(-z^2)| + |w(-z)|, and e^(-z^2) carries the rounding of
z^2.  The last tests perturb one coefficient of a kernel by 2e-15 (its
last digits) and expect these checks to fail.
"""

import ast
import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special

import sqfluor.cli as cli
import sqfluor.excitation as excitation
import sqfluor.geometry as geometry
from sqfluor import special
from sqfluor.config import load_config

REPO = Path(__file__).resolve().parent.parent

ERFCX_BOUND = 1e-15
WOFZ_BOUND = 1e-15
# Below the axis e^(-z^2) carries the rounding of z^2, up to |z|^2 ulp.
WOFZ_BELOW_BOUND = 5e-15
# scipy is a second reference: the kernels may differ from it by its own
# error plus theirs.
SCIPY_SLACK = 1e-15
SCIPY_WOFZ_SLACK = 2e-14


def _digits(x: float) -> int:
    """Working digits for e^(x^2)-sized factors of |x|: 30 more than x^2 has before the point."""
    return 30 + 2 * max(0, math.ceil(math.log10(abs(x)))) if x else 30


def mp_erfcx(x: float) -> float:
    with mpmath.workdps(_digits(x)):
        x = mpmath.mpf(x)
        return float(mpmath.exp(x * x) * mpmath.erfc(x))


def mp_wofz(z: complex) -> complex:
    with mpmath.workdps(_digits(abs(z))):
        z = mpmath.mpc(z)
        return complex(mpmath.exp(-z * z) * mpmath.erfc(-1j * z))


def worst(values, reference, scale=None) -> float:
    """max |values - reference| / scale, scale |reference| by default."""
    values, reference = np.asarray(values), np.asarray(reference)
    scale = np.abs(reference) if scale is None else np.asarray(scale)
    return float(np.max(np.abs(values - reference) / scale))


def subsample(x, near) -> np.ndarray:
    """300 quantiles of the unique x, its ends, and the 100 x where `near` is largest."""
    unique = np.unique(x)
    picks = unique[np.linspace(0, len(unique) - 1, 300).round().astype(int)]
    return np.unique(np.concatenate([picks, x[np.argsort(near)[-100:]]]))


def sweepbench_source(name: str) -> dict:
    """A source dict of sweepbench/run.py, read from its source without importing it."""
    tree = ast.parse((REPO / "sweepbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"sweepbench/run.py defines no {name}")


@pytest.fixture(scope="module")
def table_arguments(tmp_path_factory):
    """{kernel: arguments} of every call the sweeps make, captured at the engines' imports.

    The shipped pulsed sweep with sigma_c/sigma_p = 30 added takes every
    pulsed panel of the shipped config and of sweepbench (whose photon
    range it shares); the shipped CW sweep and sweepbench's cw-mot range
    take the CW columns.
    """
    tmp = tmp_path_factory.mktemp("special")
    captured = {"erfcx": [], "wofz": [], "population wofz": []}

    def recording(name, kernel):
        def recorded(x):
            # w's calls are kept by caller: the CW columns' few apart from
            # the population table's many.
            if name == "wofz":
                caller = sys._getframe(1).f_code.co_name
                key = {"_cw_faddeeva": "wofz", "_population_table": "population wofz"}[caller]
            else:
                key = name
            captured[key].append(np.array(x).ravel())
            return kernel(x)
        return recorded

    pulsed = json.loads((REPO / "configs" / "cs_mot_pulsed_sweep.json").read_text())
    pulsed["source"]["sigma_c_over_sigma_p"] = [1.0, 10.0, 30.0, 100.0]
    cw_bench = json.loads((REPO / "configs" / "cs_mot_cw_sweep.json").read_text())
    source = sweepbench_source("CW_SOURCE")
    lo_key, lo, hi_key, hi = source.pop("range")
    cw_bench["source"] = {**source, lo_key: lo, hi_key: hi}
    configs = [REPO / "configs" / "cs_mot_cw_sweep.json"]
    for name, raw in (("pulsed", pulsed), ("cw_bench", cw_bench)):
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(raw))
        configs.append(path)
    with pytest.MonkeyPatch.context() as patch:
        for name in ("erfcx", "wofz"):
            patch.setattr(excitation, name, recording(name, getattr(special, name)))
        patch.setattr(geometry, "erfcx", recording("erfcx", special.erfcx))
        for path in configs:
            cfg = load_config(path)
            run = cli.run_cw_sweep if cfg.source["regime"] == "squeezed_cw" else cli.run_pulsed_sweep
            assert all(row["validity"] != "failed" for row in run(cfg))
    return {name: np.concatenate(arrays) for name, arrays in captured.items()}


class TestTableArguments:
    def test_erfcx(self, table_arguments):
        x = table_arguments["erfcx"]
        assert x.size > 1e6 and x.min() >= 0.0
        ours, theirs = special.erfcx(x), scipy.special.erfcx(x)
        assert worst(ours, theirs) <= ERFCX_BOUND + SCIPY_SLACK
        picked = subsample(x, np.abs(ours / theirs - 1.0))
        reference = [mp_erfcx(v) for v in picked]
        assert worst(special.erfcx(picked), reference) <= ERFCX_BOUND

    def test_wofz_on_the_imaginary_axis(self, table_arguments):
        # Every CW column, and every population table on resonance (w(0) and
        # w(iu)), evaluates w on the imaginary axis, where it is erfcx.
        cw, population = table_arguments["wofz"], table_arguments["population wofz"]
        assert cw.size > 100 and np.all(cw.real == 0.0) and np.all(cw.imag > 0.0)
        assert population.size > 1e4 and np.all(population.real == 0.0) and np.all(population.imag >= 0.0)
        z = np.concatenate([cw, population])
        ours = special.wofz(z)
        assert np.all(ours.imag == 0.0)
        assert np.array_equal(ours.real, special.erfcx(z.imag))
        theirs = scipy.special.wofz(z)
        assert worst(ours, theirs) <= ERFCX_BOUND + SCIPY_SLACK
        # Every CW argument against mpmath; of the population table's, a subsample.
        near = np.abs(ours / theirs - 1.0)[cw.size:]
        picked = np.concatenate([cw, 1j * subsample(population.imag, near)])
        assert worst(special.wofz(picked), [mp_wofz(v) for v in picked]) <= ERFCX_BOUND


LOG_GRID = np.logspace(-10.0, 8.0, 361)


class TestRealGrids:
    def test_erfcx_on_a_log_grid(self):
        x = np.concatenate([[0.0], LOG_GRID])
        reference = [mp_erfcx(v) for v in x]
        assert worst(special.erfcx(x), reference) <= ERFCX_BOUND
        assert worst(special.erfcx(x), scipy.special.erfcx(x)) <= ERFCX_BOUND + SCIPY_SLACK

    def test_erfcx_of_negative_arguments(self):
        # erfcx(x) = 2 e^(x^2) - erfcx(-x), to x = -26 where e^(x^2) nears the
        # top of a double.  The rounding of x^2 moves e^(x^2) by up to x^2
        # ulp, within the function's own condition number 2 x^2.
        x = -np.logspace(-10.0, math.log10(26.0), 121)
        reference = np.array([mp_erfcx(v) for v in x])
        scale = np.abs(reference) * np.maximum(1.0, 2.0 * x * x)
        assert worst(special.erfcx(x), reference, scale) <= ERFCX_BOUND

    def test_scalars_and_shapes(self):
        assert special.erfcx(2.0).shape == () and float(special.erfcx(np.inf)) == 0.0
        assert special.erfcx(np.ones((2, 3))).shape == (2, 3)
        assert np.isnan(special.erfcx(np.nan))
        assert special.wofz(np.zeros((4, 1), dtype=complex)).shape == (4, 1)


def _upper(rng, count, re_max, im_lo, im_hi):
    return rng.uniform(-re_max, re_max, count) + 1j * rng.uniform(im_lo, im_hi, count)


def _disc(rng, count, radius, lower=False):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    angle = rng.uniform(-np.pi, 0.0, count) if lower else rng.uniform(0.0, np.pi, count)
    return r * np.exp(1j * angle)


REGIONS = {
    "|z| < 6": lambda rng: _disc(rng, 200, 6.0),
    "0 < Im z < 0.05": lambda rng: _upper(rng, 200, 6.0, 0.0, 0.05),
    "Re z, Im z up to 60": lambda rng: _upper(rng, 200, 60.0, 0.0, 60.0),
    "Re z, Im z up to 1e3": lambda rng: _upper(rng, 200, 1e3, 0.0, 1e3),
    "|z| > 1e3": lambda rng: 10.0 ** rng.uniform(3.0, 6.0, 200) * np.exp(1j * rng.uniform(0.0, np.pi, 200)),
}


class TestWofz:
    @pytest.mark.parametrize("region", REGIONS)
    def test_upper_half_plane(self, region):
        z = REGIONS[region](np.random.default_rng(sorted(REGIONS).index(region)))
        ours = special.wofz(z)
        assert worst(ours, [mp_wofz(v) for v in z]) <= WOFZ_BOUND
        assert worst(ours, scipy.special.wofz(z)) <= WOFZ_BOUND + SCIPY_WOFZ_SLACK

    def test_below_the_real_axis(self):
        # |z| < 6 and a strip just below the axis; scale |2 e^(-z^2)| + |w(-z)|.
        rng = np.random.default_rng(7)
        z = np.concatenate([_disc(rng, 200, 6.0, lower=True), _upper(rng, 100, 6.0, -0.05, 0.0)])
        scale = np.abs(2.0 * np.exp(-z * z)) + np.abs(scipy.special.wofz(-z))
        ours = special.wofz(z)
        assert worst(ours, [mp_wofz(v) for v in z], scale) <= WOFZ_BELOW_BOUND
        assert worst(ours, scipy.special.wofz(z), scale) <= WOFZ_BELOW_BOUND + SCIPY_WOFZ_SLACK

    def test_real_and_imaginary_axes(self):
        x = np.concatenate([np.linspace(-8.0, 8.0, 161), [3e3, -3e4]])
        ours = special.wofz(x + 0j)
        assert worst(ours, [mp_wofz(v) for v in x]) <= WOFZ_BOUND
        y = np.linspace(-5.0, 30.0, 141)
        assert worst(special.wofz(1j * y), [mp_wofz(1j * v) for v in y]) <= ERFCX_BOUND


class TestMutations:
    """A coefficient perturbed in its last digits fails the checks above."""

    def test_an_erfcx_piece(self, monkeypatch):
        # The piece that x = 1 reads (y = 1/2), its value moved by 2e-15.
        piece = round(0.5 * special.ERFCX_PIECES)
        c0 = special._C0.copy()
        c0[piece] *= 1.0 + 2e-15
        monkeypatch.setattr(special, "_C0", c0)
        x = np.array([1.0])
        assert worst(special.erfcx(x), [mp_erfcx(1.0)]) > ERFCX_BOUND

    def test_a_series_coefficient(self, monkeypatch):
        coefficients = special._COEFFICIENTS.copy()
        coefficients[-2] *= 1.0 + 2e-15
        monkeypatch.setattr(special, "_COEFFICIENTS", coefficients)
        z = REGIONS["|z| < 6"](np.random.default_rng(sorted(REGIONS).index("|z| < 6")))
        assert worst(special.wofz(z), [mp_wofz(v) for v in z]) > WOFZ_BOUND
