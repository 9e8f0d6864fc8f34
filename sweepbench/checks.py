"""Correctness checks on sweep CSV rows, computed without importing sqfluor.

Each check compares rows with an independent computation (a closed form or a
series) or with a property the method must have.  Tolerances follow from the
method's stated accuracy: the quadrature `rel_tol`, the pulsed outer-sampling
`sample_rel_tol`, or the order of the neglected terms of a limiting form.

`check_cw` and `check_pulsed` return {check name: set of failing row indices};
a check over a group of rows (a slope, a constant ratio) marks every row of
the group it rejects.
"""

from __future__ import annotations

import csv
import math

TWO_PI = 2.0 * math.pi

# Rounding tolerance for identities the program evaluates in a fixed order
# (a product of three factors, a sum of two terms, a quotient).
ROUNDING = 1e-12


def read_rows(path) -> list[dict]:
    """CSV body as dicts; numeric cells become floats, flags stay strings."""
    with open(path, newline="") as handle:
        body = [line for line in handle if not line.startswith("#")]
    rows = []
    for raw in csv.DictReader(body):
        row = {}
        for key, value in raw.items():
            try:
                row[key] = float(value)
            except ValueError:
                row[key] = value
        rows.append(row)
    return rows


def parse_rate(text: str) -> float:
    """Angular rate from the config strings the benchmark writes."""
    value, unit = text.split()
    scale = {"rad/s": 1.0, "MHz": TWO_PI * 1e6}[unit]
    return float(value) * scale


def system_rates(config: dict) -> dict:
    """Linewidths and the c -> d -> a fluorescence branching from a config."""
    radiative = {t: parse_rate(v) for t, v in config["system"]["gamma_r"].items()}
    nonradiative = {t: parse_rate(v) for t, v in config["system"].get("gamma_nr", {}).items()}
    g = {t: rate + nonradiative.get(t, 0.0) for t, rate in radiative.items()}
    gamma_c = g["cb"] + g["cd"]
    return {
        "gamma_b": g["ba"],
        "gamma_c": gamma_c,
        "branch": (g["cd"] / gamma_c) * (radiative["da"] / g["da"]),
        "n_atoms": float(config["geometry"]["n_atoms"]),
    }


def _rel(a: float, b: float) -> float:
    return abs(a / b - 1.0) if b != 0.0 else math.inf


def photon_rate_series(beta_bar: float, sigma: float) -> float:
    """(1/2pi) sum_k (2 beta)^(2k) / (2 (2k)!) * sigma sqrt(pi/k).

    The exact rate Int dw/2pi sinh^2(beta exp(-(w-w0)^2 / (2 sigma^2))):
    sinh^2 y = sum_k (2y)^(2k) / (2 (2k)!) and each power of the Gaussian
    integrates to sigma sqrt(pi/k).  Terms are summed in log form so large
    gains do not overflow; the sum stops once terms no longer add.
    """
    if beta_bar == 0.0:
        return 0.0
    log_2b = math.log(2.0 * beta_bar)
    total = 0.0
    k = 1
    while True:
        term = math.exp(2 * k * log_2b - math.lgamma(2 * k + 1) - math.log(2.0))
        term *= sigma * math.sqrt(math.pi / k)
        total += term
        if k > 2.0 * beta_bar + 4 and term < 1e-17 * total:
            return total / TWO_PI
        k += 1


def narrowband_ratio_limit(beta_bar: float, n_points: int = 20001) -> float:
    """1 + (Int s c / Int s^2)^2, the squeezed/classical ratio as sigma_c_bar -> 0.

    With the source narrower than both atomic lines, the incoherent rate
    equals the matched classical one and the coherent rate exceeds it by
    (Int s c)^2 / (Int s^2)^2, which tends to 1 at high gain, so the ratio
    tends to 2.  Trapezoid rule over +/-12 envelope widths; the Gaussian
    integrands make it exact to rounding there.
    """
    lo, hi = -12.0, 12.0
    step = (hi - lo) / (n_points - 1)
    sum_sc = sum_ss = 0.0
    for i in range(n_points):
        x = lo + i * step
        y = beta_bar * math.exp(-0.5 * x * x)
        s = math.sinh(y)
        weight = 0.5 if i in (0, n_points - 1) else 1.0
        sum_sc += weight * s * math.cosh(y)
        sum_ss += weight * s * s
    return 1.0 + (sum_sc / sum_ss) ** 2


def _add(failures: dict, name: str, indices) -> None:
    failures.setdefault(name, set()).update(indices)


def check_cw(rows: list[dict], config: dict) -> dict:
    """CW sweep checks; config is the generated sqfluor config."""
    rates = system_rates(config)
    gamma_b, gamma_c = rates["gamma_b"], rates["gamma_c"]
    scale_bn = rates["branch"] * rates["n_atoms"]
    rel_tol = float(config["numerics"]["rel_tol"])
    failures: dict = {}

    classical_unit = []
    for i, row in enumerate(rows):
        if row["validity"] == "failed":
            _add(failures, "validity_failed", [i])
            continue
        ratio = row["sigma_c_over_gamma_b"]
        sigma = ratio * gamma_b
        beta = row["beta_bar"]
        rate = row["photon_rate_per_s"]
        coh, inc, tot = row["r_sq_coherent"], row["r_sq_incoherent"], row["r_sq_total"]
        r_cl = row["r_classical"]

        # The rate quadrature is converged to rel_tol.
        if not _rel(rate, photon_rate_series(beta, sigma)) <= rel_tol:
            _add(failures, "photon_rate_series", [i])

        if not (
            _rel(tot, coh + inc) <= ROUNDING
            and _rel(row["ratio_sq_over_cl"], tot / r_cl) <= ROUNDING
            and _rel(row["ratio_coh_over_incoh"], coh / inc) <= ROUNDING
        ):
            _add(failures, "split_sums", [i])

        if not (
            _rel(row["R_fluor_classical"], r_cl * scale_bn) <= ROUNDING
            and _rel(row["R_fluor_sq_total"], tot * scale_bn) <= ROUNDING
        ):
            _add(failures, "fluorescence_branching", [i])

        if ratio >= 100.0:
            # Broadband closed forms; the Lorentzian tails of |G_ba|^2 and L
            # add first-order terms of relative size ~Gamma/sigma_c_bar that
            # the closed forms drop.  Allow half of Gamma_b/sigma_c_bar.
            expected = (gamma_b / gamma_c) * (1.0 + 1.0 / math.sinh(beta) ** 2)
            if not _rel(row["ratio_coh_over_incoh"], expected) <= 0.5 * gamma_b / sigma:
                _add(failures, "broadband_ratio", [i])

        if ratio <= 0.01 and beta >= 5.0:
            # Narrowband limit; the finite source width enters at second
            # order in sigma_c_bar / Gamma_c.
            tol = 2.0 * (sigma / gamma_c) ** 2
            if not _rel(row["ratio_sq_over_cl"], narrowband_ratio_limit(beta)) <= tol:
                _add(failures, "narrowband_factor_two", [i])

        classical_unit.append((i, r_cl / rate**2))

    # The matched classical rate is F_I F_II sigma(w_ba, w_cb) with
    # F = rate/A_eff and fixed centres: r_classical / rate^2 is one constant
    # for every row (so within each column).  Band I and band II rates come
    # from two quadratures, each within rel_tol.
    if classical_unit:
        values = sorted(v for _, v in classical_unit)
        reference = values[len(values) // 2]
        bad = [i for i, v in classical_unit if not _rel(v, reference) <= 2.0 * rel_tol]
        if bad:
            _add(failures, "classical_scaling", bad)
    return failures


def _panels(rows: list[dict]) -> dict:
    panels: dict = {}
    for i, row in enumerate(rows):
        key = (row["sigma_p_over_gamma_b"], row["sigma_c_over_sigma_p"])
        panels.setdefault(key, []).append(i)
    return panels


# Low-gain window of the slope check: photons per pulse at most this.
LOW_GAIN_MAX = 0.1


def check_pulsed(rows: list[dict], config: dict) -> dict:
    """Pulsed sweep checks; config is the generated sqfluor config."""
    rates = system_rates(config)
    scale_bn = rates["branch"] * rates["n_atoms"]
    # Each outer-sampling ladder stops once two levels agree to sample_rel_tol,
    # so two independently converged probabilities differ by up to twice that.
    sampling = 2.0 * float(config["numerics"]["sample_rel_tol"])
    failures: dict = {}

    for i, row in enumerate(rows):
        if row["validity"] == "failed":
            _add(failures, "validity_failed", [i])
            continue
        if not _rel(
            row["n_fluor_sq_total"], row["n_fluor_sq_coherent"] + row["n_fluor_sq_incoherent"]
        ) <= ROUNDING:
            _add(failures, "split_sums", [i])
        if not all(
            _rel(row[f"n_fluor_{name}"], row[f"p_{name}"] * scale_bn) <= ROUNDING
            for name in ("classical", "sq_coherent", "sq_incoherent")
        ):
            _add(failures, "fluorescence_branching", [i])

    for (_, sc_ratio), members in _panels(rows).items():
        members = [i for i in members if rows[i]["validity"] != "failed"]
        if sc_ratio == 1.0:
            # Separable JSA: one Schmidt mode with s^2 = N, c^2 = N + 1, and
            # the classical pulses share its spectrum, so coh/incoh = 1 + 1/N
            # and total/classical = 2 + 1/N.
            for i in members:
                row = rows[i]
                n = row["photons_per_pulse"]
                coh, inc = row["p_sq_coherent"], row["p_sq_incoherent"]
                if not (
                    _rel(coh / inc, 1.0 + 1.0 / n) <= sampling
                    and _rel((coh + inc) / row["p_classical"], 2.0 + 1.0 / n) <= sampling
                ):
                    _add(failures, "separable_panel", [i])
            continue
        # Low gain: coherent ~ N and incoherent ~ N^2, with corrections of
        # relative order N.  Slope over the low-gain window, end to end.
        low = [i for i in members if rows[i]["photons_per_pulse"] <= LOW_GAIN_MAX]
        if len(low) < 2:
            continue
        first, last = rows[low[0]], rows[low[-1]]
        span = math.log(last["photons_per_pulse"] / first["photons_per_pulse"])
        tol = last["photons_per_pulse"] + sampling / span
        for column, power in (("p_sq_coherent", 1.0), ("p_sq_incoherent", 2.0)):
            slope = math.log(last[column] / first[column]) / span
            if not abs(slope - power) <= tol:
                _add(failures, "low_gain_slopes", low)
    return failures
