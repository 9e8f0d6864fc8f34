"""Physical constants (SI) used throughout the package.

The values are the CODATA 2022 floats that `scipy.constants` exports, written
out so that importing the package does not load `scipy.constants`.
"""

import math

C_LIGHT = 299792458.0  # m/s, exact
EPS0 = 8.8541878188e-12  # F/m
HBAR = 1.0545718176461565e-34  # J s, h/(2 pi) with h exact
PI = math.pi

TWO_PI = 2.0 * PI

__all__ = ["C_LIGHT", "EPS0", "HBAR", "PI", "TWO_PI"]
