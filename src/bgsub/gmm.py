"""Mixture parameters and the class values the model and its outputs share.

Each pixel carries up to ``k`` weighted Gaussians over RGB with isotropic
variance, kept sorted by weight/sigma; the shortest prefix whose weights
exceed ``t`` is background. :mod:`bgsub.frame_model` runs that model for
whole frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

BACKGROUND = 0
FOREGROUND = 255

FIXED_ALPHA = "fixed_alpha"
PDF_FAITHFUL = "pdf_faithful"

# (2*pi) ** -1.5, the normalization of an isotropic 3D Gaussian before
# the sigma**-3 factor.
GAUSS_NORM_3D = (2.0 * math.pi) ** -1.5


@dataclass
class ModelParams:
    """Mixture configuration; field names mirror the config file keys.

    rho_mode sets the rate at which a matched component's mean and
    variance move toward the sample: ``fixed_alpha`` uses alpha, which
    keeps adaptation speed independent of how tight the component is;
    ``pdf_faithful`` scales alpha by the component density at the sample,
    clipped to [0, 1], so updates slow down far from the mean.
    """

    k: int = 3
    alpha: float = 0.01
    t: float = 0.7
    d: float = 2.5
    var_init: float = 225.0
    w_init: float = 0.05
    var_min: float = 4.0
    rho_mode: str = FIXED_ALPHA

    def __post_init__(self) -> None:
        # The frame model keeps live counts and slot positions in uint8.
        if not 1 <= self.k <= 255:
            raise ValueError(f"k must be in [1, 255], got {self.k}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.t < 1.0:
            raise ValueError(f"t must be in (0, 1), got {self.t}")
        if not (math.isfinite(self.d) and self.d > 0.0):
            raise ValueError(f"d must be finite and positive, got {self.d}")
        if not (math.isfinite(self.var_init) and self.var_init > 0.0):
            raise ValueError(f"var_init must be finite and positive, got {self.var_init}")
        if not 0.0 < self.w_init <= 1.0:
            raise ValueError(f"w_init must be in (0, 1], got {self.w_init}")
        if not (math.isfinite(self.var_min) and self.var_min > 0.0):
            raise ValueError(f"var_min must be finite and positive, got {self.var_min}")
        if self.rho_mode not in (FIXED_ALPHA, PDF_FAITHFUL):
            raise ValueError(f"unknown rho_mode {self.rho_mode!r}")
