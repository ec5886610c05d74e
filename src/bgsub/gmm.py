"""Per-pixel adaptive Gaussian mixture background model.

Each pixel carries up to ``k`` weighted Gaussians over RGB with isotropic
variance. An incoming value either matches an existing component (pulling
its mean and variance toward the observation) or displaces the weakest
one. Components are kept sorted by weight/sigma so that the most stable,
most frequently seen colors sit first; the shortest prefix whose weights
exceed ``t`` is treated as background.

All arithmetic here is deliberately plain Python on floats. The exact
operation order (distance sums, decay before reward, variance update
against the already-updated mean) is part of the contract: the vectorized
frame engine reproduces it step for step and is tested for equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

Vec3 = tuple[float, float, float]

BACKGROUND = 0
FOREGROUND = 255

FIXED_ALPHA = "fixed_alpha"
PDF_FAITHFUL = "pdf_faithful"

# (2*pi) ** -1.5, the normalization of an isotropic 3D Gaussian before
# the sigma**-3 factor.
GAUSS_NORM_3D = (2.0 * math.pi) ** -1.5


@dataclass
class ModelParams:
    """Mixture configuration; field names mirror the config file keys."""

    k: int = 3
    alpha: float = 0.01
    t: float = 0.7
    d: float = 2.5
    var_init: float = 225.0
    w_init: float = 0.05
    var_min: float = 4.0
    rho_mode: str = FIXED_ALPHA

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
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


@dataclass
class GaussianComponent:
    weight: float
    mean: Vec3
    variance: float


@dataclass
class PixelModel:
    """Live components only, highest rank first. Weights sum to one."""

    components: list[GaussianComponent] = field(default_factory=list)

    @property
    def live_count(self) -> int:
        return len(self.components)


def _rank(c: GaussianComponent) -> float:
    return c.weight / math.sqrt(c.variance)


def _sort_by_rank(model: PixelModel) -> None:
    # list.sort is stable, so equal ranks keep their current order.
    model.components.sort(key=_rank, reverse=True)


def _dist2(mean: Vec3, z: Vec3) -> float:
    dx = z[0] - mean[0]
    dy = z[1] - mean[1]
    dz = z[2] - mean[2]
    return dx * dx + dy * dy + dz * dz


def init_pixel_model(first: Vec3, params: ModelParams) -> PixelModel:
    """Seed a fresh model: one component centered on the first value."""
    comp = GaussianComponent(1.0, (float(first[0]), float(first[1]), float(first[2])), params.var_init)
    return PixelModel([comp])


def match_gaussian(model: PixelModel, z: Vec3, params: ModelParams) -> int | None:
    """Index of the highest-ranked component within d sigmas of z, else None.

    Distance is Euclidean over the three channels against a shared
    per-component sigma. Does not modify the model.
    """
    limit = params.d * params.d
    for i, c in enumerate(model.components):
        if _dist2(c.mean, z) < limit * c.variance:
            return i
    return None


def component_pdf(c: GaussianComponent, z: Vec3) -> float:
    """Isotropic 3D Gaussian density of component c evaluated at z."""
    return GAUSS_NORM_3D * c.variance ** -1.5 * math.exp(-_dist2(c.mean, z) / (2.0 * c.variance))


def rho_for(c: GaussianComponent, z: Vec3, params: ModelParams) -> float:
    """Blending factor for mean/variance updates of a matched component.

    ``pdf_faithful`` scales alpha by the component density at z (clamped
    to [0, 1]), so updates slow down far from the mean. ``fixed_alpha``
    uses alpha directly, which keeps adaptation speed independent of how
    tight the component already is.
    """
    if params.rho_mode == PDF_FAITHFUL:
        rho = params.alpha * component_pdf(c, z)
        if rho < 0.0:
            return 0.0
        if rho > 1.0:
            return 1.0
        return rho
    return params.alpha


def _absorb_match(model: PixelModel, idx: int, z: Vec3, params: ModelParams) -> int:
    """Apply the matched-component update; return the post-sort index."""
    comps = model.components
    if not 0 <= idx < len(comps):
        raise ValueError(f"component index {idx} is not live")
    one_minus_alpha = 1.0 - params.alpha
    for c in comps:
        c.weight *= one_minus_alpha
    target = comps[idx]
    target.weight += params.alpha

    # rho sees the pre-update mean and variance.
    rho = rho_for(target, z, params)
    one_minus_rho = 1.0 - rho
    mx = one_minus_rho * target.mean[0] + rho * z[0]
    my = one_minus_rho * target.mean[1] + rho * z[1]
    mz = one_minus_rho * target.mean[2] + rho * z[2]
    # Variance is pulled toward the squared distance from the *updated* mean.
    d2 = _dist2((mx, my, mz), z)
    var = one_minus_rho * target.variance + rho * d2
    if var < params.var_min:
        var = params.var_min
    target.mean = (mx, my, mz)
    target.variance = var

    _sort_by_rank(model)
    for i, c in enumerate(comps):
        if c is target:
            return i
    raise AssertionError("absorbing component vanished during sort")


def _absorb_no_match(model: PixelModel, z: Vec3, params: ModelParams) -> int:
    """Insert or replace a component for an unmatched z; return its post-sort index."""
    comps = model.components
    one_minus_alpha = 1.0 - params.alpha
    fresh = GaussianComponent(params.w_init, (float(z[0]), float(z[1]), float(z[2])), params.var_init)
    if len(comps) < params.k:
        for c in comps:
            c.weight *= one_minus_alpha
        comps.append(fresh)
    else:
        # Replace the lowest-weight component (first one on ties).
        j = 0
        for i in range(1, len(comps)):
            if comps[i].weight < comps[j].weight:
                j = i
        for i, c in enumerate(comps):
            if i != j:
                c.weight *= one_minus_alpha
        comps[j] = fresh

    total = 0.0
    for c in comps:
        total += c.weight
    for c in comps:
        c.weight /= total

    _sort_by_rank(model)
    for i, c in enumerate(comps):
        if c is fresh:
            return i
    raise AssertionError("absorbing component vanished during sort")


def update_on_match(model: PixelModel, idx: int, z: Vec3, params: ModelParams) -> PixelModel:
    """Reward component idx for absorbing z and decay the others, in place.

    All live weights are scaled by (1 - alpha), the matched one then gains
    alpha. Mean and variance of the matched component blend toward z by
    rho. Raises ValueError if idx is not a live component index.
    """
    _absorb_match(model, idx, z, params)
    return model


def update_on_no_match(model: PixelModel, z: Vec3, params: ModelParams) -> PixelModel:
    """Absorb an unmatched z, in place.

    Appends a fresh component while capacity remains, otherwise replaces
    the lowest-weight one. The fresh component gets (w_init, z, var_init);
    other live weights are scaled by (1 - alpha); all live weights are then
    renormalized to sum to one.
    """
    _absorb_no_match(model, z, params)
    return model


def background_count(model: PixelModel, params: ModelParams) -> int:
    """Size of the shortest rank prefix whose weight sum exceeds t.

    Falls back to the live count when no prefix gets there (weights that
    have not yet concentrated).
    """
    total = 0.0
    for i, c in enumerate(model.components):
        total += c.weight
        if total > params.t:
            return i + 1
    return model.live_count


def process_pixel(model: PixelModel, z: Vec3, params: ModelParams) -> tuple[PixelModel, int, int, int]:
    """One observation step: match, update, classify.

    Returns (model, label, comp_index, b) where comp_index is the post-sort
    position of the component that absorbed z and b the background prefix
    size. The label is BACKGROUND exactly when comp_index < b.
    """
    idx = match_gaussian(model, z, params)
    if idx is None:
        pos = _absorb_no_match(model, z, params)
    else:
        pos = _absorb_match(model, idx, z, params)
    b = background_count(model, params)
    label = BACKGROUND if pos < b else FOREGROUND
    return model, label, pos, b
