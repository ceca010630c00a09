"""Latent-factor generative model for targeting-attribute membership.

The audit phenomenon the paper measures -- AND-compositions of
targeting options being *more* demographically skewed than the options
individually -- requires a population model in which

1. attribute membership correlates with gender and age, and
2. attributes correlate with *each other* beyond what demographics
   explain (users cluster into interest profiles).

We use a standard logistic latent-factor model.  Each user ``u`` has a
gender code, an age code, and a latent interest vector ``z_u`` in
``R^K`` drawn from a normal whose mean depends on the user's
demographics (factors themselves can be gender- or age-tilted, e.g. a
"motorsports" factor with a male-shifted mean).  Each attribute ``a``
has a base log-odds, direct demographic loadings, and sparse factor
loadings; membership is an independent Bernoulli given ``(g, age, z)``:

.. math::

    \\Pr[a \\mid u] = \\sigma\\bigl(b_a + \\beta^g_a x_g(u)
        + \\beta^{age}_a[age(u)] + \\lambda_a \\cdot z_u\\bigr)

For rare attributes this yields a per-attribute representation ratio of
roughly ``exp(beta_g + lambda . (mu_male - mu_female))`` toward males,
and -- crucially -- compositions of two attributes that share a
demographically tilted factor are skewed super-multiplicatively, which
is exactly the behaviour observed in the paper's Tables 2 and 3 (e.g.
*Electrical engineering* AND *Cars*: 12.43 > 3.71 x 2.18 would suggest
multiplicative amplification alone is not the whole story).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.population.demographics import AGE_RANGES, GENDERS, AgeRange, Gender

__all__ = [
    "AttributeSpec",
    "LatentFactorModel",
    "GENDER_CONTRAST",
    "demographic_cells",
    "sigmoid",
]

#: Symmetric gender contrast codes: male -> +1/2, female -> -1/2, so the
#: male:female log-odds gap of an attribute equals ``beta_gender``.
GENDER_CONTRAST: dict[Gender, float] = {Gender.MALE: +0.5, Gender.FEMALE: -0.5}


@dataclass(frozen=True)
class AttributeSpec:
    """Generative parameters for one targeting attribute.

    Parameters
    ----------
    attr_id:
        Stable identifier, unique within a platform universe.
    feature:
        Targeting feature the attribute belongs to (e.g. ``"interests"``
        on Facebook, ``"topics"`` on Google).  Platforms restrict which
        features may be composed with which.
    category:
        Display category (e.g. ``"Industries"``), used for catalog
        browsing and the illustrative-example tables.
    name:
        Display name shown to advertisers.
    base_logit:
        Intercept; controls overall prevalence.
    beta_gender:
        Male-vs-female log-odds gap.  Positive values skew male.
    beta_age:
        Per-age-range log-odds offsets, in :class:`AgeRange` code order.
    loadings:
        Sparse latent-factor loadings as ``{factor_index: weight}``.
    """

    attr_id: str
    feature: str
    category: str
    name: str
    base_logit: float
    beta_gender: float
    beta_age: tuple[float, float, float, float]
    loadings: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.beta_age) != len(AGE_RANGES):
            raise ValueError(
                f"beta_age must have {len(AGE_RANGES)} entries, "
                f"got {len(self.beta_age)}"
            )

    def loading_vector(self, n_factors: int) -> np.ndarray:
        """Dense loading vector of length ``n_factors``."""
        vec = np.zeros(n_factors)
        for k, w in self.loadings.items():
            _check_factor(k, n_factors)
            vec[k] = w
        return vec


def _check_factor(k: int, n_factors: int) -> None:
    if not 0 <= k < n_factors:
        raise IndexError(f"factor index {k} out of range for K={n_factors}")


#: Gender contrast indexed by :class:`Gender` code.
_CONTRAST_BY_CODE = np.array([GENDER_CONTRAST[g] for g in GENDERS])


def demographic_cells(gender_codes: np.ndarray, age_codes: np.ndarray) -> np.ndarray:
    """Per-user gender-by-age cell code, ``gender * 4 + age``."""
    cells = np.asarray(gender_codes, dtype=np.intp) * len(AGE_RANGES)
    cells += np.asarray(age_codes, dtype=np.intp)
    return cells


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free, branch-free logistic function.

    With ``e = exp(-|x|)`` the stable textbook branches,
    ``1 / (1 + exp(-x))`` for ``x >= 0`` and ``exp(x) / (1 + exp(x))``
    below, are ``1 / (1 + e)`` and ``e / (1 + e)`` with the very same
    operands, so selecting the numerator is exact on every input.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    p = np.where(x >= 0, 1.0, e)
    e += 1.0
    p /= e
    return p


@dataclass(frozen=True)
class LatentFactorModel:
    """Hyperparameters of the latent-interest space.

    Parameters
    ----------
    n_factors:
        Dimensionality ``K`` of the latent interest space.
    factor_gender_shift:
        Length-``K`` vector: factor ``k``'s mean for males is
        ``+shift[k]/2`` and for females ``-shift[k]/2``.
    factor_age_shift:
        ``(K, 4)`` array of per-age mean offsets for each factor.
    noise_scale:
        Standard deviation of the user-specific factor noise.
    """

    n_factors: int
    factor_gender_shift: tuple[float, ...]
    factor_age_shift: tuple[tuple[float, float, float, float], ...]
    noise_scale: float = 1.0

    def __post_init__(self) -> None:
        if len(self.factor_gender_shift) != self.n_factors:
            raise ValueError("factor_gender_shift length must equal n_factors")
        if len(self.factor_age_shift) != self.n_factors:
            raise ValueError("factor_age_shift length must equal n_factors")
        for row in self.factor_age_shift:
            if len(row) != len(AGE_RANGES):
                raise ValueError("each factor_age_shift row needs 4 entries")
        if self.noise_scale <= 0:
            raise ValueError("noise_scale must be positive")

    # -- sampling ---------------------------------------------------------

    def factor_means(
        self, gender_codes: np.ndarray, age_codes: np.ndarray
    ) -> np.ndarray:
        """Per-user factor means, shape ``(n_users, K)``."""
        g = np.where(np.asarray(gender_codes) == int(Gender.MALE), 0.5, -0.5)
        shift = np.asarray(self.factor_gender_shift)  # (K,)
        age_shift = np.asarray(self.factor_age_shift)  # (K, 4)
        means = g[:, None] * shift[None, :]
        means += age_shift.T[np.asarray(age_codes, dtype=np.intp)]
        return means

    def sample_latents(
        self,
        gender_codes: np.ndarray,
        age_codes: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw the latent matrix ``Z`` with shape ``(n_users, K)``."""
        means = self.factor_means(gender_codes, age_codes)
        noise = rng.standard_normal(means.shape) * self.noise_scale
        return means + noise

    # -- evaluation --------------------------------------------------------

    def spec_logits(
        self,
        spec: AttributeSpec,
        cells: np.ndarray,
        latents: np.ndarray,
        latents_t: np.ndarray,
    ) -> np.ndarray:
        """Per-user membership log-odds for one attribute.

        ``cells`` are :func:`demographic_cells` codes and ``latents_t``
        is ``latents.T`` (contiguous for speed).  The demographic term
        ``(b + beta_g * x_g) + beta_age[age]`` takes one value per
        cell, so it is evaluated once per cell and gathered.  A single
        loading ``{k: w}`` adds ``latents_t[k] * w``, which equals
        ``latents @ lambda`` bit for bit because every other product is
        an exact zero; denser loadings use the matrix-vector product.
        """
        per_gender = spec.base_logit + spec.beta_gender * _CONTRAST_BY_CODE
        table = np.add.outer(per_gender, np.asarray(spec.beta_age, dtype=np.float64))
        logits = table.ravel()[cells]
        if len(spec.loadings) == 1:
            ((k, w),) = spec.loadings.items()
            _check_factor(k, self.n_factors)
            logits += latents_t[k] * w
        elif spec.loadings:
            logits += latents @ spec.loading_vector(self.n_factors)
        return logits

    def membership_logits(
        self,
        spec: AttributeSpec,
        gender_codes: np.ndarray,
        age_codes: np.ndarray,
        latents: np.ndarray,
    ) -> np.ndarray:
        """Per-user membership log-odds for one attribute."""
        cells = demographic_cells(gender_codes, age_codes)
        return self.spec_logits(spec, cells, latents, latents.T)

    def membership_probabilities(
        self,
        spec: AttributeSpec,
        gender_codes: np.ndarray,
        age_codes: np.ndarray,
        latents: np.ndarray,
    ) -> np.ndarray:
        """Per-user Bernoulli membership probabilities for one attribute."""
        return sigmoid(
            self.membership_logits(spec, gender_codes, age_codes, latents)
        )

    def approximate_gender_ratio(self, spec: AttributeSpec) -> float:
        """Rare-attribute approximation of the male representation ratio.

        For small base rates, ``p_male / p_female ~= exp(total male-female
        log-odds gap)``, where the gap combines the direct gender loading
        with the factor-mean separation projected onto the attribute's
        loadings.  Used for calibration sanity checks, not measurement.
        """
        gap = spec.beta_gender
        if spec.loadings:
            lam = spec.loading_vector(self.n_factors)
            gap += float(lam @ np.asarray(self.factor_gender_shift))
        return float(np.exp(gap))

    def approximate_age_ratio(self, spec: AttributeSpec, age: AgeRange) -> float:
        """Rare-attribute approximation of the ratio toward an age range.

        Compares the log-odds in ``age`` to the mean log-odds over the
        other age ranges (matching the ``RA_s`` vs ``RA_{not s}``
        structure of the representation ratio).
        """
        beta = np.asarray(spec.beta_age, dtype=np.float64)
        if spec.loadings:
            lam = spec.loading_vector(self.n_factors)
            beta = beta + np.asarray(self.factor_age_shift).T @ lam
        others = [b for a, b in zip(AGE_RANGES, beta) if a is not age]
        gap = float(beta[int(age)]) - float(np.mean(others))
        return float(np.exp(gap))


def default_model(
    n_factors: int = 8,
    gender_shift_scale: float = 0.9,
    age_shift_scale: float = 0.8,
    seed: int = 7,
) -> LatentFactorModel:
    """Build a generic latent model with demographically tilted factors.

    Half the factors are gender-tilted (alternating direction), and all
    factors receive a smooth age tilt, so that attribute pairs sharing a
    factor compose super-multiplicatively for both sensitive attributes.
    """
    rng = np.random.default_rng(seed)
    gender_shift = []
    age_shift: list[tuple[float, float, float, float]] = []
    for k in range(n_factors):
        direction = 1.0 if k % 2 == 0 else -1.0
        magnitude = gender_shift_scale if k < n_factors // 2 else 0.2
        gender_shift.append(direction * magnitude * float(rng.uniform(0.6, 1.0)))
        # Smooth monotone-ish tilt across the four age buckets.
        anchor = float(rng.uniform(-1.0, 1.0)) * age_shift_scale
        profile = np.linspace(-anchor, anchor, len(AGE_RANGES))
        profile += rng.normal(0.0, 0.1 * age_shift_scale, len(AGE_RANGES))
        profile -= profile.mean()
        age_shift.append(tuple(float(x) for x in profile))
    return LatentFactorModel(
        n_factors=n_factors,
        factor_gender_shift=tuple(gender_shift),
        factor_age_shift=tuple(age_shift),
        noise_scale=1.0,
    )
