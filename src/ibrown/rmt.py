"""Monte Carlo validation: dense random-matrix models whose spectra should
fill the computed planar region.

The model is D + i sqrt(t) H with D a deterministic diagonal of law quantiles
and H drawn from the Gaussian unitary ensemble normalized so its spectral law
tends to the unit-variance semicircle. The Hermitian control D + sqrt(t) H,
built from the same draw, targets the additive law, the Q_t-pushforward of
the planar law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brown import BrownProfile
from .errors import EigenFailureError
from .measure import MeasureSpec, quantile


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; seed feeds a counter-based generator keyed by
    (seed, rep) so clouds are reproducible and order-independent."""

    n: int
    t: float
    reps: int = 1
    seed: int = 0
    dilation: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not 0.0 < self.t < math.inf:
            raise ValueError("t must be positive and finite")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.dilation < 0.0:
            raise ValueError("dilation must be nonnegative")
        if not 0 <= int(self.seed) < 2 **64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class EigenCloud:
    """n*reps complex eigenvalues with their repetition index, and the n*reps
    real eigenvalues of the Hermitian control D + sqrt(t) H of the same
    draws, in repetition order."""

    points: np.ndarray
    rep: np.ndarray
    hermitian: np.ndarray
    config: SimConfig


def _rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(rep)]))


def sample_gue(n: int, seed: int, rep: int = 0) -> np.ndarray:
    """Hermitian draw: off-diagonal complex Gaussian with variance 1/n,
    real diagonal with variance 1/n; spectral law tends to semicircle(1)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    g = _rng(seed, rep)
    a = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    return (a + a.conj().T) / (2.0 * math.sqrt(n))


def deterministic_x(mu: MeasureSpec, n: int) -> np.ndarray:
    """Diagonal of law quantiles at midpoints (j - 1/2)/n, ascending."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return np.array([quantile(mu, (j + 0.5) / n) for j in range(n)])


def _eigvals_with_retry(m: np.ndarray, g: np.random.Generator) -> np.ndarray:
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError:
        # retry once with a perturbed shift before giving up
        scale = np.max(np.abs(m)) or 1.0
        jitter = 1e-13 * scale * g.standard_normal(m.shape[0])
        try:
            return np.linalg.eigvals(m + np.diag(jitter))
        except np.linalg.LinAlgError as exc:
            raise EigenFailureError(f"eigensolver failed twice: {exc}") from exc


def simulate(mu: MeasureSpec, cfg: SimConfig) -> EigenCloud:
    """Eigenvalue clouds of D + i sqrt(t) H and of D + sqrt(t) H, one draw of
    H per repetition, merged in repetition order. Repetitions run serially:
    each dense solve already saturates the BLAS threads."""
    d = np.diag(deterministic_x(mu, cfg.n).astype(complex))
    root_t = math.sqrt(cfg.t)
    points, hermitian = [], []
    for rep in range(cfg.reps):
        h = sample_gue(cfg.n, cfg.seed, rep)
        points.append(_eigvals_with_retry(d + 1j * root_t * h, _rng(cfg.seed, rep)))
        hermitian.append(np.linalg.eigvalsh(d + root_t * h))
    points, hermitian = np.concatenate(points), np.concatenate(hermitian)
    rep_idx = np.repeat(np.arange(cfg.reps), cfg.n)
    for arr in (points, hermitian, rep_idx):
        arr.setflags(write=False)
    return EigenCloud(points=points, rep=rep_idx, hermitian=hermitian, config=cfg)


def ks_statistic(samples: np.ndarray, cdf_values: np.ndarray) -> float:
    """One-sample sup-distance: samples must be sorted, cdf_values = F(samples)."""
    n = samples.size
    grid = np.arange(1, n + 1) / n
    return float(np.max(np.maximum(np.abs(grid - cdf_values), np.abs(grid - 1.0 / n - cdf_values))))


@dataclass(frozen=True)
class CompareReport:
    """Cloud-versus-computation comparison.

    inside_fraction: share of eigenvalues with |Im| <= b_t(Re) + dilation.
    ks_marginal: sup-CDF distance of Re parts against the vertical marginal.
    ks_pushforward: sup-CDF distance of the Hermitian control's eigenvalues
    against the additive law: the Q_t-pushforward of the planar law is the
    law of D + sqrt(t) H.
    """

    inside_fraction: float
    ks_marginal: float
    ks_pushforward: float
    n_points: int
    dilation: float


def compare(cloud: EigenCloud, profile: BrownProfile, mu: MeasureSpec, t: float) -> CompareReport:
    """Score an eigenvalue cloud against the computed region and its
    Hermitian control against the additive law, both read from the profile
    of the law mu at t."""
    if max(abs(cloud.config.t - t), abs(profile.t - t)) > 1e-12 * (1.0 + abs(t)):
        raise ValueError("cloud or profile was computed at a different t")
    pts = cloud.points
    inside = np.abs(pts.imag) <= profile.b_interp(pts.real) + cloud.config.dilation
    re = np.sort(pts.real)
    herm = np.sort(cloud.hermitian)
    return CompareReport(
        inside_fraction=float(np.mean(inside)),
        ks_marginal=ks_statistic(re, profile.cdf_at_a(re)),
        ks_pushforward=ks_statistic(herm, profile.cdf_at_u(herm)),
        n_points=pts.size,
        dilation=cloud.config.dilation,
    )
