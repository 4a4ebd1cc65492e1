"""Seeded synthetic embeddings that exhibit hubness at desk scale.

Geometry: targets are unit-normalized Gaussian vectors drawn orthogonal to
the gap direction, so the target modality carries no systematic alignment
with it.  Each query is its target plus Gaussian noise plus a shared offset
along the gap direction (the modality gap), renormalized; queries therefore
concentrate in a cone the targets never enter.  A fraction of the targets
("hubs") is pulled part-way toward that cone's center, which makes exactly
those targets uniformly similar to every query: hub_strength is the sole
knob controlling hubness, while gap_magnitude controls only how far apart
the two modalities sit.

Magnitude convention: ``noise_sigma``, ``gap_magnitude``, and ``bank_shift``
are all per-coordinate RMS amplitudes, directly comparable to the unit RMS
of the raw Gaussian coordinates.  The gap and shift offsets are fixed random
directions scaled to ``magnitude * sqrt(dim)``, so a magnitude-1 offset
carries the same energy as the Gaussian cloud itself.

Determinism: every draw comes from numpy's PCG64 generator seeded with
``SeedSequence((cfg.seed, stream))``; stream 0 supplies the shared gap
direction, stream 1 the paired test data, stream 2 the banks.  Within a
stream the draw order is fixed (target Gaussians, hub permutation, query
noise, then for banks the shift direction first), so identical configs give
bitwise-identical outputs.
"""

from dataclasses import dataclass

import numpy as np

from .core import EmbeddingSet, Role
from .errors import DataError, _as_index
from .retrieval import GroundTruth

_STREAM_DIRECTION = 0
_STREAM_PAIRED = 1
_STREAM_BANKS = 2


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings; see module docstring for the magnitude convention."""

    dim: int = 64
    n_pairs: int = 1000
    noise_sigma: float = 0.45
    gap_magnitude: float = 0.5
    hub_fraction: float = 0.15
    hub_strength: float = 0.6
    bank_shift: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if _as_index("dim", self.dim) < 1 or _as_index("n_pairs", self.n_pairs) < 1:
            raise DataError("dim and n_pairs must be positive")
        if _as_index("seed", self.seed) < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if not all(0 <= x < np.inf for x in (self.noise_sigma, self.gap_magnitude, self.bank_shift)):
            raise DataError("noise_sigma, gap_magnitude, bank_shift must be finite and nonnegative")
        if not 0.0 <= self.hub_fraction <= 1.0:
            raise DataError(f"hub_fraction must lie in [0,1], got {self.hub_fraction}")
        if not 0.0 <= self.hub_strength <= 1.0:
            raise DataError(f"hub_strength must lie in [0,1], got {self.hub_strength}")


def _rng(cfg: SynthConfig, stream: int) -> "np.random.Generator":
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, stream)))


def _unit_rows(X: np.ndarray) -> np.ndarray:
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def _gap_direction(cfg: SynthConfig) -> np.ndarray:
    u = _rng(cfg, _STREAM_DIRECTION).standard_normal(cfg.dim)
    return u / np.linalg.norm(u)


def _paired_cloud(
    cfg: SynthConfig,
    rng: "np.random.Generator",
    gap_dir: np.ndarray,
    gap_vec: np.ndarray,
    shift_vec: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One draw of the paired process: returns (query rows, target rows)."""
    n, d = cfg.n_pairs, cfg.dim
    raw = rng.standard_normal((n, d))
    if d > 1:
        # target modality lives in the gap direction's orthogonal complement
        raw = raw - np.outer(raw @ gap_dir, gap_dir)
    targets = _unit_rows(raw + shift_vec)
    n_hubs = int(cfg.hub_fraction * n)
    hub_idx = rng.permutation(n)[:n_hubs]
    if n_hubs and cfg.hub_strength > 0.0:
        center = targets.mean(axis=0) + gap_vec + shift_vec
        norm = np.linalg.norm(center)
        centroid = center / norm if norm > 0.0 else gap_vec * 0.0 + targets[0]
        pulled = (1.0 - cfg.hub_strength) * targets[hub_idx] + cfg.hub_strength * centroid
        targets = targets.copy()
        targets[hub_idx] = _unit_rows(pulled)
    noise = cfg.noise_sigma * rng.standard_normal((n, d))
    queries = _unit_rows(targets + noise + gap_vec + shift_vec)
    return queries, targets


def generate_paired(cfg: SynthConfig) -> tuple[EmbeddingSet, EmbeddingSet, GroundTruth]:
    """Paired query/target sets with ground truth i -> {i}."""
    gap_dir = _gap_direction(cfg)
    gap_vec = cfg.gap_magnitude * np.sqrt(cfg.dim) * gap_dir
    queries, targets = _paired_cloud(
        cfg, _rng(cfg, _STREAM_PAIRED), gap_dir, gap_vec, np.zeros(cfg.dim)
    )
    return (
        EmbeddingSet(queries, role=Role.QUERY),
        EmbeddingSet(targets, role=Role.TARGET),
        GroundTruth.identity(cfg.n_pairs),
    )


def generate_banks(
    cfg: SynthConfig, base: tuple[EmbeddingSet, EmbeddingSet] | None = None
) -> tuple[EmbeddingSet, EmbeddingSet]:
    """Fresh paired draws standing in for training-split queries/targets.

    The bank cloud is generated by the same process as the test pairs from
    an independent RNG stream (so bank pairs never coincide with test
    pairs), then offset as a whole by a random direction scaled to
    ``bank_shift * sqrt(dim)`` to model a train/test distribution shift.
    """
    if base is not None:
        Q, T = base
        if Q.dim != cfg.dim or T.dim != cfg.dim:
            raise DataError(f"base sets have dim {Q.dim}/{T.dim}, config says {cfg.dim}")
    rng = _rng(cfg, _STREAM_BANKS)
    w = rng.standard_normal(cfg.dim)
    shift_vec = cfg.bank_shift * np.sqrt(cfg.dim) * (w / np.linalg.norm(w))
    gap_dir = _gap_direction(cfg)
    gap_vec = cfg.gap_magnitude * np.sqrt(cfg.dim) * gap_dir
    bq, bt = _paired_cloud(cfg, rng, gap_dir, gap_vec, shift_vec)
    return EmbeddingSet(bq, role=Role.QUERY_BANK), EmbeddingSet(bt, role=Role.TARGET_BANK)
