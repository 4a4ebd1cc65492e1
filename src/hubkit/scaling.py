"""Softmax-family normalizations of a similarity matrix.

The inverted softmax rescales each target column by the column's softmax
denominator over queries.  Written additively, that is the same as adding a
per-target compensation ``h(t_j) = -tau * logsumexp_i(S_ij / tau)`` to every
score and exponentiating, so a popular ("hub") target with a large
denominator is demoted for every query at once.  The dynamic and dual
variants replace the query set in the denominator with query/target banks.

Sign convention used throughout hubkit: compensations are stored so that the
normalized score is ``S + h``.  Subtractive presentations of the same
quantity are the identical number with the opposite stored sign.

The inverted softmax and ``S + h`` run in the column slabs and row blocks
that :mod:`hubkit.core` sets for a normalizer pass.
"""

from dataclasses import dataclass

import numpy as np

from . import core
from .core import SimilarityMatrix, _freeze, row_topk_desc
from .errors import ColMismatch, KOutOfRange, LengthMismatch, NonPositiveTau, _as_index, _as_real


@dataclass(frozen=True)
class HubnessVector:
    """Per-target (or per-query) additive compensation scalars.

    ``values[j]`` is added to column j of a similarity matrix (the additive
    convention above).
    """

    values: np.ndarray
    temperature: float

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values, 1, "hubness values"))


@dataclass(frozen=True)
class DualISConfig:
    """Temperatures for the two inverted-softmax factors.

    The product of the factors collapses to a single softmax at the harmonic
    scale ``lam = tau1*tau2/(tau1+tau2)``, always below min(tau1, tau2).
    """

    tau1: float = 0.02
    tau2: float = 0.02

    def __post_init__(self):
        if not 0.0 < _as_real("tau1", self.tau1) < np.inf:
            raise NonPositiveTau(self.tau1)
        if not 0.0 < _as_real("tau2", self.tau2) < np.inf:
            raise NonPositiveTau(self.tau2)

    @property
    def lam(self) -> float:
        return self.tau1 * self.tau2 / (self.tau1 + self.tau2)


@dataclass(frozen=True)
class DISConfig:
    """Neighborhood size for selecting the compensated target subset."""

    k: int = 1

    def __post_init__(self):
        if _as_index("k", self.k) < 1:
            raise KOutOfRange(self.k, self.k)


def _shifted_exp(V: np.ndarray, tau: float, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(exp(V/tau - top), top)``, ``top`` the column maxima of V/tau, in
    ``out`` or one fresh float64 buffer; no exp argument is positive."""
    if not 0.0 < _as_real("tau", tau) < np.inf:
        raise NonPositiveTau(tau)
    # without dtype, a float32 V would be divided in float32, then widened into out
    out = np.divide(V, tau, out=out, dtype=np.float64)
    top = out.max(axis=0)
    out -= top
    np.exp(out, out=out)
    return out, top


def _compensation(V: np.ndarray, tau: float, scale: float) -> np.ndarray:
    """``-scale * logsumexp_i(V_ij / tau)`` per column j."""
    terms, top = _shifted_exp(V, tau)
    return -scale * (np.log(terms.sum(axis=0)) + top)


def inverted_softmax(S: SimilarityMatrix, tau: float = 0.02) -> SimilarityMatrix:
    """Column-wise softmax over queries at temperature ``tau``.

    Output entry (i, j) is exp(S_ij/tau) / sum_u exp(S_uj/tau); every column
    sums to 1.  Columns are max-shifted before exponentiation so no positive
    argument ever reaches exp.  The steps are scipy's ``softmax(S / tau,
    axis=0)`` in the same order, done in one buffer, so the result is equal.
    The columns run in slabs (:func:`core._in_column_slabs`), whose column
    sums add rows in the order a whole matrix's do.
    """
    V = S.values
    out = np.empty(V.shape)

    def slab(c):
        terms = _shifted_exp(V[:, c], tau, out[:, c])[0]
        terms /= terms.sum(axis=0)

    core._in_column_slabs(V.shape, slab)
    return S._adopt_values(out)


def is_hubness(S_bank_targets: SimilarityMatrix, tau: float = 0.02) -> HubnessVector:
    """Per-target compensation from bank-vs-target similarities.

    ``values[j] = -tau * logsumexp_i(S_ij / tau)``: adding it to a column and
    exponentiating at the same temperature reproduces the inverted softmax
    with the bank in the denominator.
    """
    return HubnessVector(_compensation(S_bank_targets.values, tau, tau), temperature=tau)


def apply_hubness(S: SimilarityMatrix, h: HubnessVector) -> SimilarityMatrix:
    """Add a per-target compensation to every row of S."""
    if h.values.shape[0] != S.cols:
        raise LengthMismatch(f"hubness vector length {h.values.shape[0]} vs {S.cols} columns")
    return S._adopt_values(_plus_columns(S.values, h.values))


def _plus_columns(V: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``V + h`` with ``h[j]`` added to column j, in float64, in the row
    blocks of a normalizer pass."""
    out = np.empty(V.shape)
    core._in_row_blocks(V.shape[0], core._pass_rows(V.shape[1]), lambda r: np.add(V[r], h, out=out[r]))
    return out


def dis_subset(S_bank_targets: SimilarityMatrix, cfg: DISConfig = DISConfig()) -> np.ndarray:
    """Mark the targets appearing in the top-k of at least one bank row.

    Returns a boolean mask of length n.  Ties inside a row are broken by
    ascending column index, the same convention as ranking.
    """
    mask = np.zeros(S_bank_targets.cols, dtype=bool)
    mask[np.unique(row_topk_desc(S_bank_targets, cfg.k).order)] = True
    return mask


def dynamic_inverted_softmax(
    S: SimilarityMatrix,
    S_bank_targets: SimilarityMatrix,
    cfg: DISConfig = DISConfig(),
    tau: float = 0.02,
) -> SimilarityMatrix:
    """Inverted softmax restricted to bank-frequent targets.

    Columns in the selected subset are scaled by the bank column's softmax
    denominator; the rest keep the raw similarity.  The two column families
    therefore live on different scales inside one row; that is how the
    formula is defined and it is applied as such.
    """
    if S.cols != S_bank_targets.cols:
        raise ColMismatch(f"{S.cols} target columns vs {S_bank_targets.cols} bank columns")
    h = is_hubness(S_bank_targets, tau).values
    mask = dis_subset(S_bank_targets, cfg)
    # exp((S + h)/tau) = exp(S/tau) / colsum(exp(S_bank/tau)).  The query
    # scores are not part of the bank denominator, so the ratio may exceed 1;
    # at the supported temperatures the exponent stays well inside float64.
    # An overflow to inf is left to SimilarityMatrix, which refuses it.
    out = S.values.astype(np.float64)
    with np.errstate(over="ignore"):
        out[:, mask] = np.exp((S.values[:, mask] + h[mask]) / tau)
    return S._adopt_values(out)


def dual_inverted_softmax(
    S: SimilarityMatrix,
    S_qbank_targets: SimilarityMatrix,
    S_tbank_targets: SimilarityMatrix,
    cfg: DualISConfig = DualISConfig(),
) -> SimilarityMatrix:
    """Product of two inverted-softmax factors, one per bank.

    Factor one scales column j by the query-bank denominator at tau1, factor
    two by the target-bank denominator at tau2.  The product equals
    ``exp((S + h_bq + h_bt)/lam)`` over the compensations of
    :func:`dual_is_compensations` and is computed that way, so rankings match
    the additive form at scale ``cfg.lam``.
    """
    if S_qbank_targets.cols != S.cols:
        raise ColMismatch(f"{S.cols} target columns vs {S_qbank_targets.cols} query-bank columns")
    if S_tbank_targets.cols != S.cols:
        raise ColMismatch(f"{S.cols} target columns vs {S_tbank_targets.cols} target-bank columns")
    h_q, h_t = dual_is_compensations(S_qbank_targets, S_tbank_targets, cfg)
    out = (S.values + h_q.values + h_t.values) / cfg.lam
    # an overflow to inf is left to SimilarityMatrix, which refuses it
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    return S._adopt_values(out)


def dual_is_compensations(
    S_qbank_targets: SimilarityMatrix,
    S_tbank_targets: SimilarityMatrix,
    cfg: DualISConfig = DualISConfig(),
) -> tuple[HubnessVector, HubnessVector]:
    """The additive decomposition of the dual inverted softmax.

    Returns per-target vectors (h_bq, h_bt) with
    ``h[j] = -lam * logsumexp(bank column j / tau)``; the product form above
    equals ``exp((S + h_bq + h_bt) / lam)`` entrywise.
    """
    h_q = _compensation(S_qbank_targets.values, cfg.tau1, cfg.lam)
    h_t = _compensation(S_tbank_targets.values, cfg.tau2, cfg.lam)
    return HubnessVector(h_q, temperature=cfg.lam), HubnessVector(h_t, temperature=cfg.lam)
