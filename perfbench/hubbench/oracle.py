"""References the benchmark checks hubkit's outputs against.

Nothing here calls hubkit.  The rank functions re-derive what hubkit's
ranking promises (descending score, ties broken by ascending column index)
by counting instead of sorting.  The normalizers are re-derived in other
forms: Sinkhorn in the scaling domain (matrix-vector products with a
max-shifted kernel), the inverted softmax and IS compensation as a
max-shifted column log-sum-exp.  They agree with hubkit's log-domain
arithmetic to ~1e-15, far inside the ``RANK_TOL`` used to decide ranks.

Rankings are compared exactly: a query's rank under the library's output
must equal the rank under the reference, except where another target's
reference score is within ``RANK_TOL`` of the correct target's score; such
a near-tie may fall either way, so the rank must then lie in the interval
the near-ties span.  With continuous synthetic scores the interval is almost
always a single rank.

Row-wise work runs in blocks of ``BLOCK_ROWS`` rows so that checking an
output never needs more than a few megabytes beyond the output itself; the
benchmark's peak-RSS metric should reflect the library, not the checks.
"""

import hashlib

import numpy as np

#: Two reference scores closer than this may be ordered either way (float64 outputs).
RANK_TOL = 1e-9
#: The same for outputs that went through a float32 file (a few float32 ulps at |s| <= 2).
RANK_TOL_F32 = 1e-6
#: Largest accepted |library - reference| of a sampled output value.
VALUE_TOL = 1e-6
BLOCK_ROWS = 256


def _blocks(m: int):
    for lo in range(0, m, BLOCK_ROWS):
        yield lo, min(lo + BLOCK_ROWS, m)


def best_ranks(M: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """1-based rank of column ``gt[i]`` in row i, best score first, ties by index."""
    out = np.empty(M.shape[0], dtype=np.int64)
    cols = np.arange(M.shape[1])
    for lo, hi in _blocks(M.shape[0]):
        B, g = M[lo:hi], gt[lo:hi]
        s = B[np.arange(hi - lo), g][:, None]
        ties_before = np.count_nonzero((B == s) & (cols[None, :] < g[:, None]), axis=1)
        out[lo:hi] = 1 + np.count_nonzero(B > s, axis=1) + ties_before
    return out


def rank_intervals(R: np.ndarray, gt: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Lowest and highest rank of ``gt[i]`` consistent with reference scores R
    when scores within ``tol`` of the correct target's may be ordered either way."""
    lo_out = np.empty(R.shape[0], dtype=np.int64)
    hi_out = np.empty(R.shape[0], dtype=np.int64)
    for lo, hi in _blocks(R.shape[0]):
        B = R[lo:hi]
        diff = B - B[np.arange(hi - lo), gt[lo:hi]][:, None]
        lo_out[lo:hi] = 1 + np.count_nonzero(diff > tol, axis=1)
        near = np.count_nonzero(np.abs(diff) <= tol, axis=1) - 1
        hi_out[lo:hi] = lo_out[lo:hi] + near
    return lo_out, hi_out


def ranks_outside(ranks: np.ndarray, interval: tuple[np.ndarray, np.ndarray]) -> int:
    """Number of queries whose rank falls outside its reference interval."""
    lo, hi = interval
    if ranks.shape != lo.shape:
        return max(ranks.size, lo.size)
    return int(np.count_nonzero((ranks < lo) | (ranks > hi)))


def digest(ranks: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(ranks, dtype="<i8").tobytes()).hexdigest()[:16]


def report_from_ranks(ranks: np.ndarray, Ks) -> dict:
    """R@K (percent), lower-median rank and mean rank, as hubkit defines them."""
    r_at = {int(k): float(100.0 * np.mean(ranks <= k)) for k in Ks}
    mdr = float(np.sort(ranks)[(ranks.size - 1) // 2])
    return {"r_at": r_at, "mdr": mdr, "mnr": float(ranks.mean())}


def topk_counts(M: np.ndarray, k: int) -> np.ndarray:
    """Per column, how many rows rank it in their top k (ties by index)."""
    n = M.shape[1]
    counts = np.zeros(n, dtype=np.int64)
    for lo, hi in _blocks(M.shape[0]):
        B = M[lo:hi]
        kth = np.partition(B, n - k, axis=1)[:, n - k][:, None]
        greater = B > kth
        need = k - np.count_nonzero(greater, axis=1)
        equal = B == kth
        take = equal & (np.cumsum(equal, axis=1) <= need[:, None])
        counts += np.count_nonzero(greater | take, axis=0)
    return counts


def skewness(counts: np.ndarray) -> float:
    """Population skewness; 0 for constant counts."""
    x = counts.astype(np.float64)
    c = x - x.mean()
    m2 = float(np.mean(c * c))
    if m2 == 0.0:
        return 0.0
    return float(np.mean(c * c * c) / m2**1.5)


def close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def column_lse(V: np.ndarray, tau: float) -> np.ndarray:
    """``log sum_i exp(V_ij / tau)`` per column, max-shifted."""
    top = V.max(axis=0)
    return np.log(np.exp((V - top[None, :]) / tau).sum(axis=0)) + top / tau


def is_compensation(V_bank: np.ndarray, tau: float) -> np.ndarray:
    """IS hubness vector ``h_j = -tau * LSE_i(V_ij / tau)``."""
    return -tau * column_lse(V_bank, tau)


def sinkhorn_g(V: np.ndarray, tau: float, sweeps: int) -> np.ndarray:
    """Column potential after ``sweeps`` row-then-column balancing sweeps
    from g = 0, uniform marginals, computed with scaling vectors.

    ``K = exp((V - max V)/tau)``; the shift rescales u but leaves v, hence
    ``g = tau log v``, unchanged.  For |V| <= 1 and tau >= 0.005 every
    factor stays inside float64 range.
    """
    m, n = V.shape
    K = np.exp((V - V.max()) / tau)
    a = np.full(m, 1.0 / m)
    b = np.full(n, 1.0 / n)
    v = np.ones(n)
    for _ in range(sweeps):
        u = a / (K @ v)
        v = b / (K.T @ u)
    return tau * np.log(v)


def sample_positions(shape, count: int = 512, seed: int = 20250817) -> tuple[np.ndarray, np.ndarray]:
    """Fixed pseudo-random entries at which output values are compared."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, shape[0], count), rng.integers(0, shape[1], count)


def plan_facts(pi: np.ndarray, a: np.ndarray, b: np.ndarray) -> dict:
    """Marginal errors, entropy, sparsity and shape of a plan, computed directly."""
    positive = pi[pi > 0.0]
    return {
        "finite": bool(np.all(np.isfinite(pi))),
        "min": float(pi.min()),
        "row_violation": float(np.abs(pi.sum(axis=1) - a).sum()),
        "col_violation": float(np.abs(pi.sum(axis=0) - b).sum()),
        "entropy": float(-(positive * (np.log(positive) - 1.0)).sum()),
        "sparsity": sparsity(pi),
        "permutation": is_permutation(pi),
    }


def is_permutation(pi: np.ndarray) -> bool:
    """Square 0/1 matrix with exactly one 1 per row and per column."""
    if pi.shape[0] != pi.shape[1]:
        return False
    binary = np.all((pi == 0.0) | (pi == 1.0))
    return bool(binary and np.all(pi.sum(axis=0) == 1.0) and np.all(pi.sum(axis=1) == 1.0))


def sparsity(pi: np.ndarray, eps_rel: float = 1e-9) -> float:
    return float(np.mean(pi < eps_rel * pi.max()))


def assignment_optimum(V: np.ndarray) -> float:
    """Largest total score of a one-to-one assignment (scipy's solver)."""
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(V, maximize=True)
    return float(V[rows, cols].sum())


def emd(X: np.ndarray, Y: np.ndarray, subsample: int, repeats: int, seed: int) -> float:
    """Mean per-point optimal assignment cost of Euclidean subsamples,
    drawing the subsamples the way hubkit documents (per-repeat streams
    seeded by (seed, repeat))."""
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    size = min(subsample, X.shape[0], Y.shape[0])
    total = 0.0
    for repeat in range(repeats):
        rng = np.random.default_rng((seed, repeat))
        xi = rng.choice(X.shape[0], size=size, replace=False)
        yi = rng.choice(Y.shape[0], size=size, replace=False)
        cost = cdist(X[xi], Y[yi])
        rows, cols = linear_sum_assignment(cost)
        total += float(cost[rows, cols].sum()) / size
    return total / repeats


def f32(x: np.ndarray) -> np.ndarray:
    """Round through float32, as a SIM1/EMB1 write-then-read does."""
    return np.asarray(x, dtype=np.float64).astype("<f4").astype(np.float64)


def matrix_file_bytes(magic: bytes, values: np.ndarray) -> bytes:
    """The exact bytes of an EMB1/SIM1 file holding ``values``."""
    rows, cols = values.shape
    header = magic + np.array([rows, cols], dtype="<u4").tobytes()
    return header + np.ascontiguousarray(values, dtype="<f4").tobytes()


def read_matrix_file(path) -> np.ndarray:
    """Payload of an EMB1/SIM1 file as float64, sized by its header."""
    with open(path, "rb") as fh:
        blob = fh.read()
    rows, cols = (int(x) for x in np.frombuffer(blob, dtype="<u4", count=2, offset=4))
    if len(blob) != 12 + 4 * rows * cols:
        raise ValueError(f"{path}: {len(blob)} bytes for a {rows}x{cols} header")
    return np.frombuffer(blob, dtype="<f4", count=rows * cols, offset=12).reshape(rows, cols).astype(np.float64)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
