"""Spectral measurements and the expansion checks the pipeline relies on.

lambda = max(lambda_2, |lambda_n|) is always *measured*, never assumed: for
small graphs by dense symmetric eigendecomposition, for large ones by one
Lanczos call (ARPACK) on the adjacency operator with the all-ones direction
deflated (the all-ones vector is an eigenvector of every regular graph, with
eigenvalue d). Estimates coming from the iterative path get a +5% safety
margin before being consumed by parameter derivation.

Parameters depend on lambda only through d / (1.05 lambda), so `pack` runs
Lanczos to a relative tolerance of 1e-3. A tolerance that coarse is far
above float32's resolution, so the Lanczos call runs in single precision
whenever tol >= 1000 float32 epsilons (about 1.2e-4), and in float64 below
that: `pack` runs in float32, `spectrum` (1e-9) in float64. At 1e-3 in
float32, on random regular graphs with n <= 2000, d <= 64 and seeds 1-3
the estimate fell at most 4.45e-5 (relative) below the dense lambda
(4.49e-5 in float64), and at n = 5000 at most 2.1e-5 below a 1e-10 run.
That is an empirical figure for the sizes tested, not a bound; the margin
covers it a thousandfold. Every profile carries the true residual
|A'x - theta x| of the unit Ritz vector x at each end (A' the deflated
operator), its squares summed in float64, so a report shows how well its
lambda converged; the dense path reports 0. The residual does not bound
the distance to the extreme eigenvalue: a Ritz pair that converged to an
interior eigenvalue has a small residual too, so the margin stays.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigenConvergenceError, NonRegularGraph
from .graph import Graph, _as_array, edge_count_between, gamma_restricted
from .rand import rng_for

DENSE_LIMIT = 512
SAFETY_MARGIN = 1.05
_V0_TAG = 0xE16E


@dataclass(frozen=True)
class SpectralProfile:
    lambda2: float
    lambda_n: float
    lam: float    # max(lambda2, |lambda_n|); serialized under the key "lambda"
    ratio: float  # d / lam
    tol: float
    method: str   # "dense" | "iterative"
    lambda2_residual: float   # |A'x - lambda2 x| of its unit Ritz vector
    lambda_n_residual: float  # the same at lambda_n; both 0 on the dense path

    def to_json(self) -> dict:
        return {
            "lambda2": self.lambda2,
            "lambda_n": self.lambda_n,
            "lambda": self.lam,
            "ratio": self.ratio,
            "tol": self.tol,
            "lambda2_residual": self.lambda2_residual,
            "lambda_n_residual": self.lambda_n_residual,
        }


def _require_regular(g: Graph) -> int:
    d = g.regular_degree()
    if d is None:
        raise NonRegularGraph("operation requires a regular graph")
    return d


def _profile(d: int, lambda2: float, lambda_n: float, residual2: float,
             residual_n: float, tol: float, method: str) -> SpectralProfile:
    lam = max(lambda2, abs(lambda_n))
    ratio = d / lam if lam > 0 else float("inf")
    return SpectralProfile(float(lambda2), float(lambda_n), float(lam), ratio, tol,
                           method, float(residual2), float(residual_n))


def extremal_eigenvalues(g: Graph, tol: float = 1e-9) -> SpectralProfile:
    """lambda_2 and lambda_n of the adjacency operator, to relative accuracy tol.

    Dense eigendecomposition for n <= DENSE_LIMIT, Lanczos above that.
    """
    d = _require_regular(g)
    if not 0 < tol < float("inf"):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if g.n <= DENSE_LIMIT:
        lambda2, lambda_n = _dense_extremal(g)
        return _profile(d, lambda2, lambda_n, 0.0, 0.0, tol, "dense")
    return _profile(d, *_iterative_extremal(g, tol), tol, "iterative")


def _dense_extremal(g: Graph) -> tuple[float, float]:
    w = np.linalg.eigvalsh(_adjacency_csr(g).toarray())
    return float(w[-2]), float(w[0])


def _adjacency_csr(g: Graph, dtype=np.float64) -> sp.csr_matrix:
    data = np.ones(g.indices.size, dtype=dtype)
    return sp.csr_matrix((data, g.indices, g.indptr), shape=(g.n, g.n))


def _iterative_extremal(g: Graph, tol: float) -> tuple[float, float, float, float]:
    """Lanczos estimates of lambda_2 and lambda_n from one call at both ends,
    then the residuals |A'x - theta x| of their unit Ritz vectors.

    x -> A x - d*mean(x) moves the all-ones eigenvalue d to 0 and keeps the
    rest of the spectrum. trace A = 0 gives lambda_n < 0 once there is an
    edge, and interlacing on the zero 2x2 block of any non-adjacent pair
    gives lambda_2 >= 0: the two ends of the deflated spectrum are lambda_n
    and lambda_2. Only K_n (d = n - 1) has no such pair; its lambda_2 =
    lambda_n = -1. It and the empty graph are answered in closed form, with
    residual 0.
    """
    d = _require_regular(g)
    n = g.n
    if d == 0:
        return 0.0, 0.0, 0.0, 0.0
    if d == n - 1:
        return -1.0, -1.0, 0.0, 0.0
    # single precision when tol is far coarser than its resolution (1.2e-4)
    dtype = np.float32 if tol >= 1000 * np.finfo(np.float32).eps else np.float64
    a = _adjacency_csr(g, dtype)
    op = spla.LinearOperator((n, n), matvec=lambda x: a @ x - d * x.mean(), dtype=dtype)
    v0 = rng_for(_V0_TAG, n).standard_normal(n).astype(dtype)
    try:
        w, x = spla.eigsh(op, k=2, which="BE", tol=tol, v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise EigenConvergenceError(f"Lanczos did not converge: {exc}") from None
    # both residuals from one sparse product; these two columns are the only
    # applications of A' outside the Lanczos call; their norms sum in float64
    r = a @ x - d * x.mean(axis=0) - x * w
    residual = np.linalg.norm(r.astype(np.float64, copy=False), axis=0)
    hi, lo = int(np.argmax(w)), int(np.argmin(w))
    return float(w[hi]), float(w[lo]), float(residual[hi]), float(residual[lo])


def lambda_with_margin(profile: SpectralProfile) -> float:
    """The lambda value parameter derivation should consume.

    Iterative estimates carry a +5% margin so mixing-based guarantees still
    hold under estimation error; dense values are exact and used as-is.
    """
    if profile.method == "iterative":
        return profile.lam * SAFETY_MARGIN
    return profile.lam


def mixing_slack(g: Graph, lam: float, a, b) -> float:
    """lam*sqrt(|a||b|) - |e(a,b) - |a||b|d/n|.

    Nonnegative (up to rounding) whenever lam is a true upper bound on the
    graph's second eigenvalue magnitude.
    """
    d = _require_regular(g)
    a_arr = _as_array(g, a)
    b_arr = _as_array(g, b)
    if a_arr.size == 0 or b_arr.size == 0:
        return 0.0
    e_ab = edge_count_between(g, a_arr, b_arr)
    expected = a_arr.size * b_arr.size * d / g.n
    return lam * sqrt(a_arr.size * b_arr.size) - abs(e_ab - expected)


@dataclass(frozen=True)
class ExpansionReport:
    passed: bool
    ratio: float
    threshold: float
    vacuous: bool = False


def expansion_check(g: Graph, b, x, eps: float, k: float) -> ExpansionReport:
    """Check |Gamma_b(x)| >= eps^2 * k * |x| under the stated preconditions.

    Preconditions (violations raise ValueError): k > 1, |x| <= n/(12k), and
    every vertex of g must have at least eps*d/3 neighbors in b.
    """
    d = _require_regular(g)
    if not k > 1:
        raise ValueError("k must exceed 1")
    x_arr = _as_array(g, x)
    b_arr = _as_array(g, b)
    if x_arr.size == 0:
        return ExpansionReport(True, float("inf"), eps * eps * k, vacuous=True)
    if x_arr.size > g.n / (12 * k):
        raise ValueError(f"|x|={x_arr.size} exceeds n/(12k)={g.n / (12 * k):.3f}")
    in_b = np.zeros(g.n, dtype=np.int64)
    in_b[b_arr] = 1
    b_degrees = np.bincount(g.row_index, weights=in_b[g.indices], minlength=g.n)
    need = eps * d / 3
    if b_degrees.min() < need:
        v = int(np.argmin(b_degrees))
        raise ValueError(
            f"vertex {v} has {int(b_degrees[v])} neighbors in b, needs >= {need:.3f}")
    gam = gamma_restricted(g, x_arr, b_arr)
    ratio = len(gam) / x_arr.size
    threshold = eps * eps * k
    return ExpansionReport(ratio >= threshold, ratio, threshold)
