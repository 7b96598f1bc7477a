"""Spectral measurements: `pack`'s lambda bound and `spectrum`'s eigenvalues.

lambda = max(lambda_2, |lambda_n|) is the largest eigenvalue magnitude of the
adjacency operator with the all-ones direction deflated, A' : x -> A x -
d*mean(x) (the all-ones vector is an eigenvector of every regular graph,
with eigenvalue d). On graphs with n <= DENSE_LIMIT both the bound `pack`
consumes and `spectrum`'s measurement come from one dense symmetric
eigendecomposition, built in numpy, and are exact.

Above that, `pack` takes lambda from `lambda_bound`: a fixed number of plain
Lanczos steps on A'^2, which is positive semidefinite with top eigenvalue
lambda^2. Kuczynski and Wozniakowski (SIAM J. Matrix Anal. Appl. 13(4),
1992) bound how far the top Ritz value theta_k of k steps from a uniformly
random start can fall below it: P(theta_k < (1 - eps) lambda^2) <= 1.648 sqrt(n)
e^(-sqrt(eps) (2k - 1)). With eps = 1 - 1/SAFETY_MARGIN^2 the bound
SAFETY_MARGIN * sqrt(theta_k) is at least lambda except with probability
BOUND_DELTA once k >= `lanczos_steps(n)`: 33 steps at n = 20000 and at
n = 50000. Three caveats: the probability is over the start vector, which is
seeded and therefore fixed for a given n; the theorem is proved in exact
arithmetic, while the basis here is float32 (fully reorthogonalised, with
the tridiagonal matrix accumulated in float64); and A'^2 cannot tell
lambda_2 from lambda_n, which is why `spectrum` measures them separately.
The bound needs numpy alone, so `pack` never imports SciPy.

`spectrum` measures lambda_2 and lambda_n by one Lanczos call (ARPACK, via
SciPy, imported on first use) at both ends of A' in float64, to a relative
tolerance tol. Its profile carries the true residual |A'x - theta x| of the
unit Ritz vector x at each end, so a report shows how well its eigenvalues
converged; the dense path reports 0. A residual does not bound the distance
to the extreme eigenvalue: a Ritz pair that converged to an interior
eigenvalue has a small residual too.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log, sqrt

import numpy as np

from .errors import EigenConvergenceError, NonRegularGraph
from .graph import Graph
from .rand import rng_for

DENSE_LIMIT = 512
SAFETY_MARGIN = 1.05
BOUND_DELTA = 1e-6  # the probability that lambda_bound falls below lambda
_V0_TAG = 0xE16E
# |w| / |A'^2 q| below this after reorthogonalisation is float32 rounding:
# the Krylov space is invariant, and the Lanczos run stops there
_BREAKDOWN = 1e-5

# perfbench/trace_pack.py rebinds this name; `spectrum` imports SciPy itself
spla = None


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
            "ratio": self.ratio if self.lam > 0 else None,  # JSON has no Infinity
            "tol": self.tol,
            "lambda2_residual": self.lambda2_residual,
            "lambda_n_residual": self.lambda_n_residual,
        }


@dataclass(frozen=True)
class LambdaBound:
    """The lambda that parameter derivation consumes, and how it was found."""

    bound: float  # an upper bound on lambda; lambda itself when exact
    ritz: float   # sqrt(theta_k), the Lanczos estimate; lambda when exact
    steps: int    # Lanczos steps taken on A'^2 (fewer than planned on breakdown)
    delta: float  # probability that bound < lambda; 0 when exact
    method: str   # "dense" | "closed-form" | "lanczos"

    def to_json(self) -> dict:
        return {"lambda_bound": self.bound, "ritz_lambda": self.ritz,
                "steps": self.steps, "delta": self.delta, "method": self.method}


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
    a = np.zeros((g.n, g.n))
    a[g.row_index, g.indices] = 1.0
    w = np.linalg.eigvalsh(a)
    return float(w[-2]), float(w[0])


def _closed_form(d: int, n: int) -> tuple[float, float] | None:
    """lambda_2 and lambda_n of the graphs whose deflated spectrum is known.

    The empty graph's is all 0. K_n (d = n - 1) is the one graph with
    lambda_2 < 0: lambda_2 = lambda_n = -1.
    """
    if d == 0:
        return 0.0, 0.0
    if d == n - 1:
        return -1.0, -1.0
    return None


def _iterative_extremal(g: Graph, tol: float) -> tuple[float, float, float, float]:
    """Lanczos estimates of lambda_2 and lambda_n from one call at both ends,
    then the residuals |A'x - theta x| of their unit Ritz vectors.

    trace A = 0 gives lambda_n < 0 once there is an edge, and interlacing on
    the zero 2x2 block of any non-adjacent pair gives lambda_2 >= 0: the two
    ends of the deflated spectrum are lambda_n and lambda_2. The graphs of
    `_closed_form` have no such pair or no edge, and are answered with
    residual 0.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as linalg

    d = _require_regular(g)
    n = g.n
    known = _closed_form(d, n)
    if known is not None:
        return (*known, 0.0, 0.0)
    a = sp.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(n, n))
    op = linalg.LinearOperator((n, n), matvec=lambda x: a @ x - d * x.mean(),
                               dtype=np.float64)
    v0 = rng_for(_V0_TAG, n).standard_normal(n)
    try:
        w, x = linalg.eigsh(op, k=2, which="BE", tol=tol, v0=v0)
    except linalg.ArpackNoConvergence as exc:
        raise EigenConvergenceError(f"Lanczos did not converge: {exc}") from None
    # both residuals from one sparse product; these two columns are the only
    # applications of A' outside the Lanczos call
    residual = np.linalg.norm(a @ x - d * x.mean(axis=0) - x * w, axis=0)
    hi, lo = int(np.argmax(w)), int(np.argmin(w))
    return float(w[hi]), float(w[lo]), float(residual[hi]), float(residual[lo])


def lanczos_steps(n: int) -> int:
    """Lanczos steps on A'^2 after which SAFETY_MARGIN * sqrt(theta_k) bounds
    lambda except with probability BOUND_DELTA (Kuczynski-Wozniakowski)."""
    eps = 1 - 1 / SAFETY_MARGIN ** 2
    return ceil((log(1.648 * sqrt(n) / BOUND_DELTA) / sqrt(eps) + 1) / 2)


def lambda_bound(g: Graph) -> LambdaBound:
    """The lambda parameter derivation consumes: exact on the dense path and
    for the closed forms, else SAFETY_MARGIN * sqrt(theta_k) from
    `lanczos_steps(n)` Lanczos steps on A'^2."""
    d = _require_regular(g)
    n = g.n
    if n <= DENSE_LIMIT:
        lambda2, lambda_n = _dense_extremal(g)
        lam = max(lambda2, abs(lambda_n))
        return LambdaBound(lam, lam, 0, 0.0, "dense")
    known = _closed_form(d, n)
    if known is not None:
        lam = max(known[0], abs(known[1]))
        return LambdaBound(lam, lam, 0, 0.0, "closed-form")
    v0 = rng_for(_V0_TAG, n).standard_normal(n)
    theta, steps = _top_ritz_value(_deflated_adjacency(g, d), v0, lanczos_steps(n))
    ritz = sqrt(theta)
    return LambdaBound(SAFETY_MARGIN * ritz, ritz, steps, BOUND_DELTA, "lanczos")


def _deflated_adjacency(g: Graph, d: int):
    """x -> A x - d*mean(x) on float32 vectors, as a gather over the neighbour
    lists: row r of `cols` holds every vertex's r-th neighbour, so each of
    the d passes gathers n entries and adds them in place."""
    cols = np.ascontiguousarray(g.indices.reshape(g.n, d).T)
    buf = np.empty(g.n, dtype=np.float32)

    # CSR indices lie in [0, n): "wrap" is the identity and skips bounds checks
    def apply(x: np.ndarray) -> np.ndarray:
        y = x.take(cols[0], mode="wrap")
        for row in cols[1:]:
            np.take(x, row, out=buf, mode="wrap")
            y += buf
        y -= np.float32(d * x.mean(dtype=np.float64))
        return y

    return apply


def _dot64(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.dot(x.astype(np.float64), y.astype(np.float64)))


def _top_ritz_value(deflated, v0: np.ndarray, k: int) -> tuple[float, int]:
    """Top Ritz value of up to k plain Lanczos steps on A'^2 = A'A' from v0,
    and the number of steps taken.

    The basis is float32 and fully reorthogonalised (two Gram-Schmidt
    passes); alpha = |A'q|^2 and beta are summed in float64, and so is the
    tridiagonal matrix. The run stops early at breakdown, where the
    residual is zero up to float32 rounding.
    """
    basis = np.empty((k, v0.size), dtype=np.float32)
    q = (v0 / np.linalg.norm(v0)).astype(np.float32)
    alpha: list[float] = []
    beta: list[float] = []
    for j in range(k):
        basis[j] = q
        u = deflated(q)
        alpha.append(_dot64(u, u))  # q.A'^2 q, and never negative
        if j == k - 1:
            break
        w = deflated(u)
        size = sqrt(_dot64(w, w))
        head = basis[:j + 1]
        for _ in range(2):
            w -= (head @ w) @ head
        b = sqrt(_dot64(w, w))
        if b <= _BREAKDOWN * size:
            break
        beta.append(b)
        q = w / np.float32(b)
    t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    return float(np.linalg.eigvalsh(t)[-1]), len(alpha)
