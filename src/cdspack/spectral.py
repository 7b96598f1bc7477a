"""Spectral measurements: `pack`'s lambda bound and `spectrum`'s eigenvalues.

lambda = max(lambda_2, |lambda_n|) is the largest eigenvalue magnitude of the
adjacency operator with the all-ones direction deflated, A' : x -> A x -
d*mean(x) (the all-ones vector is an eigenvector of every regular graph,
with eigenvalue d). `_deflated_adjacency` is the one definition of A'. It
takes the product A x as a function: `pack` gets the default, a gather over
the neighbour lists in numpy alone, and `spectrum` passes SciPy's CSR
product, which adds in the same order and is faster in float64. Both
commands also answer the same graphs exactly, by `_exact_extremal`: a dense
symmetric eigendecomposition for n <= DENSE_LIMIT (method "dense"), else
the closed forms of the empty and complete graphs ("closed-form").

On other graphs `pack` takes lambda from `lambda_bound`: a fixed number of
plain Lanczos steps on A'^2, which is positive semidefinite with top
eigenvalue lambda^2. Kuczynski and Wozniakowski (SIAM J. Matrix Anal. Appl.
13(4), 1992) bound how far the top Ritz value theta_k of k steps from a
uniformly random start can fall below it: P(theta_k < (1 - eps) lambda^2) <=
1.648 sqrt(n) e^(-sqrt(eps) (2k - 1)). With eps = 1 - 1/SAFETY_MARGIN^2 the
bound SAFETY_MARGIN * sqrt(theta_k) is at least lambda except with
probability BOUND_DELTA once k >= `lanczos_steps(n)`: 33 steps at n = 20000
and at n = 50000. Three caveats: the probability is over the start vector,
which is seeded and therefore fixed for a given n; the theorem is proved in
exact arithmetic, while the basis here is float32 (fully reorthogonalised,
with the tridiagonal matrix accumulated in float64); and A'^2 cannot tell
lambda_2 from lambda_n, which is why `spectrum` measures them separately.
The bound needs numpy alone, so `pack` never imports SciPy, and no
reduction in it runs through BLAS: the dot products, the start vector's
norm and the reorthogonalisation products are `np.einsum` loops, whose
sums do not split by BLAS thread count, so the bound has the same bits under
any OPENBLAS_NUM_THREADS.

`spectrum` measures lambda_2 and lambda_n by one Lanczos call (ARPACK, via
SciPy, imported on first use) at both ends of A' in float64, to a relative
tolerance tol (method "iterative"). Its profile carries the true
residual |A'x - theta x| of the unit Ritz vector x at each end, so a report
shows how well its eigenvalues converged; both exact methods report 0. A
residual does not bound the distance to the extreme eigenvalue: a Ritz pair
that converged to an interior eigenvalue has a small residual too.
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
    method: str   # "dense" | "closed-form" | "iterative"
    lambda2_residual: float   # |A'x - lambda2 x| of its unit Ritz vector
    lambda_n_residual: float  # the same at lambda_n; both 0 when exact

    def to_json(self) -> dict:
        return {"lambda2": self.lambda2, "lambda_n": self.lambda_n, "lambda": self.lam,
                "ratio": self.ratio if self.lam > 0 else None,  # JSON has no Infinity
                "tol": self.tol, "method": self.method,
                "lambda2_residual": self.lambda2_residual,
                "lambda_n_residual": self.lambda_n_residual}


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


def require_regular(g: Graph) -> int:
    """g's degree; NonRegularGraph if g is not regular."""
    d = g.regular_degree()
    if d is None:
        raise NonRegularGraph("operation requires a regular graph")
    return d


def _exact_extremal(g: Graph, d: int) -> tuple[float, float, str] | None:
    """(lambda_2, lambda_n, method) where both are known exactly, else None.

    Dense eigendecomposition for n <= DENSE_LIMIT; above that, the empty
    graph's deflated spectrum is all 0, and K_n (d = n - 1) is the one graph
    with lambda_2 < 0: lambda_2 = lambda_n = -1.
    """
    if g.n <= DENSE_LIMIT:
        a = np.zeros((g.n, g.n))
        a[g.row_index, g.indices] = 1.0
        w = np.linalg.eigvalsh(a)
        return float(w[-2]), float(w[0]), "dense"
    if d == 0:
        return 0.0, 0.0, "closed-form"
    if d == g.n - 1:
        return -1.0, -1.0, "closed-form"
    return None


def extremal_eigenvalues(g: Graph, tol: float = 1e-9) -> SpectralProfile:
    """lambda_2 and lambda_n of the adjacency operator: exact where
    `_exact_extremal` knows them, else to relative accuracy tol."""
    d = require_regular(g)
    if not 0 < tol < float("inf"):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    exact = _exact_extremal(g, d)
    if exact is None:
        lambda2, lambda_n, residual2, residual_n = _iterative_extremal(g, d, tol)
        method = "iterative"
    else:
        lambda2, lambda_n, method = exact
        residual2 = residual_n = 0.0
    lam = max(lambda2, abs(lambda_n))
    ratio = d / lam if lam > 0 else float("inf")
    return SpectralProfile(lambda2, lambda_n, lam, ratio, tol, method,
                           residual2, residual_n)


def _iterative_extremal(g: Graph, d: int,
                        tol: float) -> tuple[float, float, float, float]:
    """Lanczos estimates of lambda_2 and lambda_n from one call at both ends,
    then the residuals |A'x - theta x| of their unit Ritz vectors.

    trace A = 0 gives lambda_n < 0 once there is an edge, and interlacing on
    the zero 2x2 block of any non-adjacent pair gives lambda_2 >= 0: on a
    graph `_exact_extremal` does not answer, the two ends of the deflated
    spectrum are lambda_n and lambda_2.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as linalg

    n = g.n
    a = sp.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(n, n))
    deflated = _deflated_adjacency(g, d, a.dot)
    op = linalg.LinearOperator((n, n), matvec=deflated, dtype=np.float64)
    v0 = rng_for(_V0_TAG, n).standard_normal(n)
    try:
        w, x = linalg.eigsh(op, k=2, which="BE", tol=tol, v0=v0)
    except linalg.ArpackNoConvergence as exc:
        raise EigenConvergenceError(f"Lanczos did not converge: {exc}") from None
    # both residuals from one product with the (n, 2) Ritz block; these two
    # columns are the only applications of A' outside the Lanczos call
    residual = np.linalg.norm(deflated(x) - x * w, axis=0)
    hi, lo = int(np.argmax(w)), int(np.argmin(w))
    return float(w[hi]), float(w[lo]), float(residual[hi]), float(residual[lo])


def lanczos_steps(n: int) -> int:
    """Lanczos steps on A'^2 after which SAFETY_MARGIN * sqrt(theta_k) bounds
    lambda except with probability BOUND_DELTA (Kuczynski-Wozniakowski)."""
    eps = 1 - 1 / SAFETY_MARGIN ** 2
    return ceil((log(1.648 * sqrt(n) / BOUND_DELTA) / sqrt(eps) + 1) / 2)


def lambda_bound(g: Graph) -> LambdaBound:
    """The lambda parameter derivation consumes: exact where
    `_exact_extremal` knows it, else SAFETY_MARGIN * sqrt(theta_k) from
    `lanczos_steps(n)` Lanczos steps on A'^2."""
    d = require_regular(g)
    exact = _exact_extremal(g, d)
    if exact is not None:
        lambda2, lambda_n, method = exact
        lam = max(lambda2, abs(lambda_n))
        return LambdaBound(lam, lam, 0, 0.0, method)
    n = g.n
    v0 = rng_for(_V0_TAG, n).standard_normal(n)
    theta, steps = _top_ritz_value(_deflated_adjacency(g, d), v0, lanczos_steps(n))
    ritz = sqrt(theta)
    return LambdaBound(SAFETY_MARGIN * ritz, ritz, steps, BOUND_DELTA, "lanczos")


def _deflated_adjacency(g: Graph, d: int, product=None):
    """A' : x -> A x - d*mean(x) along axis 0, for x of shape (n,) or (n, k)
    and in x's precision, where `product(x)` returns a new array A x.

    The default product gathers over the neighbour lists: row r of `cols`
    holds every vertex's r-th neighbour, so each of the d passes gathers n
    rows of x and adds them in place, in CSR order as SciPy's product does.
    """
    if product is None:
        cols = np.ascontiguousarray(g.indices.reshape(g.n, d).T)

        # CSR indices lie in [0, n): "wrap" is the identity and skips bounds checks
        def product(x: np.ndarray) -> np.ndarray:
            y = x.take(cols[0], axis=0, mode="wrap")
            buf = np.empty_like(y)
            for row in cols[1:]:
                np.take(x, row, axis=0, out=buf, mode="wrap")
                y += buf
            return y

    def apply(x: np.ndarray) -> np.ndarray:
        y = product(x)
        y -= (d * x.mean(axis=0, dtype=np.float64)).astype(x.dtype)
        return y

    return apply


def _dot64(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.einsum("i,i", x.astype(np.float64), y.astype(np.float64)))


def _top_ritz_value(deflated, v0: np.ndarray, k: int) -> tuple[float, int]:
    """Top Ritz value of up to k plain Lanczos steps on A'^2 = A'A' from v0,
    and the number of steps taken.

    The basis is float32 and fully reorthogonalised (two Gram-Schmidt
    passes, by einsum rather than BLAS); alpha = |A'q|^2 and beta are summed
    in float64, and so is the tridiagonal matrix. The run stops early at
    breakdown, where the residual is zero up to float32 rounding.
    """
    basis = np.empty((k, v0.size), dtype=np.float32)
    q = (v0 / sqrt(np.einsum("i,i", v0, v0))).astype(np.float32)
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
            w -= np.einsum("i,ij", np.einsum("ij,j", head, w), head)
        b = sqrt(_dot64(w, w))
        if b <= _BREAKDOWN * size:
            break
        beta.append(b)
        q = w / np.float32(b)
    t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    return float(np.linalg.eigvalsh(t)[-1]), len(alpha)
