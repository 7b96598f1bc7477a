import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cdspack import (complete_graph, cycle_graph, edge_count_between,
                     extremal_eigenvalues, lambda_bound, petersen_graph,
                     random_regular)
from cdspack.errors import NonRegularGraph
from cdspack.graph import Graph
from cdspack import spectral
from cdspack.rand import rng_for
from cdspack.spectral import DENSE_LIMIT, _iterative_extremal, lanczos_steps

REPO = Path(__file__).resolve().parents[1]


def mixing_slack(g, lam, a, b):
    """lam*sqrt(|a||b|) - |e(a,b) - |a||b|d/n|, the expander mixing lemma's slack.

    Nonnegative (up to rounding) whenever lam is a true upper bound on the
    graph's second eigenvalue magnitude.
    """
    d = spectral.require_regular(g)
    if len(a) == 0 or len(b) == 0:
        return 0.0
    expected = len(a) * len(b) * d / g.n
    return lam * math.sqrt(len(a) * len(b)) - abs(edge_count_between(g, a, b) - expected)


def dense_adjacency(g):
    a = np.zeros((g.n, g.n))
    e = g.edge_array()
    a[e[:, 0], e[:, 1]] = a[e[:, 1], e[:, 0]] = 1.0
    return a


def dense_extremal(g):
    """lambda_2 and lambda_n by np.linalg.eigvalsh, at any n."""
    w = np.linalg.eigvalsh(dense_adjacency(g))
    return float(w[-2]), float(w[0])


def test_complete_graph_spectrum():
    prof = extremal_eigenvalues(complete_graph(5))
    assert prof.lambda2 == pytest.approx(-1.0, abs=1e-9)
    assert prof.lambda_n == pytest.approx(-1.0, abs=1e-9)
    assert prof.lam == pytest.approx(1.0, abs=1e-9)
    assert prof.ratio == pytest.approx(4.0, abs=1e-8)


def test_petersen_spectrum():
    prof = extremal_eigenvalues(petersen_graph())
    assert prof.lambda2 == pytest.approx(1.0, abs=1e-9)
    assert prof.lambda_n == pytest.approx(-2.0, abs=1e-9)
    assert prof.lam == pytest.approx(2.0, abs=1e-9)


def test_cycle_spectrum_closed_form():
    # eigenvalues of C6 are 2cos(2 pi k / 6)
    prof = extremal_eigenvalues(cycle_graph(6))
    expected = sorted(2 * math.cos(2 * math.pi * k / 6) for k in range(6))
    assert prof.lambda_n == pytest.approx(expected[0], abs=1e-9)
    assert prof.lam == pytest.approx(2.0, abs=1e-9)


def test_non_regular_rejected():
    g = Graph(3, [(0, 1)])
    with pytest.raises(NonRegularGraph):
        extremal_eigenvalues(g)
    with pytest.raises(NonRegularGraph):
        lambda_bound(g)
    with pytest.raises(NonRegularGraph):
        mixing_slack(g, 1.0, [0], [1])


def test_iterative_matches_dense_small():
    tol = 1e-9
    for seed, (n, d) in enumerate([(64, 8), (128, 10), (256, 12)]):
        g = random_regular(n, d, seed)
        l2_d, ln_d = dense_extremal(g)
        l2_i, ln_i, _, _ = _iterative_extremal(g, d, tol)
        assert l2_i == pytest.approx(l2_d, abs=10 * tol + 1e-8)
        assert ln_i == pytest.approx(ln_d, abs=10 * tol + 1e-8)


def record_eigsh(monkeypatch) -> list:
    """Stub SciPy's eigsh so each call appends (operator, kwargs, result)."""
    real = spla.eigsh
    calls = []

    def eigsh(op, **kwargs):
        result = real(op, **kwargs)
        calls.append((op, kwargs, result))
        return result

    monkeypatch.setattr(spla, "eigsh", eigsh)
    return calls


def test_iterative_path_makes_one_lanczos_call(monkeypatch):
    calls = record_eigsh(monkeypatch)
    tol = 1e-8
    g = random_regular(600, 8, 4)
    l2_i, ln_i, r2, rn = _iterative_extremal(g, 8, tol)
    assert len(calls) == 1
    l2_d, ln_d = dense_extremal(g)
    assert l2_i == pytest.approx(l2_d, abs=10 * tol * 8)
    assert ln_i == pytest.approx(ln_d, abs=10 * tol * 8)
    assert 0 <= r2 < 1e-5 and 0 <= rn < 1e-5  # converged pairs, tiny residuals


def record_deflated(monkeypatch) -> tuple[list, list]:
    """Stub spectral._deflated_adjacency so each operator it builds is kept,
    and each product lambda_bound takes with it appends its input's dtype."""
    real = spectral._deflated_adjacency
    ops, dtypes = [], []

    def deflated(g, d):
        apply = real(g, d)
        ops.append(apply)

        def recorded(x):
            dtypes.append(x.dtype)
            return apply(x)

        return recorded

    monkeypatch.setattr(spectral, "_deflated_adjacency", deflated)
    return ops, dtypes


@pytest.mark.parametrize("tol, dtype", [(None, np.float32), (1e-6, np.float64)],
                         ids=["pack-default", "1e-6"])
def test_lanczos_precision_follows_tol(monkeypatch, tol, dtype):
    """pack's bound, which takes no tol, runs its Lanczos basis in float32;
    spectrum's Lanczos call runs in float64 whatever its tol."""
    g = random_regular(600, 8, 4)
    if tol is None:
        ops, dtypes = record_deflated(monkeypatch)
        bound = lambda_bound(g)
        assert set(dtypes) == {np.dtype(dtype)}
        assert len(dtypes) == 2 * bound.steps - 1  # two products a step, one in the last
        matvec, = ops
    else:
        calls = record_eigsh(monkeypatch)
        _iterative_extremal(g, 8, tol)
        (op, kwargs, _), = calls
        assert op.dtype == dtype and kwargs["v0"].dtype == dtype
        matvec = op.matvec
    x = rng_for(7).standard_normal(g.n).astype(dtype)
    y = matvec(x)
    assert y.dtype == dtype
    # x -> A x - d*mean(x), in the call's precision
    expected = dense_adjacency(g) @ x.astype(np.float64) - 8 * x.astype(np.float64).mean()
    assert np.allclose(y, expected, rtol=0, atol=100 * np.finfo(dtype).eps)


def test_deflated_adjacency_matches_bounds_checked_gathers():
    """The "wrap" gathers give bit for bit the product of numpy's default,
    bounds-checked take with the same order of additions, and that is A'x."""
    g, d = random_regular(600, 8, 4), 8
    x = rng_for(11).standard_normal(g.n).astype(np.float32)
    cols = g.indices.reshape(g.n, d).T
    reference = np.take(x, cols[0])
    for row in cols[1:]:
        reference += np.take(x, row)
    reference -= np.float32(d * x.mean(dtype=np.float64))
    y = spectral._deflated_adjacency(g, d)(x)
    assert y.dtype == np.float32 and y.tobytes() == reference.tobytes()
    expected = dense_adjacency(g) @ x.astype(np.float64) - d * x.astype(np.float64).mean()
    assert np.allclose(y, expected, rtol=0, atol=100 * np.finfo(np.float32).eps)


@pytest.mark.parametrize("d", [8, 64])
def test_gather_and_csr_products_agree(d):
    """spectrum's A', on SciPy's CSR product, and pack's, on the gather, add
    each vertex's neighbours in the same order: the same bits in float64,
    on a vector and on an (n, 2) block."""
    g = random_regular(600, d, 4)
    a = sp.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(g.n, g.n))
    x = rng_for(13).standard_normal((g.n, 2))
    gathered = spectral._deflated_adjacency(g, d)
    csr = spectral._deflated_adjacency(g, d, a.dot)
    for v in (x[:, 0], x):
        assert gathered(v).tobytes() == csr(v).tobytes()


@pytest.mark.parametrize("d", [8, 64])
def test_single_precision_lambda_and_residuals(monkeypatch, d):
    """pack's float32 Ritz value moves lambda by far less than the margin;
    spectrum, even at a coarse tol, runs in float64, and each residual is
    the norm of A'x - theta x for the returned pair."""
    g = random_regular(2000, d, 1)
    calls = record_eigsh(monkeypatch)
    prof = extremal_eigenvalues(g, tol=1e-3)
    assert prof.method == "iterative"
    assert abs(lambda_bound(g).ritz - prof.lam) <= 1e-3 * prof.lam
    assert isinstance(prof.lambda2, float) and isinstance(prof.lambda_n, float)
    (op, kwargs, (w, x)), = calls
    assert op.dtype == kwargs["v0"].dtype == w.dtype == x.dtype == np.float64
    a = dense_adjacency(g)
    residual = np.linalg.norm(a @ x - d * x.mean(axis=0) - x * w, axis=0)
    hi, lo = int(np.argmax(w)), int(np.argmin(w))
    assert (prof.lambda2, prof.lambda_n) == (w[hi], w[lo])
    assert prof.lambda2_residual == pytest.approx(residual[hi], rel=1e-3)
    assert prof.lambda_n_residual == pytest.approx(residual[lo], rel=1e-3)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_non_finite_tol_is_rejected_before_lanczos(monkeypatch, tol):
    calls = record_eigsh(monkeypatch)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        extremal_eigenvalues(random_regular(600, 8, 4), tol=tol)
    assert calls == []


def two_copies(g):
    e = g.edge_array()
    return Graph(2 * g.n, np.vstack([e, e + g.n]).tolist())


@pytest.mark.parametrize("g, lambda2, lambda_n, method", [
    # the one graph with lambda_2 < 0, answered in closed form past the
    # dense sizes
    (complete_graph(600), -1.0, -1.0, "closed-form"),
    (two_copies(random_regular(600, 6, 3)), 6.0, None, "iterative"),  # d repeats
    (cycle_graph(600), None, -2.0, "iterative"),  # bipartite: -d is an eigenvalue
], ids=["K600", "two-copies", "C600"])
def test_iterative_path_known_spectra(g, lambda2, lambda_n, method):
    tol = 1e-6
    assert g.n > DENSE_LIMIT
    prof = extremal_eigenvalues(g, tol=tol)
    assert prof.method == method
    scale = max(1.0, abs(prof.lambda2), abs(prof.lambda_n))
    if lambda2 is not None:
        assert prof.lambda2 == pytest.approx(lambda2, abs=10 * tol * scale)
    if lambda_n is not None:
        assert prof.lambda_n == pytest.approx(lambda_n, abs=10 * tol * scale)


def test_margin_applies_to_iterative_only():
    dense = lambda_bound(petersen_graph())
    assert dense.bound == dense.ritz == pytest.approx(2.0, abs=1e-9)
    assert (dense.method, dense.steps, dense.delta) == ("dense", 0, 0.0)
    assert extremal_eigenvalues(petersen_graph()).lambda2_residual == 0.0
    it = lambda_bound(random_regular(600, 8, 4))
    assert (it.method, it.steps, it.delta) == ("lanczos", lanczos_steps(600), 1e-6)
    assert it.bound == 1.05 * it.ritz


def assert_bound_within_margin(bound, lam):
    """lambda <= bound <= 1.05 lambda, up to float32 rounding in the Ritz value."""
    assert bound.method == "lanczos"
    assert lam <= bound.bound <= 1.05 * lam * (1 + 1e-5)


# the names speak of pack's former Lanczos tolerance; they now check the
# lambda bound that pack takes in its place
@pytest.mark.parametrize("n", [600, 1000, 2000])
@pytest.mark.parametrize("d", [4, 8, 16, 32, 64])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_default_pack_tol_stays_inside_margin(n, d, seed):
    """pack's lambda bound lies between the dense lambda and 1.05 times it."""
    g = random_regular(n, d, seed)
    lambda2, lambda_n = dense_extremal(g)
    assert_bound_within_margin(lambda_bound(g), max(lambda2, -lambda_n))


@pytest.mark.parametrize("d", [4, 16, 64])
def test_default_pack_tol_holds_at_larger_n(d):
    """Past the dense sizes, check the bound against a tol 1e-10 lambda."""
    g = random_regular(5000, d, 1)
    assert_bound_within_margin(lambda_bound(g), extremal_eigenvalues(g, tol=1e-10).lam)


def test_lanczos_steps_at_benchmark_sizes():
    # 1.648 sqrt(n) e^(-sqrt(eps) (2k - 1)) <= 1e-6 with eps = 1 - 1/1.05^2
    assert lanczos_steps(20000) == lanczos_steps(50000) == 33
    eps = 1 - 1 / 1.05 ** 2
    for n in (600, 20000, 50000):
        k = lanczos_steps(n)
        assert 1.648 * math.sqrt(n) * math.exp(-math.sqrt(eps) * (2 * k - 1)) <= 1e-6
        assert 1.648 * math.sqrt(n) * math.exp(-math.sqrt(eps) * (2 * k - 3)) > 1e-6


def test_bound_stops_at_breakdown():
    """K_{300,300} (n = 600, past the dense path): A'^2 has the eigenvalues
    300^2 and 0 only, so the Krylov space is invariant after two steps."""
    g = Graph(600, [(u, 300 + v) for u in range(300) for v in range(300)])
    bound = lambda_bound(g)
    assert bound.method == "lanczos" and bound.steps == 2 < lanczos_steps(600)
    assert bound.bound == pytest.approx(315.0, rel=1e-6)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
def test_bound_does_not_depend_on_blas_threads():
    """The same bits under one and two BLAS threads: no reduction of the
    bound runs through BLAS, whose sums split by thread count."""
    script = ("from cdspack import lambda_bound, random_regular\n"
              "print(lambda_bound(random_regular(20000, 64, 1)).bound.hex())\n")
    bits = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        bits.append(proc.stdout)
    assert bits[0] == bits[1]


def test_bound_closed_forms():
    assert lambda_bound(complete_graph(600)).to_json() == {
        "lambda_bound": 1.0, "ritz_lambda": 1.0, "steps": 0, "delta": 0.0,
        "method": "closed-form"}


@pytest.mark.parametrize("g, method, lam", [
    (petersen_graph(), "dense", 2.0),
    (complete_graph(600), "closed-form", 1.0),
    (Graph(600, []), "closed-form", 0.0),
], ids=["petersen", "K600", "empty600"])
def test_spectrum_and_pack_agree_on_exact_graphs(monkeypatch, g, method, lam):
    """spectrum and pack's bound decide the exact cases in one place: the
    same method and lambda, residual 0, and no Lanczos call."""
    calls = record_eigsh(monkeypatch)
    prof, bound = extremal_eigenvalues(g), lambda_bound(g)
    assert prof.method == bound.method == method
    assert prof.lam == bound.bound == bound.ritz == pytest.approx(lam, abs=1e-9)
    assert prof.lambda2_residual == prof.lambda_n_residual == 0.0
    assert (bound.steps, bound.delta, calls) == (0, 0.0, [])


def test_mixing_slack_examples():
    k4 = complete_graph(4)
    assert mixing_slack(k4, 1.0, [0, 1], [2, 3]) == pytest.approx(1.0)
    assert mixing_slack(k4, 1.0, [], [2, 3]) == 0.0


def test_mixing_slack_never_negative_on_petersen():
    g = petersen_graph()
    lam = 2.0
    rng = rng_for(5)
    for _ in range(1000):
        perm = rng.permutation(10)
        ka = int(rng.integers(1, 5))
        kb = int(rng.integers(1, 5))
        a = perm[:ka].tolist()
        b = perm[ka:ka + kb].tolist()
        slack = mixing_slack(g, lam, a, b)
        assert slack >= -1e-9 * math.sqrt(ka * kb)
