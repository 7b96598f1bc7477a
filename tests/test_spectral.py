import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from cdspack import (complete_graph, cycle_graph, edge_count_between,
                     expansion_check, extremal_eigenvalues, lambda_with_margin,
                     petersen_graph, random_regular)
from cdspack.cli import _build_parser
from cdspack.errors import NonRegularGraph
from cdspack.graph import Graph
from cdspack import spectral
from cdspack.rand import rng_for
from cdspack.spectral import DENSE_LIMIT, _dense_extremal, _iterative_extremal


def mixing_slack(g, lam, a, b):
    """lam*sqrt(|a||b|) - |e(a,b) - |a||b|d/n|, the expander mixing lemma's slack.

    Nonnegative (up to rounding) whenever lam is a true upper bound on the
    graph's second eigenvalue magnitude.
    """
    d = spectral._require_regular(g)
    if len(a) == 0 or len(b) == 0:
        return 0.0
    expected = len(a) * len(b) * d / g.n
    return lam * math.sqrt(len(a) * len(b)) - abs(edge_count_between(g, a, b) - expected)


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
        mixing_slack(g, 1.0, [0], [1])


def test_iterative_matches_dense_small():
    tol = 1e-9
    for seed, (n, d) in enumerate([(64, 8), (128, 10), (256, 12)]):
        g = random_regular(n, d, seed)
        l2_d, ln_d = _dense_extremal(g)
        l2_i, ln_i, _, _ = _iterative_extremal(g, tol)
        assert l2_i == pytest.approx(l2_d, abs=10 * tol + 1e-8)
        assert ln_i == pytest.approx(ln_d, abs=10 * tol + 1e-8)


def record_eigsh(monkeypatch) -> list:
    """Stub spectral.spla so each eigsh call appends (operator, kwargs, result)."""
    real = spectral.spla
    calls = []

    def eigsh(op, **kwargs):
        result = real.eigsh(op, **kwargs)
        calls.append((op, kwargs, result))
        return result

    monkeypatch.setattr(spectral, "spla", SimpleNamespace(
        LinearOperator=real.LinearOperator, eigsh=eigsh,
        ArpackNoConvergence=real.ArpackNoConvergence))
    return calls


def test_iterative_path_makes_one_lanczos_call(monkeypatch):
    calls = record_eigsh(monkeypatch)
    tol = 1e-8
    g = random_regular(600, 8, 4)
    l2_i, ln_i, r2, rn = _iterative_extremal(g, tol)
    assert len(calls) == 1
    l2_d, ln_d = _dense_extremal(g)
    assert l2_i == pytest.approx(l2_d, abs=10 * tol * 8)
    assert ln_i == pytest.approx(ln_d, abs=10 * tol * 8)
    assert 0 <= r2 < 1e-5 and 0 <= rn < 1e-5  # converged pairs, tiny residuals


PACK_TOL = _build_parser().parse_args(["pack"]).tol


@pytest.mark.parametrize("tol, dtype", [(PACK_TOL, np.float32), (1e-6, np.float64)],
                         ids=["pack-default", "1e-6"])
def test_lanczos_precision_follows_tol(monkeypatch, tol, dtype):
    calls = record_eigsh(monkeypatch)
    g = random_regular(600, 8, 4)
    _iterative_extremal(g, tol)
    (op, kwargs, _), = calls
    assert op.dtype == dtype and kwargs["v0"].dtype == dtype
    x = rng_for(7).standard_normal(g.n).astype(dtype)
    y = op.matvec(x)
    assert y.dtype == dtype
    # x -> A x - d*mean(x), in the call's precision
    a = spectral._adjacency_csr(g)
    expected = a @ x.astype(np.float64) - 8 * x.astype(np.float64).mean()
    assert np.allclose(y, expected, rtol=0, atol=100 * np.finfo(dtype).eps)


def float64_lanczos(g, tol):
    """lambda of one float64 Lanczos call on the operator and v0 spectral uses."""
    a = spectral._adjacency_csr(g)
    d = g.regular_degree()
    op = spla.LinearOperator((g.n, g.n), matvec=lambda x: a @ x - d * x.mean(),
                             dtype=np.float64)
    v0 = rng_for(spectral._V0_TAG, g.n).standard_normal(g.n)
    w = spla.eigsh(op, k=2, which="BE", tol=tol, v0=v0, return_eigenvectors=False)
    return float(np.abs(w).max())


@pytest.mark.parametrize("d", [8, 64])
def test_single_precision_lambda_and_residuals(monkeypatch, d):
    """At pack's tol, float32 moves lambda by far less than the tolerance, and
    each residual is the float64 norm of A'x - theta x for the returned pair."""
    g = random_regular(2000, d, 1)
    calls = record_eigsh(monkeypatch)
    prof = extremal_eigenvalues(g, tol=PACK_TOL)
    assert prof.method == "iterative"
    assert isinstance(prof.lambda2, float) and isinstance(prof.lambda_n, float)
    assert prof.lam == pytest.approx(float64_lanczos(g, PACK_TOL), rel=1e-5)
    (_, _, (w, x)), = calls
    assert w.dtype == x.dtype == np.float32
    w, x = w.astype(np.float64), x.astype(np.float64)
    a = spectral._adjacency_csr(g)
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


@pytest.mark.parametrize("g, lambda2, lambda_n", [
    (complete_graph(600), -1.0, -1.0),           # the one graph with lambda_2 < 0
    (two_copies(random_regular(600, 6, 3)), 6.0, None),  # disconnected: d repeats
    (cycle_graph(600), None, -2.0),              # bipartite: -d is an eigenvalue
], ids=["K600", "two-copies", "C600"])
def test_iterative_path_known_spectra(g, lambda2, lambda_n):
    tol = 1e-6
    assert g.n > DENSE_LIMIT
    prof = extremal_eigenvalues(g, tol=tol)
    assert prof.method == "iterative"
    scale = max(1.0, abs(prof.lambda2), abs(prof.lambda_n))
    if lambda2 is not None:
        assert prof.lambda2 == pytest.approx(lambda2, abs=10 * tol * scale)
    if lambda_n is not None:
        assert prof.lambda_n == pytest.approx(lambda_n, abs=10 * tol * scale)


def test_margin_applies_to_iterative_only():
    dense = extremal_eigenvalues(petersen_graph())
    assert lambda_with_margin(dense) == dense.lam
    assert dense.lambda2_residual == dense.lambda_n_residual == 0.0
    g = random_regular(600, 8, 4)
    it = extremal_eigenvalues(g, tol=1e-8)
    assert it.method == "iterative"
    assert lambda_with_margin(it) == pytest.approx(1.05 * it.lam)


@pytest.mark.parametrize("n", [600, 1000])
@pytest.mark.parametrize("d", [4, 16, 64])
@pytest.mark.parametrize("seed", [1, 2])
def test_default_pack_tol_stays_inside_margin(n, d, seed):
    """At pack's default tolerance the margin still covers the Lanczos error."""
    tol = _build_parser().parse_args(["pack"]).tol
    g = random_regular(n, d, seed)
    prof = extremal_eigenvalues(g, tol=tol)
    assert prof.method == "iterative"
    lambda2, lambda_n = _dense_extremal(g)  # np.linalg.eigvalsh
    lam = max(lambda2, -lambda_n)
    assert lambda_with_margin(prof) >= lam
    assert abs(prof.lam - lam) <= 1e-3 * lam
    blob = prof.to_json()
    assert blob["lambda2_residual"] >= 0 and blob["lambda_n_residual"] >= 0


@pytest.mark.parametrize("d", [4, 16, 64])
def test_default_pack_tol_holds_at_larger_n(d):
    """Past the dense sizes, check the default against a tol 1e-10 run."""
    tol = _build_parser().parse_args(["pack"]).tol
    g = random_regular(5000, d, 1)
    lam = extremal_eigenvalues(g, tol=1e-10).lam
    prof = extremal_eigenvalues(g, tol=tol)
    assert lambda_with_margin(prof) >= lam
    assert abs(prof.lam - lam) <= 1e-3 * lam


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


def test_expansion_check_examples():
    k20 = complete_graph(20)
    rep = expansion_check(k20, list(range(20)), [0], eps=1.0, k=1.5)
    assert rep.passed and rep.ratio == pytest.approx(19.0)
    rep = expansion_check(k20, list(range(20)), [], eps=1.0, k=1.5)
    assert rep.passed and rep.vacuous
    # long cycles cannot expand singletons by more than their two neighbors
    c48 = cycle_graph(48)
    rep = expansion_check(c48, list(range(48)), [0], eps=1.0, k=3.0)
    assert not rep.passed and rep.ratio == pytest.approx(2.0)


def test_expansion_check_preconditions():
    k20 = complete_graph(20)
    with pytest.raises(ValueError):
        expansion_check(k20, list(range(20)), [0], eps=1.0, k=1.0)
    with pytest.raises(ValueError):
        expansion_check(k20, list(range(20)), [0, 1, 2], eps=1.0, k=1.5)
    with pytest.raises(ValueError):
        expansion_check(k20, [0, 1], [0], eps=1.0, k=1.5)  # b-degree too small
