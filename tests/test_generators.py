import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cdspack import (GenSpec, binomial_random, complete_graph, cycle_graph,
                     generate, glued_cliques, petersen_graph, random_regular)
from cdspack.generators import _ROUND_CAP, _pairing_attempt, _suitable
from cdspack.rand import rng_for

SRC = Path(__file__).resolve().parents[1] / "src"


def reference_pairing_attempt(rng, n, d):
    """One pairing attempt as first written: a stable argsort marks the first
    pair of each key, and the kept keys are re-sorted into `existing` every
    round. Returns the attempt's sorted keys (or None) and its round count."""
    existing = np.empty(0, dtype=np.int64)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    for rounds in range(_ROUND_CAP):
        if stubs.size == 0:
            return existing, rounds
        stubs = rng.permutation(stubs)
        u, v = stubs[0::2], stubs[1::2]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = lo * n + hi
        order = np.argsort(keys, kind="stable")
        skeys = keys[order]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = skeys[1:] != skeys[:-1]
        keep = np.zeros(keys.size, dtype=bool)
        keep[order[first]] = True
        dup_old = np.isin(keys, existing)
        good = (lo != hi) & keep & ~dup_old
        if not good.any():
            if not _suitable(stubs, existing, n):
                return None, rounds + 1
            continue
        existing = np.sort(np.concatenate([existing, keys[good]]))
        stubs = np.concatenate([u[~good], v[~good]])
    return None, _ROUND_CAP


def test_random_regular_degree_audit():
    g = random_regular(10, 3, 1)
    assert g.n == 10
    assert set(g.degrees.tolist()) == {3}
    for u in range(10):
        nbrs = g.neighbors(u).tolist()
        assert len(nbrs) == len(set(nbrs))
        assert u not in nbrs


def test_random_regular_validation():
    with pytest.raises(ValueError):
        random_regular(5, 3, 0)   # n*d odd
    with pytest.raises(ValueError):
        random_regular(4, 4, 0)   # d >= n
    with pytest.raises(ValueError):
        random_regular(4, 0, 0)


def test_random_regular_deterministic():
    a = random_regular(60, 6, 42)
    b = random_regular(60, 6, 42)
    assert np.array_equal(a.edge_array(), b.edge_array())
    c = random_regular(60, 6, 43)
    assert not np.array_equal(a.edge_array(), c.edge_array())


@pytest.mark.parametrize("n,d", [(20, 4), (50, 7), (101, 8), (200, 16)])
def test_random_regular_more_sizes(n, d):
    g = random_regular(n, d, 7)
    assert set(g.degrees.tolist()) == {d}


# seeds whose first attempts get stuck: 3, 6, 4, 5 and 7 attempts
@pytest.mark.parametrize("n,d,seed", [(40, 12, 1), (40, 12, 5), (60, 20, 3),
                                      (100, 30, 4), (200, 40, 5)])
def test_pairing_attempts_match_stable_sort_reference(n, d, seed):
    rng, ref_rng = rng_for(seed, 1), rng_for(seed, 1)
    attempts = 0
    while True:
        attempts += 1
        keys = _pairing_attempt(rng, n, d)
        want, rounds = reference_pairing_attempt(ref_rng, n, d)
        assert rounds > 1
        if want is None:
            assert keys is None
            continue
        assert keys.tolist() == want.tolist()
        break
    assert attempts > 1
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_retrying_generator_never_imports_numpy_ma():
    # (50000, 32, 1) takes three pairing attempts, so it runs _suitable's
    # leftover check, whose np.unique(stubs) imported numpy.ma on numpy 2.4
    script = ("import sys\n"
              "import numpy\n"
              "print('numpy.ma' in sys.modules)\n"
              "from cdspack.generators import random_regular\n"
              "random_regular(50000, 32, 1)\n"
              "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with_numpy, after = proc.stdout.split()
    if with_numpy == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert after == "False"


def test_binomial_extremes():
    assert binomial_random(10, 0.0, 1).m == 0
    g = binomial_random(6, 1.0, 1)
    assert g.m == 15


def test_binomial_edge_count_concentration():
    g = binomial_random(1000, 0.02, 7)
    pairs = 1000 * 999 / 2
    mean = pairs * 0.02
    sd = math.sqrt(pairs * 0.02 * 0.98)
    assert abs(g.m - mean) <= 5 * sd


def test_binomial_deterministic():
    a = binomial_random(300, 0.05, 9)
    b = binomial_random(300, 0.05, 9)
    assert np.array_equal(a.edge_array(), b.edge_array())


def test_glued_cliques_shape():
    g = glued_cliques(3)
    assert g.n == 5
    assert g.degree(0) == 4
    assert sorted(g.degrees.tolist()) == [2, 2, 2, 2, 4]
    with pytest.raises(ValueError):
        glued_cliques(1)


def test_petersen_fixture():
    g = petersen_graph()
    assert g.n == 10
    assert set(g.degrees.tolist()) == {3}


def test_cycle_and_complete():
    assert cycle_graph(5).m == 5
    assert complete_graph(4).m == 6
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_generate_dispatch():
    g = generate(GenSpec(kind="glued_cliques", k=4))
    assert g.n == 7
    with pytest.raises(ValueError):
        generate(GenSpec(kind="moebius"))
