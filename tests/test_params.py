import math

import numpy as np
import pytest

from cdspack import derive_params
from cdspack.errors import InfeasibleParameters


def test_theory_gate_rejects():
    # D = floor(0.1^4 * 1e4 / 3600) = 0 < 3
    with pytest.raises(InfeasibleParameters, match="D = 0"):
        derive_params(10**6, 10**4, 100.0, 0.1, "theory")


def test_theory_gate_accepts():
    pars = derive_params(10**8, 3 * 10**7, 1100.0, 0.8, "theory")
    assert pars.D == 310
    d = 3 * 10**7
    assert pars.d_star_target == math.floor(0.2 * d / math.log(d)) == 348498
    assert pars.r1 * pars.r2 == pars.d_star
    assert pars.m == math.ceil(1100.0 * 10**8 / d) + 1
    assert pars.s == 10**8 - 2 * pars.D * pars.m - 3 * pars.m
    assert pars.s > 0
    # stage two's band: d_star classes, each seen floor(0.64 ln d) + 1 times
    assert d >= pars.d_star * (math.floor(0.64 * math.log(d)) + 1)


def test_grid_reconciliation_and_probabilities():
    pars = derive_params(5000, 64, 17.0, 0.3, "practice")
    assert pars.r1 * pars.r2 == pars.d_star
    assert pars.r2 == round(math.log(64))
    assert pars.p1 == pytest.approx((1 - 0.09) / pars.r1)
    assert pars.p2 == pytest.approx(1 / pars.r2)
    assert pars.b_prob == pytest.approx(0.09)
    assert 0 < pars.p1 <= 1


def test_s_nonpositive_always_errors():
    # theory mode: m = ceil(50*200/60)+1 = 168 makes s = 200 - 3*168 < 0, and
    # the empty forest budget is reported ahead of D = 0 < 3
    with pytest.raises(InfeasibleParameters, match="s = -304 <= 0"):
        derive_params(200, 60, 50.0, 0.9, "theory")


def test_monotonicity_in_lambda():
    prev = None
    for lam in [5.0, 10.0, 20.0]:
        pars = derive_params(10**8, 3 * 10**7, lam, 0.5, "theory")
        assert pars.D == math.floor(0.5 ** 4 * 3 * 10**7 / (36 * lam)) >= 6
        if prev is not None:
            assert pars.D <= prev
        prev = pars.D


def test_theory_mode_has_no_defaults():
    pars = derive_params(10**8, 3 * 10**7, 1100.0, 0.8, "theory")
    assert pars.D == 310 and pars.m == math.ceil(1100.0 * 10**8 / (3 * 10**7)) + 1
    assert pars.warnings == []


def test_input_validation():
    with pytest.raises(ValueError):
        derive_params(10, 10, 1.0, 0.5)
    with pytest.raises(ValueError):
        derive_params(100, 10, -1.0, 0.5)
    with pytest.raises(ValueError):
        derive_params(100, 10, 1.0, 1.5)
    with pytest.raises(ValueError):
        derive_params(100, 10, 1.0, 0.5, mode="rehearsal")


def test_practice_leaves_m_d_s_unset():
    # n=5000, d=64, lam=17: the theory formulas would give D = 0 and m = 1330
    pars = derive_params(5000, 64, 17.0, 0.3, "practice")
    assert (pars.m, pars.D, pars.s) == (None, None, None)
    assert pars.warnings == []
    # m = 168 would make the forest budget s negative; practice has none
    pars = derive_params(200, 60, 50.0, 0.9, "practice")
    assert pars.s is None and pars.d_star >= 1


@pytest.mark.parametrize("args, blob", [
    ((5000, 64, 17.0, 0.3, "practice"),
     {"epsilon": 0.3, "d_star": 8, "r1": 2, "r2": 4, "p1": 0.455, "p2": 0.25,
      "b_prob": 0.09, "m": None, "D": None, "s": None, "mode": "practice",
      "n": 5000, "d": 64, "lambda_used": 17.0, "d_star_target": 10,
      "warnings": []}),
    ((10**8, 3 * 10**7, 1100.0, 0.8, "theory"),
     {"epsilon": 0.8, "d_star": 1512692, "r1": 1, "r2": 1512692,
      "p1": 0.3599999999999999, "p2": 6.610731067527296e-07,
      "b_prob": 0.6400000000000001, "m": 3668, "D": 310, "s": 97714836,
      "mode": "theory", "n": 10**8, "d": 3 * 10**7, "lambda_used": 1100.0,
      "d_star_target": 348498, "warnings": []}),
], ids=["practice", "theory"])
def test_derived_values_keep_their_bits(args, blob):
    # d_star, b_prob, p1 and p2 are computed from r1, r2 and epsilon; the
    # report must carry the same keys, order and floats as when they were
    # stored
    got = derive_params(*args).to_json()
    assert list(got) == list(blob)
    assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in blob.items()}


def test_derived_values_are_read_only():
    pars = derive_params(5000, 64, 17.0, 0.3, "practice")
    for name in ("d_star", "b_prob", "p1", "p2"):
        with pytest.raises(AttributeError):
            setattr(pars, name, 1)


def test_json_round_trip_keys():
    # one report shape in both modes: practice reports m, D and s as null
    for mode in ("practice", "theory"):
        pars = derive_params(10**8, 3 * 10**7, 1100.0, 0.8, mode)
        blob = pars.to_json()
        assert set(blob) == {"epsilon", "d_star", "r1", "r2", "p1", "p2",
                             "b_prob", "m", "D", "s", "mode", "n", "d",
                             "lambda_used", "d_star_target", "warnings"}
        assert (blob["m"], blob["D"], blob["s"]) == (pars.m, pars.D, pars.s)


@pytest.mark.parametrize("epsilon", [0.1, 0.2, 0.3, 0.9, 0.999])
def test_theory_grid_outgrows_the_degree_wherever_the_gate_passes(epsilon):
    # lambda = 1 is the least lambda of a graph with an edge, and n = d + 1
    # the least n. D >= 3 needs d >= 108 / epsilon^4 > 108, and then
    # d_star >= r2 = round(ln^5 d) > d up to d = 332104, so stage two's band
    # asks each vertex to see more classes than it has neighbours. The gate
    # itself rejects all of those degrees; where it passes, each of the
    # d_star classes fits floor(eps^2 ln d) + 1 times into the degree
    grid = set(np.geomspace(3, 10**7, 500).astype(int).tolist())
    passed = []
    for d in sorted(grid | {108, 109, 110, 332104, 332105}):
        try:
            pars = derive_params(d + 1, d, 1.0, epsilon, "theory")
        except InfeasibleParameters:
            continue
        passed.append(d)
        assert d >= pars.d_star * (math.floor(epsilon ** 2 * math.log(d)) + 1)
    assert all(d >= 332105 for d in passed), passed[:1]
    if epsilon == 0.2:
        # eps^2 ln d < 1 and D = floor(0.0016 d / 36) >= 3: the least degree
        assert passed[0] == 332105
