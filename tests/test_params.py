import math

import pytest

from cdspack import derive_params
from cdspack.errors import InfeasibleParameters


def test_theory_gate_rejects():
    # D = floor(0.1^4 * 1e4 / 3600) = 0 < 3
    with pytest.raises(InfeasibleParameters, match="D = 0"):
        derive_params(10**6, 10**4, 100.0, 0.1, "theory")


def test_theory_gate_accepts():
    pars = derive_params(10**7, 3 * 10**5, 1100.0, 0.8, "theory")
    assert pars.D == 3
    d = 3 * 10**5
    assert pars.d_star_target == math.floor(0.2 * d / math.log(d)) == 4757
    assert pars.r1 * pars.r2 == pars.d_star
    assert pars.m == math.ceil(1100.0 * 10**7 / d) + 1
    assert pars.s == 10**7 - 2 * pars.D * pars.m - 3 * pars.m
    assert pars.s > 0


def test_grid_reconciliation_and_probabilities():
    pars = derive_params(5000, 64, 17.0, 0.3, "practice", overrides={"m": 2, "D": 8})
    assert pars.r1 * pars.r2 == pars.d_star
    assert pars.r2 == round(math.log(64))
    assert pars.p1 == pytest.approx((1 - 0.09) / pars.r1)
    assert pars.p2 == pytest.approx(1 / pars.r2)
    assert pars.b_prob == pytest.approx(0.09)
    assert 0 < pars.p1 <= 1


def test_practice_overrides_and_warnings():
    pars = derive_params(10**6, 10**4, 100.0, 0.1, "practice",
                         overrides={"m": 200, "D": 8})
    assert pars.m == 200 and pars.D == 8
    assert any("overridden" in w for w in pars.warnings)
    # without overrides the derived D = 0 is replaced by the default 8
    pars = derive_params(10**6, 10**4, 100.0, 0.1, "practice")
    assert pars.D == 8
    assert any("derived D = 0" in w for w in pars.warnings)


def test_s_nonpositive_always_errors():
    # m = ceil(50*200/60)+1 = 168 makes s = 200 - 3*168 < 0 even with D = 0
    with pytest.raises(InfeasibleParameters, match="s ="):
        derive_params(200, 60, 50.0, 0.9, "practice", overrides={"m": 168})


def test_monotonicity_in_lambda():
    prev = None
    # derived D stays >= 6 here, so the formula is tested, not the default
    for lam in [5.0, 10.0, 20.0]:
        pars = derive_params(10**6, 10**5, lam, 0.5, "practice")
        assert pars.D >= 6 and not pars.overrides
        if prev is not None:
            assert pars.D <= prev
        prev = pars.D


def test_practice_defaults_fill_only_missing_keys():
    # n=5000, d=64, lam=17: derived D = 0 and m = 1330, both unusable
    pars = derive_params(5000, 64, 17.0, 0.3, "practice")
    assert (pars.m, pars.D) == (2, 8)
    assert pars.overrides == {}
    assert "D defaulted to 8 (derived D = 0 < 6)" in pars.warnings
    assert any(w.startswith("m defaulted to 2 (derived m = 1330") for w in pars.warnings)
    assert not any("overridden" in w for w in pars.warnings)

    pars = derive_params(5000, 64, 17.0, 0.3, "practice", overrides={"D": 10})
    assert (pars.m, pars.D) == (2, 10)
    assert pars.overrides == {"D": 10}
    assert "D overridden to 10" in pars.warnings
    assert not any(w.startswith("D defaulted") for w in pars.warnings)
    assert any(w.startswith("m defaulted to 2") for w in pars.warnings)

    pars = derive_params(5000, 64, 17.0, 0.3, "practice", overrides={"m": 3})
    assert (pars.m, pars.D) == (3, 8)
    assert pars.overrides == {"m": 3}
    assert [w.split(" (")[0] for w in pars.warnings] == ["D defaulted to 8",
                                                        "m overridden to 3"]


def test_theory_mode_has_no_defaults():
    pars = derive_params(10**7, 3 * 10**5, 1100.0, 0.8, "theory",
                         overrides={"m": 2, "D": 8})
    assert pars.D == 3 and pars.m == math.ceil(1100.0 * 10**7 / (3 * 10**5)) + 1
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


@pytest.mark.parametrize("mode", ["practice", "theory"])
@pytest.mark.parametrize("overrides, message", [
    ({"m": 0}, "override m = 0 < 1"),
    ({"m": -1, "D": 8}, "override m = -1 < 1"),
    ({"D": 2}, "override D = 2 < 3"),
], ids=["m-0", "m-negative", "D-2"])
def test_overrides_below_their_least_value_are_rejected(mode, overrides, message):
    with pytest.raises(ValueError, match=message):
        derive_params(5000, 64, 17.0, 0.3, mode, overrides=overrides)


def test_smallest_overrides_are_accepted():
    pars = derive_params(5000, 64, 17.0, 0.3, "practice", overrides={"m": 1, "D": 3})
    assert (pars.m, pars.D) == (1, 3)


def test_json_round_trip_keys():
    pars = derive_params(5000, 64, 17.0, 0.3, "practice", overrides={"m": 2, "D": 8})
    blob = pars.to_json()
    for key in ("epsilon", "d_star", "r1", "r2", "p1", "p2", "b_prob",
                "m", "D", "s", "mode", "overrides"):
        assert key in blob
