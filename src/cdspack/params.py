"""Derivation of every constant the packing pipeline consumes.

`PackingParams` stores only free values: epsilon, the colour grid r1 x r2,
theory mode's m, D, s and the inputs. d_star = r1*r2, b_prob = eps^2,
p1 = (1 - eps^2)/r1 and p2 = 1/r2 are read-only properties derived from
them. Since r1, r2 >= 1 and eps > 0, p1 < 1 and d_star >= 1 always hold.

Theory mode applies the asymptotic formulas verbatim: the paper's two-stage
grid r2 = round(ln^5 d), r1 = d_star_target // r2, the joinedness scale m,
the extendability degree D and the forest budget s = n - 2Dm - 3m under
which the paper's connector is proved. It rejects any input where a
feasibility constraint fails. One of them is the class band: every vertex
must see each of the d_star classes more than eps^2 ln d times, so
d >= d_star * (floor(eps^2 ln d) + 1). With r2 = round(ln^5 d) no degree
below 332105 passes the theory gate, so no theory run on a graph that fits
in memory gets past `params`.

Practice mode colours in one stage: r1 = K classes and r2 = 1, so
d_star = K, p1 = (1 - eps^2)/K and p2 = 1. K is d_star_target rounded down
to a multiple of round(ln d), the set count the two-stage split gave, so
packing sizes match it. Practice mode downgrades feasibility failures to
warnings. Its connector joins classes by shortest reservoir paths, which
need no m, D or s, so practice mode leaves them None.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, floor, log

from .errors import InfeasibleParameters


@dataclass
class PackingParams:
    epsilon: float
    r1: int              # first-stage color count (practice: all K classes)
    r2: int              # second-stage color count (practice: 1)
    mode: str            # "theory" | "practice"
    m: int | None = None  # joinedness scale, theory mode only
    D: int | None = None  # extendability degree, theory mode only
    s: int | None = None  # forest vertex budget n - 2Dm - 3m, theory mode only
    n: int = 0
    d: int = 0
    lambda_used: float = 0.0
    d_star_target: int = 0  # floor((1-eps) d / ln d) before grid reconciliation
    warnings: list = field(default_factory=list)

    @property
    def d_star(self) -> int:  # target packing size, reconciled to r1*r2
        return self.r1 * self.r2

    @property
    def b_prob(self) -> float:  # reservoir probability epsilon^2
        return self.epsilon ** 2

    @property
    def p1(self) -> float:  # per-color probability, stage one
        return (1 - self.epsilon ** 2) / self.r1

    @property
    def p2(self) -> float:  # per-color probability, stage two
        return 1.0 / self.r2

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "d_star": self.d_star,
            "r1": self.r1,
            "r2": self.r2,
            "p1": self.p1,
            "p2": self.p2,
            "b_prob": self.b_prob,
            "m": self.m,
            "D": self.D,
            "s": self.s,
            "mode": self.mode,
            "n": self.n,
            "d": self.d,
            "lambda_used": self.lambda_used,
            "d_star_target": self.d_star_target,
            "warnings": list(self.warnings),
        }


def derive_params(n: int, d: int, lam: float, epsilon: float,
                  mode: str = "theory") -> PackingParams:
    """Derive all pipeline constants from (n, d, lambda, epsilon).

    Rounding always undershoots the target set count: the split
    round(ln^5 d) (theory) or round(ln d) (practice) rounds to nearest, the
    target floors to a multiple of it, and d_star is reconciled to that.
    """
    if mode not in ("theory", "practice"):
        raise ValueError(f"unknown mode {mode!r}")
    if not (n > d >= 3):
        raise ValueError("need n > d >= 3")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")

    lg = log(d)
    d_star_target = floor((1 - epsilon) * d / lg)
    if mode == "theory":
        r2 = max(1, round(lg ** 5))
        r1 = max(1, d_star_target // r2)
    else:
        # one stage of K classes; K keeps the multiple of round(ln d) that
        # the former desk-scale two-stage split packed
        split = max(1, round(lg))
        r1, r2 = max(1, d_star_target // split) * split, 1

    m = D = s = None
    problems: list[str] = []
    if mode == "theory":
        m = ceil(lam * n / d) + 1
        D = floor(epsilon ** 4 * d / (36 * lam))
        s = n - 2 * D * m - 3 * m
        if s <= 0:
            raise InfeasibleParameters(f"s = {s} <= 0 (n={n}, m={m}, D={D})")
        if D < 3:
            problems.append(f"D = {D} < 3")
    # the class band: more than eps^2 ln d neighbours in each class
    need = r1 * r2 * (floor(epsilon ** 2 * lg) + 1)
    if d < need:
        problems.append(f"class band: d = {d} < d_star * "
                        f"(floor(eps^2 ln d) + 1) = {need}")
    if problems and mode == "theory":
        raise InfeasibleParameters("; ".join(problems))

    return PackingParams(
        epsilon=epsilon, r1=r1, r2=r2, m=m, D=D, s=s, mode=mode,
        n=n, d=d, lambda_used=lam, d_star_target=d_star_target,
        warnings=[f"feasibility: {p}" for p in problems],
    )
