"""Derivation of every constant the packing pipeline consumes.

Theory mode applies the asymptotic formulas verbatim, including the
joinedness scale m, the extendability degree D and the forest budget
s = n - 2Dm - 3m under which the paper's connector is proved, and rejects
any input where a feasibility constraint fails. One of them is stage two's
arithmetic: every vertex must see each of the d_star classes more than
eps^2 ln d times, so d >= d_star * (floor(eps^2 ln d) + 1). With
r2 = round(ln^5 d) no degree below 332105 passes the theory gate, so no
theory run on a graph that fits in memory gets past `params`. Practice mode
keeps the same colour-grid shape with a desk-scale split and downgrades
feasibility failures to warnings. Its connector joins classes by shortest
reservoir paths, which need no m, D or s, so practice mode leaves them None.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, floor, log

from .errors import InfeasibleParameters


@dataclass
class PackingParams:
    epsilon: float
    d_star: int          # target packing size, reconciled to r1*r2
    r1: int              # first-stage color count
    r2: int              # second-stage color count
    p1: float            # per-color probability, stage one
    p2: float            # per-color probability, stage two
    b_prob: float        # reservoir probability epsilon^2
    mode: str            # "theory" | "practice"
    m: int | None = None  # joinedness scale, theory mode only
    D: int | None = None  # extendability degree, theory mode only
    s: int | None = None  # forest vertex budget n - 2Dm - 3m, theory mode only
    n: int = 0
    d: int = 0
    lambda_used: float = 0.0
    d_star_target: int = 0  # floor((1-eps) d / ln d) before grid reconciliation
    warnings: list = field(default_factory=list)

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

    Rounding always undershoots the target set count: r2 rounds to nearest,
    r1 floors, and d_star is reconciled to r1*r2.
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
    else:
        # ln^5 d dwarfs d_star at desk scale; a single-log split keeps both
        # stages meaningful while preserving r1*r2 = d_star
        r2 = max(1, round(lg))
    r1 = max(1, d_star_target // r2)
    d_star = r1 * r2
    p1 = (1 - epsilon ** 2) / r1
    p2 = 1.0 / r2
    b_prob = epsilon ** 2

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
    if p1 > 1:
        problems.append(f"p1 = {p1:.6g} > 1")
    if d_star < 1:
        problems.append(f"d_star = {d_star} < 1")
    # stage two's band: more than eps^2 ln d neighbours in each class
    need = d_star * (floor(epsilon ** 2 * lg) + 1)
    if d < need:
        problems.append(f"stage two: d = {d} < d_star * "
                        f"(floor(eps^2 ln d) + 1) = {need}")
    if problems and mode == "theory":
        raise InfeasibleParameters("; ".join(problems))

    return PackingParams(
        epsilon=epsilon, d_star=d_star, r1=r1, r2=r2, p1=p1, p2=p2,
        b_prob=b_prob, m=m, D=D, s=s, mode=mode,
        n=n, d=d, lambda_used=lam, d_star_target=d_star_target,
        warnings=[f"feasibility: {p}" for p in problems],
    )
