"""Derivation of every constant the packing pipeline consumes.

Theory mode applies the asymptotic formulas verbatim and rejects any input
where a feasibility constraint fails; those constants are only attainable
for astronomically dense graphs. Practice mode keeps the same shapes but
picks a desk-scale color-grid split, honors explicit m/D overrides, replaces
a derived D < 6 by 8 and a derived m that leaves s <= n/2 by 2 (each with a
warning naming the derived value), and downgrades feasibility failures to
warnings (except s <= 0, which always errors because the forest budget
would be empty). An override of m below 1 or of D below 3 is a ValueError
in either mode: no forest can be built from it.
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
    m: int               # joinedness scale
    D: int               # extendability degree
    s: int               # forest vertex budget, n - 2Dm - 3m
    mode: str            # "theory" | "practice"
    overrides: dict = field(default_factory=dict)
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
            "overrides": dict(self.overrides),
            "n": self.n,
            "d": self.d,
            "lambda_used": self.lambda_used,
            "d_star_target": self.d_star_target,
            "warnings": list(self.warnings),
        }


def derive_params(n: int, d: int, lam: float, epsilon: float,
                  mode: str = "theory", overrides: dict | None = None) -> PackingParams:
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
    overrides = dict(overrides or {})
    # extendable.new_forest needs m >= 1 and D >= 3, in either mode
    for key, least in (("m", 1), ("D", 3)):
        if key in overrides and int(overrides[key]) < least:
            raise ValueError(f"override {key} = {overrides[key]} < {least}")
    warnings: list[str] = []

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

    m = ceil(lam * n / d) + 1
    D = floor(epsilon ** 4 * d / (36 * lam))
    if mode == "practice":
        if "D" in overrides:
            D = int(overrides["D"])
            warnings.append(f"D overridden to {D}")
        elif D < 6:  # the tree arity D // 2 - 1 needs D >= 6
            warnings.append(f"D defaulted to 8 (derived D = {D} < 6)")
            D = 8
        if "m" in overrides:
            m = int(overrides["m"])
            warnings.append(f"m overridden to {m}")
        elif n - m * (2 * D + 3) <= n // 2:
            warnings.append(f"m defaulted to 2 (derived m = {m} leaves s <= n/2)")
            m = 2
    s = n - 2 * D * m - 3 * m

    problems: list[str] = []
    if D < 3:
        problems.append(f"D = {D} < 3")
    if p1 > 1:
        problems.append(f"p1 = {p1:.6g} > 1")
    if d_star < 1:
        problems.append(f"d_star = {d_star} < 1")
    if s <= 0:
        # an empty forest budget is fatal in either mode
        raise InfeasibleParameters(f"s = {s} <= 0 (n={n}, m={m}, D={D})")
    if problems:
        if mode == "theory":
            raise InfeasibleParameters("; ".join(problems))
        warnings.extend(f"feasibility: {p}" for p in problems)

    return PackingParams(
        epsilon=epsilon, d_star=d_star, r1=r1, r2=r2, p1=p1, p2=p2,
        b_prob=b_prob, m=m, D=D, s=s, mode=mode, overrides=overrides,
        n=n, d=d, lambda_used=lam, d_star_target=d_star_target,
        warnings=warnings,
    )
