"""One seed of the packing pipeline, from a lambda bound to a verified packing.

Loading the graph and bounding its lambda depend only on the graph, so a
caller does them once and calls `run` once per seed: params, coloring,
connector, whose one verification `run` reports with the target applied.
Each layer is called through its module, never through a name imported
from it, so a tracer that wraps module attributes sees every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from . import coloring, connector, params
from .coloring import DominatingFamily
from .connector import CdsPacking
from .errors import CdsPackError, ResampleBudgetExhausted, error_body
from .graph import Graph
from .params import PackingParams
from .verifier import VerificationReport

COLORING_RESTARTS = 3


@dataclass
class PackResult:
    """One seed's report body and the objects behind it.

    `body` holds every key of the seed's `pack` report except "graph" and
    "spectral". On a typed error, `error` is set, `body["error"]` names the
    phase that raised it, and the objects of that phase and later are None.
    """

    body: dict
    params: PackingParams | None = None
    family: DominatingFamily | None = None
    packing: CdsPacking | None = None
    verification: VerificationReport | None = None
    error: CdsPackError | ValueError | None = None


def run(g: Graph, lam: float, seed: int, epsilon: float,
        mode: str = "practice", max_sets: int | None = None,
        target: int | None = None) -> PackResult:
    """Derive params from `lam`, an upper bound on lambda such as
    `spectral.lambda_bound(g).bound`, then color and connect one seed on
    `g`, verified once.

    Coloring retries with the next seed up to COLORING_RESTARTS times when
    its repair loop runs out of budget or cycles. Sets that fail to connect
    are left out of the packing rather than aborting the run.
    """
    result = PackResult(body={"seed": seed, "timings": {}})
    body = result.body
    timings = body["timings"]

    def fail(phase: str, exc: CdsPackError | ValueError) -> PackResult:
        body["error"] = error_body(phase, exc)
        result.error = exc
        return result

    try:
        pars = params.derive_params(g.n, g.regular_degree(), lam, epsilon,
                                    mode=mode)
    except (CdsPackError, ValueError) as exc:
        return fail("params", exc)
    result.params = pars
    body["params"] = pars.to_json()

    try:
        t0 = time.perf_counter()
        for attempt in range(COLORING_RESTARTS):
            # set before the attempt runs, so a failed run reports it too
            body["coloring_attempts"] = attempt + 1
            try:
                colors = coloring.stage_one(g, pars, seed + attempt)
                family = coloring.build_family(g, colors, pars)
                break
            except ResampleBudgetExhausted:
                if attempt == COLORING_RESTARTS - 1:
                    raise
        timings["coloring"] = time.perf_counter() - t0
    except CdsPackError as exc:
        return fail("coloring", exc)
    result.family = family
    body["coloring_resamples"] = colors.resamples
    body["family"] = {
        "reservoir_size": len(family.reservoir),
        "set_count": len(family.sets),
        "set_sizes": [len(s) for s in family.sets],
        "component_counts": list(family.component_counts),
    }

    try:
        t0 = time.perf_counter()
        packing = connector.connect_family(g, family, pars, max_sets=max_sets)
        timings["connect"] = time.perf_counter() - t0
    except CdsPackError as exc:
        return fail("connect", exc)
    result.packing = packing
    result.verification = replace(packing.verification, target=target)
    body["packing"] = packing.to_json()
    body["connect"] = dict(packing.meta)
    body["verification"] = result.verification.to_json()
    return result
