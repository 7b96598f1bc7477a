"""Batch front door: gen / spectrum / pack / verify subcommands.

Every run emits a single JSON report (stdout, or --report FILE) whose keys
are deterministic for a fixed config and seed; wall-clock timings live under
the separate "timings" key so reports stay diffable. A failed run reports
its phase under "error"; phases fed by arguments catch _CAUGHT, coloring and
connect only CdsPackError, and _ERROR_CODE maps each failure to its code.
Arguments argparse rejects are reported under phase "arguments" by _Parser.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import connector, generators, pipeline, spectral, verifier
from .errors import (CdsPackError, EigenConvergenceError, GenerationError,
                     GraphFormatError, InfeasibleParameters, NonRegularGraph,
                     PackingFormatError, PostconditionViolation,
                     ResampleBudgetExhausted, VerificationFailed, error_body)
from .graph import load_graph, save_graph

EXIT_CODES = {
    "ok": 0,
    "error": 1,
    "usage": 2,
    "input": 3,            # GraphFormatError, bad files
    "infeasible": 4,       # InfeasibleParameters
    "resample": 5,         # ResampleBudgetExhausted
    "postcondition": 6,    # PostconditionViolation
    "verification": 8,     # VerificationFailed or target unmet
    "spectral": 9,         # NonRegularGraph / EigenConvergenceError (spectrum)
}

_ERROR_CODE = {  # first match wins; JSONDecodeError is also a ValueError
    (GraphFormatError, PackingFormatError, GenerationError, OSError,
     json.JSONDecodeError): "input",
    InfeasibleParameters: "infeasible",
    ResampleBudgetExhausted: "resample",
    PostconditionViolation: "postcondition",
    VerificationFailed: "verification",
    (NonRegularGraph, EigenConvergenceError): "spectral",
    ValueError: "usage",  # an invalid numeric argument
}
# the failures reported by a phase that command-line arguments feed
_CAUGHT = (CdsPackError, OSError, ValueError)


def _code_for(exc: Exception) -> int:
    for cls, name in _ERROR_CODE.items():
        if isinstance(exc, cls):
            return EXIT_CODES[name]
    return EXIT_CODES["error"]


def _dumps(doc) -> str:
    # no indent: json then encodes with its C encoder; a report is a tree
    # built fresh per run, so the circular-reference check finds nothing
    return json.dumps(doc, sort_keys=True, check_circular=False)


def _write(path: str, text: str, report: dict) -> bool:
    """Write `text` to `path`; a failure is recorded in `report`, phase emit."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        report["error"] = error_body("emit", exc)
        return False
    return True


# the packing's place in the report while the report is encoded; no report
# string holds a NUL otherwise (argv and paths cannot)
_SLOT = "\0packing\0"


def _report_text(report: dict, packing: dict | None, packing_text: str) -> str:
    """`_dumps(report)`, with `packing_text` reused where `packing` sits."""
    def stub(body: dict) -> dict:
        return {**body, "packing": _SLOT} if body.get("packing") is packing else body

    if packing is not None:
        outer = stub(report)
        if "trials" in report:
            outer = {**outer, "trials": [stub(body) for body in report["trials"]]}
        slot = _dumps(_SLOT)
        head, found, tail = _dumps(outer).partition(slot)
        if found and slot not in tail:
            return head + packing_text + tail
    return _dumps(report)


def _emit(report: dict, path: str | None, code: int,
          packing_path: str | None = None, packing: dict | None = None) -> int:
    """Write the packing and the report files, print the report, return the code.

    The packing is encoded once, for its file and for its place in the
    report. A file that cannot be written makes the run an input error; the
    report, with that failure under "error", still goes to stdout.
    """
    ok = True
    packing_text = _dumps(packing) if packing is not None else ""
    if packing_path and packing is not None:
        ok = _write(packing_path, packing_text, report)
    text = _report_text(report, packing, packing_text)
    if path and not _write(path, text + "\n", report):
        ok, text = False, _report_text(report, packing, packing_text)
    print(text)
    return code if ok else EXIT_CODES["input"]


def _load_or_generate(args) -> tuple:
    if args.input:
        return load_graph(args.input), {"input": args.input}
    if args.n is None or args.d is None:
        raise GraphFormatError("either --input or both --n and --d are required")
    g = generators.random_regular(args.n, args.d, args.seed)
    return g, {"kind": "regular", "n": args.n, "d": args.d}


def run_gen(args) -> int:
    spec = generators.GenSpec(kind=args.kind, n=args.n or 0, d=args.d or 0,
                              p=args.p or 0.0, k=args.k or 0, seed=args.seed)
    report: dict = {"config": {"kind": args.kind, "n": args.n, "d": args.d,
                               "p": args.p, "k": args.k, "out": args.out},
                    "seed": args.seed, "timings": {}}
    t0 = time.perf_counter()
    try:
        g = generators.generate(spec)
        save_graph(g, args.out)
    except _CAUGHT as exc:
        report["error"] = error_body("generate", exc)
        return _emit(report, args.report, _code_for(exc))
    report["timings"]["generate"] = time.perf_counter() - t0
    report["graph"] = {"n": g.n, "m": g.m}
    return _emit(report, args.report, EXIT_CODES["ok"])


def run_spectrum(args) -> int:
    report: dict = {"config": {"input": args.input, "tol": args.tol}, "timings": {}}
    phase = "load"
    try:
        g = load_graph(args.input)
        phase = "spectral"
        t0 = time.perf_counter()
        profile = spectral.extremal_eigenvalues(g, tol=args.tol)
        report["timings"]["spectral"] = time.perf_counter() - t0
    except _CAUGHT as exc:
        report["error"] = error_body(phase, exc)
        return _emit(report, args.report, _code_for(exc))
    report["spectral"] = profile.to_json()
    return _emit(report, args.report, EXIT_CODES["ok"])


def run_pack(args) -> int:
    timings: dict = {}
    shared: dict = {}  # the "graph" and "spectral" blocks of every trial
    seeds = [args.seed + i for i in range(args.trials)]
    phase = "generate"
    try:
        t0 = time.perf_counter()
        g, ginfo = _load_or_generate(args)
        timings["generate"] = time.perf_counter() - t0
        shared["graph"] = {"n": g.n, "m": g.m, **ginfo}
        phase = "spectral"
        t0 = time.perf_counter()
        bound = spectral.lambda_bound(g)
        timings["spectral"] = time.perf_counter() - t0
        shared["spectral"] = bound.to_json()
    except _CAUGHT as exc:
        error = error_body(phase, exc)
        bodies = [{"seed": s, "timings": {}, **shared, "error": error} for s in seeds]
        code = _code_for(exc)
        packing = None
    else:
        results = [pipeline.run(g, bound.bound, s, args.epsilon, mode=args.mode,
                                max_sets=args.max_sets, target=args.target)
                   for s in seeds]
        # max keeps the first of equals, so ties go to the lowest seed
        best = max((r for r in results if r.packing is not None),
                   key=lambda r: len(r.packing.sets), default=None)
        packing = best.body["packing"] if best is not None else None
        bodies = [{**shared, **r.body} for r in results]
        code = max(_trial_code(r) for r in results)

    report: dict = {"config": _config_echo(args)}
    if len(bodies) == 1:
        report.update(bodies[0], timings={**timings, **bodies[0]["timings"]})
    else:
        report.update(timings=timings, trials=bodies)
    return _emit(report, args.report, code, args.packing_out, packing)


def _trial_code(result: pipeline.PackResult) -> int:
    if result.error is not None:
        return _code_for(result.error)
    return _verdict(result.verification)


def _verdict(report: verifier.VerificationReport) -> int:
    """Exit code of a verification: ok when clean with its target (if any) met."""
    ok = not report.failures and report.target_met is not False
    return EXIT_CODES["ok"] if ok else EXIT_CODES["verification"]


def _config_echo(args) -> dict:
    return {
        "input": args.input, "n": args.n, "d": args.d,
        "epsilon": args.epsilon, "mode": args.mode, "seed": args.seed,
        "target": args.target, "max_sets": args.max_sets,
        "trials": args.trials,
    }


def run_verify(args) -> int:
    report: dict = {"config": {"input": args.input, "packing": args.packing,
                               "target": args.target}, "timings": {}}
    try:
        g = load_graph(args.input)
        with open(args.packing, "r", encoding="utf-8") as fh:
            packing = connector.CdsPacking.from_json(json.load(fh))
    except _CAUGHT as exc:
        report["error"] = error_body("load", exc)
        return _emit(report, args.report, _code_for(exc))
    t0 = time.perf_counter()
    vreport = verifier.verify_packing(g, packing, target=args.target)
    report["timings"]["verify"] = time.perf_counter() - t0
    report["verification"] = vreport.to_json()
    return _emit(report, args.report, _verdict(vreport))


def _int_at_least(least: int):
    """An argparse type: an integer no smaller than `least`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _finite_float(text: str) -> float:
    """An argparse type: a finite float, so that every report is strict JSON."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


_finite_float.__name__ = "float"  # as in "invalid float value"


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors also print the JSON report."""

    def error(self, message: str):
        print(_dumps({"error": error_body("arguments",
                                          argparse.ArgumentError(None, message))}))
        super().error(message)  # the usage message on stderr, then exit 2


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cdspack",
        description="Construct and verify packings of disjoint connected dominating sets.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a graph and write its edge list")
    g.add_argument("--kind", required=True,
                   choices=["regular", "binomial", "glued_cliques", "complete",
                            "cycle", "petersen"])
    g.add_argument("--n", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--p", type=_finite_float)
    g.add_argument("--k", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--report")
    g.set_defaults(run=run_gen)

    s = sub.add_parser("spectrum", help="measure extremal adjacency eigenvalues")
    s.add_argument("--input", required=True)
    s.add_argument("--tol", type=_finite_float, default=1e-9)
    s.add_argument("--report")
    s.set_defaults(run=run_spectrum)

    p = sub.add_parser("pack", help="run the full packing pipeline")
    p.add_argument("--input")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--epsilon", type=_finite_float, default=0.3)
    p.add_argument("--mode", choices=["theory", "practice"], default="practice")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", type=_int_at_least(0), default=1)
    p.add_argument("--max-sets", type=_int_at_least(0), dest="max_sets")
    p.add_argument("--trials", type=_int_at_least(1), default=1)
    p.add_argument("--report")
    p.add_argument("--packing-out", dest="packing_out")
    p.set_defaults(run=run_pack)

    v = sub.add_parser("verify", help="verify a packing JSON against a graph")
    v.add_argument("--input", required=True)
    v.add_argument("--packing", required=True)
    v.add_argument("--target", type=_int_at_least(0))
    v.add_argument("--report")
    v.set_defaults(run=run_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
