"""Run `cdspack pack` with spans around the calls into each layer.

    python3 trace_pack.py SPANS_OUT pack [pack arguments...]

The program's code is not changed. Before `cdspack.cli.main` runs, the module
attributes through which one layer calls another are replaced by wrappers
that record a span (name, start, end, thread, parent span) and a few counts
read from arguments and results. A function imported by name into several
modules is wrapped at each of those bindings. Spans stay in memory and are
written to SPANS_OUT as JSON when `main` returns; the process then exits with
the code `main` returned.

`summarize` turns that file into the per-layer metrics; it needs no cdspack.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import Counter


class Tracer:
    """In-memory spans and counts, safe to update from several threads."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, thread, parent]
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, key: str, amount=1) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, module, attr: str, name: str, on_result=None,
             count_errors: str | None = None) -> None:
        """Replace `module.attr` with a wrapper recording span `name`.

        `on_result(tracer, result, args, kwargs)` runs after a normal return;
        an exception from the call increments `count_errors` when given and
        is re-raised unchanged.
        """
        fn = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                index = len(tracer.spans)
                span = [name, time.perf_counter(), None, threading.get_ident(),
                        stack[-1] if stack else -1]
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if count_errors:
                    tracer.add(count_errors)
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(tracer, result, args, kwargs)
            return result

        setattr(module, attr, traced)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


class _CountingLinalg:
    """Stands in for `scipy.sparse.linalg` inside `cdspack.spectral`.

    `eigsh` is traced, and the operator handed to it is wrapped so every
    matrix-vector product is counted; everything else is passed through.
    """

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer
        self.eigsh = self._eigsh
        tracer.wrap(self, "eigsh", "spectral.eigsh",
                    on_result=lambda t, r, a, k: t.add("spectral.eigsh_calls"))

    def __getattr__(self, attr):
        return getattr(self._real, attr)

    def _eigsh(self, op, *args, **kwargs):
        real = self._real
        op = real.aslinearoperator(op)
        matvecs = 0

        def matvec(x):
            nonlocal matvecs
            matvecs += 1
            return op.matvec(x)

        counted = real.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
        try:
            return real.eigsh(counted, *args, **kwargs)
        finally:
            self._tracer.add("spectral.matvecs", matvecs)


def install(tracer: Tracer) -> None:
    """Wrap the calls between cdspack's layers."""
    from cdspack import (cli, coloring, connector, generators, params, spectral,
                         verifier)

    def loaded(t, g, a, k):
        t.add("graph.load_edges", g.m)

    def derived(t, p, a, k):
        t.add("params.derived")
        t.add("params.d_star", p.d_star)
        t.add("params.d_star_target", p.d_star_target)

    def stage_one_done(t, res, a, k):
        t.add("coloring.stage_one_resamples", res.resamples)

    def stage_two_done(t, res, a, k):
        t.add("coloring.stage_two_resamples", res.resamples - a[1].resamples)

    def family_built(t, fam, a, k):
        t.add("coloring.reservoir_size", len(fam.reservoir))
        t.add("coloring.class_components", sum(fam.component_counts))

    def attached(t, tree, a, k):
        t.add("extendable.tree_vertices", len(tree.added))

    def rolled_back(t, res, a, k):
        t.add("extendable.rollback_vertices", len(a[1]))

    def merged(t, res, a, k):
        t.add("connector.merges")

    def connected(t, records, a, k):
        t.add("connector.kept_vertices", sum(len(r.internal) for r in records))

    tracer.wrap(cli, "load_graph", "graph.load_graph", on_result=loaded)
    tracer.wrap(generators, "random_regular", "generators.random_regular")
    for module in (coloring, connector, verifier):
        tracer.wrap(module, "components_of", "graph.components_of")
    tracer.wrap(connector, "induced_subgraph", "graph.induced_subgraph")

    tracer.wrap(spectral, "extremal_eigenvalues", "spectral.extremal_eigenvalues")
    spectral.spla = _CountingLinalg(spectral.spla, tracer)
    tracer.wrap(connector, "expansion_check", "spectral.expansion_check")

    tracer.wrap(params, "derive_params", "params.derive_params", on_result=derived)

    tracer.wrap(coloring, "stage_one", "coloring.stage_one", on_result=stage_one_done)
    tracer.wrap(coloring, "stage_two", "coloring.stage_two", on_result=stage_two_done)
    tracer.wrap(coloring, "build_family", "coloring.build_family",
                on_result=family_built)

    tracer.wrap(connector, "attach_tree", "extendable.attach_tree",
                on_result=attached, count_errors="extendable.attach_failed")
    tracer.wrap(connector, "rollback", "extendable.rollback", on_result=rolled_back)
    tracer.wrap(connector, "add_edge", "extendable.add_edge", on_result=merged)

    tracer.wrap(connector, "connect_family", "connector.connect_family")
    tracer.wrap(connector, "connect_one", "connector.connect_one",
                on_result=connected, count_errors="connector.sets_failed")
    tracer.wrap(connector, "choose_representatives", "connector.choose_representatives")
    tracer.wrap(connector, "spanning_certificate", "connector.spanning_certificate")

    # cli calls through the module attribute, connector through its own name
    for module in (verifier, connector):
        tracer.wrap(module, "verify_packing", "verifier.verify_packing")
    tracer.wrap(cli, "_emit", "cli.emit")


# -- turning spans into per-layer metrics ------------------------------------

def _union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(doc: dict, pack_s: float) -> dict[str, float]:
    """Per-layer metrics from a SPANS_OUT document and the traced wall time."""
    spans = doc["spans"]
    counts = Counter(doc["counts"])
    busy: Counter = Counter()
    calls: Counter = Counter()
    child_time: Counter = Counter()
    for name, start, end, _thread, parent in spans:
        busy[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
    family_self = sum(end - start - child_time[i]
                      for i, (name, start, end, _t, _p) in enumerate(spans)
                      if name == "connector.connect_family")
    top_level = [(start, end) for _n, start, end, _t, parent in spans if parent < 0]

    load_s = busy["graph.load_graph"]
    attach = calls["extendable.attach_tree"]
    merges = counts["connector.merges"]
    tree_vertices = counts["extendable.tree_vertices"]
    return {
        "graph.load_s": load_s,
        "graph.load_edges_per_s": counts["graph.load_edges"] / load_s if load_s else 0.0,
        "graph.input_s": load_s + busy["generators.random_regular"],
        "graph.components_calls": calls["graph.components_of"],
        "graph.components_s": busy["graph.components_of"],
        "graph.induced_subgraph_s": busy["graph.induced_subgraph"],
        "generators.random_regular_s": busy["generators.random_regular"],
        "spectral.extremal_s": busy["spectral.extremal_eigenvalues"],
        "spectral.eigsh_calls": counts["spectral.eigsh_calls"],
        "spectral.matvecs": counts["spectral.matvecs"],
        "spectral.expansion_check_calls": calls["spectral.expansion_check"],
        "spectral.expansion_check_s": busy["spectral.expansion_check"],
        "params.d_star": counts["params.d_star"],
        "params.d_star_target": counts["params.d_star_target"],
        "coloring.stage_one_s": busy["coloring.stage_one"],
        "coloring.stage_one_resamples": counts["coloring.stage_one_resamples"],
        "coloring.stage_two_s": busy["coloring.stage_two"],
        "coloring.stage_two_resamples": counts["coloring.stage_two_resamples"],
        "coloring.build_family_s": busy["coloring.build_family"],
        "coloring.restarts": calls["coloring.stage_one"] - counts["params.derived"],
        "coloring.reservoir_size": counts["coloring.reservoir_size"],
        "coloring.class_components": counts["coloring.class_components"],
        "extendable.attach_calls": attach,
        "extendable.attach_failed": counts["extendable.attach_failed"],
        "extendable.attach_s": busy["extendable.attach_tree"],
        "extendable.tree_vertices": tree_vertices,
        "extendable.rollback_calls": calls["extendable.rollback"],
        "extendable.rollback_vertices": counts["extendable.rollback_vertices"],
        "extendable.rollback_s": busy["extendable.rollback"],
        "connector.connect_family_s": family_self,
        "connector.connect_one_calls": calls["connector.connect_one"],
        "connector.connect_one_s": busy["connector.connect_one"],
        "connector.merges": merges,
        "connector.sets_failed": counts["connector.sets_failed"],
        "connector.choose_representatives_s": busy["connector.choose_representatives"],
        "connector.certificate_s": busy["connector.spanning_certificate"],
        "connector.attach_per_merge": attach / merges if merges else 0.0,
        "connector.kept_ratio": (counts["connector.kept_vertices"] / tree_vertices
                                 if tree_vertices else 0.0),
        "verifier.calls": calls["verifier.verify_packing"],
        "verifier.verify_s": busy["verifier.verify_packing"],
        "cli.emit_s": busy["cli.emit"],
        "cli.overhead_s": pack_s - _union_length(top_level),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out_path, pack_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from cdspack import cli
    try:
        return cli.main(pack_argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
