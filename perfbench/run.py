"""End-to-end and per-layer benchmark of `cdspack pack`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from `src/`
and nothing needs installing. Each `cdspack pack` runs as its own process,
one at a time (a closed loop with one client), with BLAS/OpenMP threads
pinned to one: `--trials 2` already runs two Python threads, and BLAS workers
spinning beside them on a small machine make wall times unsteady. The number
of usable cores is printed with every run. Packs are repeated with the same
arguments while one more, as long as the median pack so far, still ends
within S seconds of packing, and never fewer than two, so their reports can
be compared. The reported times are medians over the run.

Workloads (the problem instance of each is pinned so that its counts are
comparable between commits; `--seed` permutes the line order of the edge-list
file that file workloads hand to the program, which leaves the graph itself
unchanged):

  dense-file     `pack --input` on a random 256-regular graph, n = 20000
                 (generator seed 1), `--seed 1`. Graph loading and the
                 spectrum dominate; every colour class is already connected,
                 so connector stitching is bypassed.
  sparse-gen     `pack --n 50000 --d 16 --seed 1`. The generator and
                 stage-one resampling dominate; every class has several
                 components, so sets must be stitched (today every set
                 fails: exit 8, no sets).
  trials-stitch  `pack --input` on a random 64-regular graph, n = 20000
                 (generator seed 1), `--seed 1 --trials 2`. Loading and the
                 spectrum repeat per trial under the GIL, and trial seed 2
                 stitches one class through the reservoir.

BENCHMARK.json lists sparse-gen and trials-stitch only. Between them they call
every layer, and a pack of either takes 12-17 s on two cores, so leaving
dense-file out lets each run measure three or four packs within the time
allowed for all runs. dense-file runs the same way when named.

Inputs are generated with `cdspack gen` at set-up, outside the timed region,
and cached under perfbench/.cache/. Every pack's output is checked by
perfbench/check.py from the edge list and the packing alone, and report
bodies (everything but "timings") must be byte-identical across the packs of
a run. A pack that exceeds PACK_DEADLINE_S is killed and counted as failed.

With `--trace 0` the last line carries the end-to-end metrics; with
`--trace 1` each untraced pack is followed by one under perfbench/trace_pack.py,
and the last line carries the per-layer metrics. Lines before it are a
readable table of every metric, with unit, direction and sample count.

Which end-to-end figure each layer should move, and on which workload:
  graph.load_*, graph.input_s    pack_s on dense-file (about half) and
                                 trials-stitch (once per trial); not sparse-gen
  graph.components_*             pack_s on dense-file (96 calls for 30 sets:
                                 build_family, choose_representatives,
                                 connect_family and two verifications)
  generators.random_regular_s    pack_s on sparse-gen only
  spectral.*                     pack_s everywhere (about a third of
                                 dense-file); a tolerance change must leave
                                 sets_ratio as it is
  coloring.stage_one_*           pack_s on sparse-gen (over half); barely
                                 registers on dense-file
  extendable.*, connector.*      pack_s on trials-stitch; sets_ratio,
                                 fail_rate and reservoir_spent on sparse-gen;
                                 nothing on dense-file
  verifier.*                     pack_s, most on dense-file
  cli.*                          pack_s on trials-stitch
  params.*, class_components     explain sets_ratio, and show whether a
                                 workload still needs stitching
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import check
import trace_pack

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"
WORK = HERE / ".work"

PACK_DEADLINE_S = 60.0   # stage one spins for many minutes at some (n, d)
RUN_BUDGET_S = 170.0     # a run must end well within 180 s
MIN_PACKS = 2            # determinism needs two reports to compare
SETUP_REPEATS = 7
EXIT_TARGET_UNMET = 8    # cdspack's "verification failure or target unmet"
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    n: int
    d: int
    graph_seed: int
    from_file: bool
    pack_args: tuple[str, ...]


WORKLOADS = {
    "dense-file": Workload(20000, 256, 1, True, ("--seed", "1")),
    "sparse-gen": Workload(50000, 16, 1, False,
                           ("--n", "50000", "--d", "16", "--seed", "1")),
    "trials-stitch": Workload(20000, 64, 1, True, ("--seed", "1", "--trials", "2")),
}

# name -> (unit, better). The last line with --trace 0 carries END_TO_END;
# QUALITY is printed in the table only, because it reads 0 on some workload.
END_TO_END = {"pack_s": ("s", "lower"), "setup_s": ("s", "lower"),
              "peak_rss_mb": ("MB", "lower")}
QUALITY = {"sets_ratio": ("ratio", "higher"), "reservoir_spent": ("count", "lower"),
           "fail_rate": ("ratio", "lower")}

# name -> (unit, better); the last line with --trace 1 carries PER_LAYER. Times
# of layers that a workload of BENCHMARK.json never calls (they read exactly 0
# there) are in TABLE_ONLY instead; their call counts are in PER_LAYER.
PER_LAYER = {
    "graph.input_s": ("s", "lower"),
    "graph.components_calls": ("count", "lower"),
    "graph.components_s": ("s", "lower"),
    "graph.induced_subgraph_s": ("s", "lower"),
    "spectral.extremal_s": ("s", "lower"),
    "spectral.eigsh_calls": ("count", "lower"),
    "spectral.matvecs": ("count", "lower"),
    "spectral.expansion_check_calls": ("count", "lower"),
    "params.d_star": ("count", "higher"),
    "params.d_star_target": ("count", "higher"),
    "coloring.stage_one_s": ("s", "lower"),
    "coloring.stage_one_resamples": ("count", "lower"),
    "coloring.stage_two_s": ("s", "lower"),
    "coloring.stage_two_resamples": ("count", "lower"),
    "coloring.build_family_s": ("s", "lower"),
    "coloring.restarts": ("count", "lower"),
    "coloring.reservoir_size": ("count", "higher"),
    "coloring.class_components": ("count", "lower"),
    "extendable.attach_calls": ("count", "lower"),
    "extendable.attach_failed": ("count", "lower"),
    "extendable.attach_s": ("s", "lower"),
    "extendable.tree_vertices": ("count", "lower"),
    "extendable.rollback_calls": ("count", "lower"),
    "extendable.rollback_vertices": ("count", "lower"),
    "extendable.rollback_s": ("s", "lower"),
    "connector.connect_family_s": ("s", "lower"),
    "connector.connect_one_calls": ("count", "lower"),
    "connector.connect_one_s": ("s", "lower"),
    "connector.merges": ("count", "higher"),
    "connector.sets_failed": ("count", "lower"),
    "connector.choose_representatives_s": ("s", "lower"),
    "connector.attach_per_merge": ("ratio", "lower"),
    "connector.kept_ratio": ("ratio", "higher"),
    "verifier.calls": ("count", "lower"),
    "verifier.verify_s": ("s", "lower"),
    "cli.trials": ("count", "lower"),
    "cli.emit_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "cli.overhead_s": ("s", "lower"),
    "trace.pack_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "pack.sets_ratio": ("ratio", "higher"),
    "pack.reservoir_spent": ("count", "lower"),
    "pack.fail_rate": ("ratio", "lower"),
}
TABLE_ONLY = {
    "graph.load_s": ("s", "lower"),
    "graph.load_edges_per_s": ("1/s", "higher"),
    "generators.random_regular_s": ("s", "lower"),
    "spectral.expansion_check_s": ("s", "lower"),
    "connector.certificate_s": ("s", "lower"),
}


class SetupError(RuntimeError):
    """The benchmark cannot run here (no source tree, input generation failed)."""


@dataclass
class PackRun:
    """One `cdspack pack` process and what the checks found in its output."""

    wall_s: float
    rss_mb: float
    code: int
    report_bytes: int = 0
    body: bytes | None = None
    errors: list[str] = field(default_factory=list)     # the run failed
    problems: list[str] = field(default_factory=list)   # its output is wrong
    sets: int = 0
    target: int = 0
    reservoir_spent: int = 0
    trials: int = 0

    @property
    def completed(self) -> bool:
        """The program ran to its end and every check of its output passed.

        Exit 8 with a clean verification is a completed run whose packing
        fell short of the target; it still counts toward `fail_rate`.
        """
        return not self.errors and not self.problems


class Bench:
    """Inputs, environment and scratch directory of one benchmark run."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.wl = WORKLOADS[name]
        self.workdir = workdir
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # imports read cached bytecode after the first, as an installed package's do
        for var in ("PYTHONHOME", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(var, None)
        for var in THREAD_VARS:
            self.env[var] = BLAS_THREADS
        self.started = time.monotonic()
        edges = self._canonical_edges()
        self.n, self.m = self.wl.n, len(edges)
        self.digest = hashlib.sha256(edges.tobytes()).hexdigest()[:16]
        self.adj = check.Adjacency(self.n, edges)
        self.input_args: tuple[str, ...] = ()
        if self.wl.from_file:
            path = workdir / "graph.txt"
            _write_edge_list(path, self.n, edges, np.random.default_rng(seed))
            self.input_args = ("--input", str(path))

    def _canonical_edges(self) -> np.ndarray:
        """The workload's graph as generated by `cdspack gen`, cached."""
        wl = self.wl
        CACHE.mkdir(parents=True, exist_ok=True)
        cached = CACHE / f"regular-n{wl.n}-d{wl.d}-seed{wl.graph_seed}.npy"
        if not cached.exists():
            text = self.workdir / "generated.txt"
            proc = subprocess.run(
                [sys.executable, "-m", "cdspack.cli", "gen", "--kind", "regular",
                 "--n", str(wl.n), "--d", str(wl.d), "--seed", str(wl.graph_seed),
                 "--out", str(text)],
                cwd=self.workdir, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=PACK_DEADLINE_S)
            if proc.returncode != 0:
                raise SetupError(f"cdspack gen exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-500:]}")
            _, edges = check.read_edge_list(text)
            text.unlink()
            partial = cached.with_suffix(f".{os.getpid()}.tmp.npy")
            np.save(partial, edges)
            os.replace(partial, cached)
        return np.load(cached)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def room_for_pack(self) -> bool:
        """Whether a pack that runs to its deadline still ends the run in time."""
        return self.elapsed() + PACK_DEADLINE_S <= RUN_BUDGET_S

    def setup_s(self) -> list[float]:
        """Wall seconds for a fresh interpreter to import cdspack.cli."""
        cmd = [sys.executable, "-c", "import cdspack.cli"]
        samples = []
        for i in range(SETUP_REPEATS + 1):
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=self.workdir, env=self.env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=PACK_DEADLINE_S)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                raise SetupError(f"importing cdspack.cli failed: "
                                 f"{proc.stderr.strip()[-500:]}")
            if i:  # the first import may compile bytecode; users pay that once
                samples.append(wall)
        return samples

    def pack(self, traced: bool, tag: str) -> tuple[PackRun, dict | None]:
        """Run one pack process, then check its output outside the timing."""
        out = self.workdir / f"{tag}.stdout"
        err = self.workdir / f"{tag}.stderr"
        packing = self.workdir / f"{tag}.packing.json"
        spans = self.workdir / f"{tag}.spans.json"
        pack_argv = ["pack", *self.input_args, *self.wl.pack_args,
                     "--packing-out", str(packing)]
        if traced:
            cmd = [sys.executable, str(HERE / "trace_pack.py"), str(spans), *pack_argv]
        else:
            cmd = [sys.executable, "-m", "cdspack.cli", *pack_argv]
        wall, rss_mb, code, timed_out = _timed_process(cmd, self.workdir, self.env,
                                                       out, err)
        run = PackRun(wall, rss_mb, code)
        if timed_out:
            run.errors.append(f"killed at the {PACK_DEADLINE_S:g} s deadline")
            return run, None
        if code not in (0, EXIT_TARGET_UNMET):
            tail = err.read_text(errors="replace").strip()[-300:]
            run.errors.append(f"exit {code} {tail}".strip())
        self._check(run, out, packing)
        doc = None
        if traced and spans.exists():
            doc = json.loads(spans.read_text())
        return run, doc

    def _check(self, run: PackRun, out: Path, packing_path: Path) -> None:
        raw = out.read_bytes()
        run.report_bytes = len(raw)
        try:
            report = json.loads(raw)
        except ValueError:
            run.errors.append("stdout is not one JSON report")
            return
        run.body = json.dumps(_without_timings(report), sort_keys=True).encode()
        bodies = report.get("trials", [report])
        run.trials = len(bodies)
        reported = []
        for i, body in enumerate(bodies):
            if "error" in body:
                run.errors.append(f"trial {i}: {body['error']}")
                continue
            try:
                graph = (body["graph"]["n"], body["graph"]["m"])
                failures = body["verification"]["failures"]
                run.target += body["params"]["d_star_target"]
                reported.append(body["packing"])
            except (KeyError, TypeError) as exc:
                run.problems.append(f"trial {i}: report lacks {exc}")
                continue
            if graph != (self.n, self.m):
                run.problems.append(f"trial {i}: graph {graph} is not the "
                                    f"workload's ({self.n}, {self.m})")
            if failures:
                run.errors.append(f"trial {i}: the program's verifier "
                                  f"rejected its own packing")
        # the --packing-out file must be one of the reported packings, which
        # are all checked (with --trials every trial writes the same file)
        if packing_path.exists():
            try:
                written = json.loads(packing_path.read_text())
            except ValueError:
                written = None
            if written not in reported:
                run.problems.append("--packing-out differs from every reported packing")
        elif run.code == 0:
            run.problems.append("exit 0 without a --packing-out file")
        for i, packing in enumerate(reported):
            run.problems.extend(f"packing {i}: {p}"
                                for p in check.packing_problems(self.adj, packing["sets"]))
        run.sets = sum(len(p["sets"]) for p in reported)
        run.reservoir_spent = sum(len(path["internal"])
                                  for p in reported for path in p["paths"])


def _without_timings(value):
    if isinstance(value, dict):
        return {k: _without_timings(v) for k, v in value.items() if k != "timings"}
    if isinstance(value, list):
        return [_without_timings(v) for v in value]
    return value


def _write_edge_list(path: Path, n: int, edges: np.ndarray, rng) -> None:
    """Edge-list file with the lines in a seeded random order."""
    lines = "\n".join(f"{u} {v}" for u, v in edges[rng.permutation(len(edges))].tolist())
    path.write_text(f"{n} {len(edges)}\n{lines}\n", encoding="utf-8")


def _timed_process(cmd, cwd, env, out_path, err_path):
    """(wall s, peak RSS MB, exit code, killed at the deadline) of one process.

    Timed from spawn to exit; the child's own resource usage gives its peak
    resident set.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(PACK_DEADLINE_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    killed = code == -signal.SIGKILL and wall >= PACK_DEADLINE_S
    return wall, usage.ru_maxrss / 1024.0, code, killed


# -- the two kinds of run -----------------------------------------------------

def _fail_rate(runs: list[PackRun]) -> float:
    """Failed packs per pack attempted: non-zero exit, deadline, bad output."""
    return sum(1 for r in runs if r.code != 0 or not r.completed) / len(runs)


def _check_determinism(runs: list[PackRun]) -> None:
    """Mark every run whose report body differs from the first clean one."""
    clean = [r for r in runs if r.completed]
    for run in clean[1:]:
        if run.body != clean[0].body:
            run.problems.append("report body differs from the first pack's")


def _next_overruns(measured: float, walls: list[float], seconds: float) -> bool:
    """Whether one more pack, as long as the median so far, ends past `seconds`.

    Runs end near `seconds` instead of up to a whole pack beyond it, so the
    time limit for all runs can go to measuring more packs.
    """
    return measured + statistics.median(walls) > seconds


def measure(bench: Bench, seconds: float) -> tuple[list[PackRun], list[float]]:
    setup = bench.setup_s()
    runs: list[PackRun] = []
    measured = 0.0
    while bench.room_for_pack():
        run, _ = bench.pack(traced=False, tag=f"pack{len(runs)}")
        runs.append(run)
        measured += run.wall_s
        if run.errors or (len(runs) >= MIN_PACKS
                          and _next_overruns(measured, [r.wall_s for r in runs], seconds)):
            break
    if not runs:
        raise SetupError("set-up left no time for a pack")
    return runs, setup


def measure_traced(bench: Bench, seconds: float):
    pairs: list[tuple[PackRun, PackRun, dict]] = []
    measured = 0.0
    while bench.room_for_pack():
        plain, _ = bench.pack(traced=False, tag=f"plain{len(pairs)}")
        if not bench.room_for_pack() or plain.errors:
            return pairs, [plain]
        traced, doc = bench.pack(traced=True, tag=f"traced{len(pairs)}")
        if doc is None:
            return pairs, [plain, traced]
        pairs.append((plain, traced, doc))
        measured += plain.wall_s + traced.wall_s
        if _next_overruns(measured, [p.wall_s + t.wall_s for p, t, _ in pairs], seconds):
            break
    if not pairs:
        raise SetupError("set-up left no time for a pack")
    return pairs, []


def _stats(values) -> str:
    values = list(values)
    return (f"median {statistics.median(values):.6g}  min {min(values):.6g}  "
            f"max {max(values):.6g}  n={len(values)}")


def _row(name: str, spec: tuple[str, str], text: str) -> None:
    unit, better = spec
    print(f"  {name:<36} {unit:<6} {better:<7} {text}")


def _metrics(values: dict, specs: dict) -> dict:
    return {k: {"value": values[k], "unit": unit} for k, (unit, _) in specs.items()}


def _result(runs: list[PackRun], metrics: dict) -> dict:
    """The last output line: `correct` is about outputs, `failed` about runs."""
    for line in [m for r in runs for m in r.errors + r.problems][:20]:
        print(f"  PROBLEM {line}")
    return {
        "correct": not any(r.problems for r in runs),
        "attempted": len(runs),
        "failed": sum(1 for r in runs if not r.completed),
        "metrics": metrics,
    }


def report_untraced(bench: Bench, runs, setup) -> dict:
    _check_determinism(runs)
    first = next((r for r in runs if r.completed), runs[0])
    samples = {"pack_s": [r.wall_s for r in runs], "setup_s": setup,
               "peak_rss_mb": [r.rss_mb for r in runs]}
    values = {k: statistics.median(v) for k, v in samples.items()}
    values.update({
        "sets_ratio": first.sets / first.target if first.target else 0.0,
        "reservoir_spent": first.reservoir_spent,
        "fail_rate": _fail_rate(runs),
    })
    notes = {
        "sets_ratio": f"({first.sets} sets / {first.target} d_star_target)",
        "reservoir_spent": "(path-interior vertices in the packing)",
        "fail_rate": f"(exit codes {[r.code for r in runs]}, n={len(runs)})",
    }
    print(f"# {bench.name}: end-to-end, untraced")
    for name, spec in END_TO_END.items():
        _row(name, spec, _stats(samples[name]))
    for name, spec in QUALITY.items():
        _row(name, spec, f"{values[name]:.6g}  {notes[name]}")
    return _result(runs, _metrics(values, END_TO_END))


def report_traced(bench: Bench, pairs, extra) -> dict:
    runs = [r for p, t, _ in pairs for r in (p, t)] + extra
    _check_determinism(runs)
    if not pairs:
        print(f"# {bench.name}: no traced pack ran to its end")
        return _result(runs, _metrics(dict.fromkeys(PER_LAYER, 0.0), PER_LAYER))
    per_pair = []
    for plain, traced, doc in pairs:
        layer = trace_pack.summarize(doc, traced.wall_s)
        layer.update({
            "cli.trials": traced.trials,
            "cli.report_bytes": plain.report_bytes,
            "trace.pack_s": traced.wall_s,
            "trace.overhead_s": traced.wall_s - plain.wall_s,
            "pack.sets_ratio": plain.sets / plain.target if plain.target else 0.0,
            "pack.reservoir_spent": plain.reservoir_spent,
        })
        per_pair.append(layer)
    values = {k: statistics.median(p[k] for p in per_pair) for k in per_pair[0]}
    values["pack.fail_rate"] = _fail_rate(runs)
    print(f"# {bench.name}: per layer, traced (medians of {len(pairs)} traced packs; "
          f"untraced pack_s {_stats(p.wall_s for p, _, _ in pairs)})")
    for name, spec in {**PER_LAYER, **TABLE_ONLY}.items():
        _row(name, spec, f"{values[name]:.6g}")
    return _result(runs, _metrics(values, PER_LAYER))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cdspack" / "cli.py").is_file():
        print(f"error: no cdspack sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        bench = Bench(args.workload, args.seed, workdir)
        print(f"# workload {args.workload}  seed {args.seed}  nproc {bench.nproc}  "
              f"BLAS/OpenMP threads {BLAS_THREADS}  graph n={bench.n} m={bench.m} "
              f"sha256[:16] {bench.digest}")
        if args.trace:
            result = report_traced(bench, *measure_traced(bench, args.seconds))
        else:
            result = report_untraced(bench, *measure(bench, args.seconds))
    except (SetupError, subprocess.TimeoutExpired, check.EdgeListError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
