"""Tests of the benchmark's own output checks: python3 -m pytest perfbench"""

import json

import numpy as np
import pytest

import check
import run
import trace_pack

# prism: triangles 0-1-2 and 3-4-5 joined by the matching 0-3, 1-4, 2-5
PRISM = np.array([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5],
                  [0, 3], [1, 4], [2, 5]])


@pytest.fixture
def adj():
    return check.Adjacency(6, PRISM)


def test_accepts_a_valid_packing(adj):
    assert check.packing_problems(adj, [[0, 1, 2], [3, 4, 5]]) == []


def test_rejects_a_shared_vertex(adj):
    problems = check.packing_problems(adj, [[0, 1, 2], [2, 3, 4, 5]])
    assert problems == ["set 1 shares vertex 2 with set 0"]


def test_rejects_a_set_that_does_not_dominate(adj):
    assert check.packing_problems(adj, [[0, 1]]) == ["set 0 does not dominate vertex 5"]


def test_rejects_a_disconnected_set(adj):
    assert check.packing_problems(adj, [[0, 4]]) == ["set 0 is not connected"]


def test_rejects_empty_and_out_of_range_sets(adj):
    assert check.packing_problems(adj, [[]]) == ["set 0 is empty"]
    assert check.packing_problems(adj, [[0, 6]]) == ["set 0 has a vertex id out of range"]


def test_reads_the_edge_list_format(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("6 9\n" + "".join(f"{u} {v}\n" for u, v in PRISM))
    n, edges = check.read_edge_list(path)
    assert n == 6 and edges.tolist() == PRISM.tolist()
    path.write_text("6 8\n0 1\n")
    with pytest.raises(check.EdgeListError):
        check.read_edge_list(path)


def test_edge_list_permutation_keeps_the_graph(tmp_path):
    path = tmp_path / "g.txt"
    run._write_edge_list(path, 6, PRISM, np.random.default_rng(3))
    n, edges = check.read_edge_list(path)
    assert n == 6 and sorted(edges.tolist()) == sorted(PRISM.tolist())


def test_report_body_ignores_only_timings():
    a = {"timings": {"x": 1.0}, "trials": [{"seed": 1, "timings": {"y": 2.0}}]}
    b = {"timings": {"x": 9.0}, "trials": [{"seed": 1, "timings": {"y": 8.0}}]}
    assert run._without_timings(a) == run._without_timings(b) == {"trials": [{"seed": 1}]}


def test_a_different_report_body_fails_the_run():
    runs = [run.PackRun(1.0, 1.0, 0, body=b"a"), run.PackRun(1.0, 1.0, 0, body=b"a"),
            run.PackRun(1.0, 1.0, 0, body=b"b")]
    run._check_determinism(runs)
    assert [r.completed for r in runs] == [True, True, False]


def test_self_time_and_overhead_from_spans():
    doc = {"spans": [["connector.connect_family", 1.0, 5.0, 7, -1],
                     ["connector.connect_one", 2.0, 4.0, 7, 0],
                     ["graph.load_graph", 0.0, 1.0, 8, -1],
                     ["graph.load_graph", 0.5, 1.5, 9, -1]],
           "counts": {"graph.load_edges": 30}}
    layer = trace_pack.summarize(json.loads(json.dumps(doc)), pack_s=6.0)
    assert layer["connector.connect_family_s"] == 2.0
    assert layer["graph.load_s"] == 2.0
    assert layer["graph.load_edges_per_s"] == 15.0
    assert layer["cli.overhead_s"] == 6.0 - 5.0  # two overlapping loads cover 0..1.5


def test_benchmark_json_lists_what_run_prints():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    # dense-file runs when named but is left out of BENCHMARK.json
    assert [w["name"] for w in spec["workloads"]] == ["sparse-gen", "trials-stitch"]
    assert set(run.WORKLOADS) == {"dense-file", "sparse-gen", "trials-stitch"}
    for key, metrics in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == metrics
