import pytest

from cdspack import (TreeSpec, add_edge, attach_tree, complete_graph,
                     is_extendable_exact, new_forest, random_regular,
                     remove_leaf, rollback)
from cdspack.errors import BudgetExceeded, InstanceTooLarge
from cdspack.extendable import balanced_depth


def test_new_forest_validation():
    k5 = complete_graph(5)
    with pytest.raises(ValueError):
        new_forest(k5, [], 1, 3, 10)
    with pytest.raises(BudgetExceeded):
        new_forest(k5, [0, 1, 2], 1, 3, 2)
    with pytest.raises(ValueError):
        new_forest(k5, [0], 0, 3, 10)
    f = new_forest(k5, [0, 2], 1, 3, 10)
    assert f.size == 2 and f.protected == {0, 2}


def test_exact_oracle_on_complete_hosts():
    # Singleton seed in K6 satisfies the expansion inequality for all |U| <= 2;
    # in K5 it genuinely fails at U = {0, 1}: the left side is 4 but the right
    # side is 2*2 - (0 - 1) = 5.
    f6 = new_forest(complete_graph(6), [0], 1, 3, 100)
    assert is_extendable_exact(f6, 2) == (True, None)
    f5 = new_forest(complete_graph(5), [0], 1, 3, 100)
    ok, witness = is_extendable_exact(f5, 2)
    assert not ok and witness == [0, 1]


def test_exact_oracle_inflated_degree_fails():
    f = new_forest(complete_graph(24), [0], 1, 24, 100)
    ok, witness = is_extendable_exact(f, 2)
    assert not ok and len(witness) == 1


def test_exact_oracle_guard():
    g = random_regular(24, 6, 0)
    f = new_forest(g, [0], 10, 6, 100)
    with pytest.raises(InstanceTooLarge):
        is_extendable_exact(f, 20, max_subsets=1000)


def test_attach_size_one_is_identity():
    k24 = complete_graph(24)
    f = new_forest(k24, [0], 1, 6, 24)
    before = f.snapshot()
    tree = attach_tree(f, 0, TreeSpec(arity=2, size=1), seed=1)
    assert tree.vertices == [0] and tree.added == []
    assert f.snapshot() == before


def test_attach_star_then_oracle():
    k24 = complete_graph(24)
    f = new_forest(k24, [0, 13], 1, 6, 12)
    tree = attach_tree(f, 0, TreeSpec(arity=2, size=3), seed=5)
    assert len(tree.vertices) == 3 and tree.root == 0
    assert f.degree(0) == 2
    assert is_extendable_exact(f, 2) == (True, None)


def test_attach_budget_exceeded():
    k24 = complete_graph(24)
    f = new_forest(k24, [0], 1, 6, 4)
    with pytest.raises(BudgetExceeded):
        attach_tree(f, 0, TreeSpec(arity=2, size=5), seed=1)


def test_attach_root_degree_precondition():
    k24 = complete_graph(24)
    f = new_forest(k24, [0], 1, 8, 24)
    attach_tree(f, 0, TreeSpec(arity=3, size=4), seed=1)
    # degree of 0 is now 3 = D/2 - 1: one more attach is still legal
    attach_tree(f, 0, TreeSpec(arity=3, size=2), seed=1)
    assert f.degree(0) == 4
    with pytest.raises(ValueError):
        attach_tree(f, 0, TreeSpec(arity=3, size=2), seed=1)


def test_attach_then_full_rollback_is_identity():
    k24 = complete_graph(24)
    f = new_forest(k24, [0, 13], 1, 6, 12)
    before = f.snapshot()
    tree = attach_tree(f, 13, TreeSpec(arity=2, size=6), seed=9)
    assert f.size == 2 + 5
    rollback(f, tree.added)
    assert f.snapshot() == before


def test_add_edge_merges_and_validates():
    k6 = complete_graph(6)
    f = new_forest(k6, [0, 3], 1, 4, 6)
    add_edge(f, 0, 3)
    assert f.degree(0) == 1 and f.degree(3) == 1
    with pytest.raises(ValueError):           # same component now
        add_edge(f, 0, 3)
    with pytest.raises(ValueError):           # not a forest vertex
        add_edge(f, 0, 5)


def test_add_edge_degree_cap():
    k6 = complete_graph(6)
    f = new_forest(k6, [0, 1, 2, 3, 4], 1, 3, 6)
    add_edge(f, 0, 1)
    add_edge(f, 0, 2)
    add_edge(f, 0, 3)  # degree(0) reaches D = 3, still legal pre-edge
    with pytest.raises(ValueError):
        add_edge(f, 0, 4)  # degree(0) = 3 > D - 1


def test_add_edge_requires_host_edge():
    from cdspack import cycle_graph
    c6 = cycle_graph(6)
    f = new_forest(c6, [0, 3], 1, 4, 6)
    with pytest.raises(ValueError):
        add_edge(f, 0, 3)  # 0-3 is not an edge of C6


def test_remove_leaf_contracts():
    k24 = complete_graph(24)
    f = new_forest(k24, [0], 1, 6, 24)
    before = f.snapshot()
    tree = attach_tree(f, 0, TreeSpec(arity=2, size=2), seed=2)
    remove_leaf(f, tree.added[0])
    assert f.snapshot() == before
    with pytest.raises(ValueError):
        remove_leaf(f, 0)  # protected seed vertex
    tree = attach_tree(f, 0, TreeSpec(arity=2, size=3), seed=2)
    with pytest.raises(ValueError):
        remove_leaf(f, 0)  # degree 2, not a leaf either


def test_balanced_depth():
    assert balanced_depth(1, 3) == 0
    assert balanced_depth(4, 3) == 1
    assert balanced_depth(5, 3) == 2
    assert balanced_depth(40, 3) == 3
