"""Taxonomy graph: the parent -> child matrix, one-hop neighborhoods and cycle refusal."""

import numpy as np
import pytest

from tagkit.ontology import CycleError, Ontology, OntologyError, read_ontology, write_ontology


def neighbors(onto, k):
    """One hop around class k: its direct parents and children, the classes label repair reads."""
    return set(np.flatnonzero(onto.edges[:, k] | onto.edges[k]).tolist())


class TestNeighbors:
    def test_chain_middle_node(self):
        onto = Ontology.from_edges(3, [(0, 1), (1, 2)])  # A->B->C
        assert neighbors(onto, 1) == {0, 2}

    def test_isolated_class(self):
        onto = Ontology.from_edges(3, [(0, 1)])
        assert neighbors(onto, 2) == set()

    def test_diamond_bottom(self):
        onto = Ontology.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert neighbors(onto, 3) == {1, 2}

    def test_one_hop_only(self):
        onto = Ontology.from_edges(3, [(0, 1), (1, 2)])
        assert neighbors(onto, 0) == {1}  # grandchild 2 excluded

    def test_out_of_range_rejected(self):
        with pytest.raises(OntologyError):
            Ontology.from_edges(2, [(0, 2)])
        with pytest.raises(OntologyError):
            Ontology.from_edges(2, [(-1, 0)])

    def test_edges_hold_exactly_the_given_pairs(self):
        rng = np.random.default_rng(0)
        pos = rng.permutation(30)  # topological position of each node
        pairs = [(a, b) if pos[a] < pos[b] else (b, a)
                 for a, b in rng.integers(0, 30, size=(120, 2)) if a != b]
        pairs += pairs[:20]  # repeated pairs collapse to one edge
        onto = Ontology.from_edges(30, pairs)
        assert onto.edges.shape == (30, 30) and onto.edges.dtype == bool
        assert set(map(tuple, np.argwhere(onto.edges).tolist())) == {
            (int(p), int(c)) for p, c in pairs}
        assert int(onto.edges.sum()) == len(set(pairs)) < len(pairs)


class TestValidate:
    def test_two_cycle_reported(self):
        with pytest.raises(CycleError) as err:
            Ontology.from_edges(2, [(0, 1), (1, 0)])
        assert set(err.value.cycle) == {0, 1}

    def test_self_loop_reported(self):
        with pytest.raises(CycleError):
            Ontology.from_edges(2, [(1, 1)])

    def test_empty_ontology_ok(self):
        Ontology.from_edges(0, [])
        Ontology.from_edges(5, [])

    def test_large_random_topological_dag_ok(self):
        # construct with edges only from lower to higher topological index
        rng = np.random.default_rng(42)
        _random_dag(rng, 527, 2000)

    def test_long_cycle_found(self):
        edges = [(i, i + 1) for i in range(9)] + [(9, 4)]
        with pytest.raises(CycleError) as err:
            Ontology.from_edges(10, edges)
        cycle = err.value.cycle
        assert cycle[0] == cycle[-1]
        assert set(cycle) >= {4, 9}


def _recursive_first_cycle(num_classes, edges):
    """Oracle: recursive depth-first search in class order, children in index order; the
    first back edge closes the cycle."""
    children = [sorted({c for p, c in edges if p == k}) for k in range(num_classes)]
    state, stack = [0] * num_classes, []

    def dfs(k):
        state[k] = 1
        stack.append(k)
        for c in children[k]:
            if state[c] == 1:
                return stack[stack.index(c):] + [c]
            if state[c] == 0 and (found := dfs(c)):
                return found
        stack.pop()
        state[k] = 2

    for k in range(num_classes):
        if state[k] == 0 and (found := dfs(k)):
            return found


@pytest.mark.parametrize("seed", range(20))
def test_cycle_matches_recursive_search(seed):
    rng = np.random.default_rng(seed)
    edges = [tuple(e) for e in rng.integers(0, 12, size=(int(rng.integers(4, 30)), 2)).tolist()]
    expected = _recursive_first_cycle(12, edges)
    if expected is None:
        Ontology.from_edges(12, edges)
        return
    with pytest.raises(CycleError) as err:
        Ontology.from_edges(12, edges)
    assert err.value.cycle == expected


def _random_dag(rng, n, num_edges):
    pos = rng.permutation(n)  # topological position of each node
    edges = []
    while len(edges) < num_edges:
        a, b = rng.integers(0, n, size=2)
        if a == b:
            continue
        edges.append((a, b) if pos[a] < pos[b] else (b, a))
    return Ontology.from_edges(n, edges)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        names = ["speech", "male_speech", "music", "happy_music"]
        onto = Ontology.from_edges(4, [(0, 1), (2, 3)])
        write_ontology(onto, tmp_path / "o.txt", names)
        back = read_ontology(tmp_path / "o.txt", names)
        assert np.array_equal(back.edges, onto.edges)

    def test_unknown_name_rejected(self, tmp_path):
        (tmp_path / "o.txt").write_text("speech ghost\n")
        with pytest.raises(OntologyError):
            read_ontology(tmp_path / "o.txt", ["speech", "music"])

    def test_comments_and_blanks_ignored(self, tmp_path):
        (tmp_path / "o.txt").write_text("# taxonomy\n\nspeech music\n")
        onto = read_ontology(tmp_path / "o.txt", ["speech", "music"])
        assert onto.edges.tolist() == [[False, True], [False, False]]

    def test_cyclic_file_rejected(self, tmp_path):
        (tmp_path / "o.txt").write_text("a b\nb a\n")
        with pytest.raises(CycleError):
            read_ontology(tmp_path / "o.txt", ["a", "b"])

    def test_long_cyclic_file_rejected_without_recursion(self, tmp_path):
        n = 5000
        names = [f"c{k}" for k in range(n)]
        (tmp_path / "o.txt").write_text(
            "".join(f"{names[k]} {names[(k + 1) % n]}\n" for k in range(n)))
        with pytest.raises(CycleError) as err:
            read_ontology(tmp_path / "o.txt", names)
        assert err.value.cycle == list(range(n)) + [0]
