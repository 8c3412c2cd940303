"""Graph loading, validation, splits and synthetic generators."""

import numpy as np
import pytest

from lase import graph as G

from util import degree, interaction_label, neighbors


def write_graph(tmp_path, node_lines, link_lines):
    np_, lp = tmp_path / "nodes.tsv", tmp_path / "links.tsv"
    np_.write_text("\n".join(node_lines) + "\n")
    lp.write_text("\n".join(link_lines) + "\n" if link_lines else "")
    return str(np_), str(lp)


def reference_link_fault(links, n, undirected):
    """The per-link loop the vectorized check replaced: the message of the
    first faulty link, or None."""
    seen = set()
    for s, d in links:
        if not (0 <= s < n and 0 <= d < n):
            return "dangling link endpoint (%d, %d)" % (s, d)
        if s == d:
            return "self-loop (%d, %d) not supported" % (s, d)
        key = (min(s, d), max(s, d)) if undirected else (s, d)
        if key in seen:
            return "duplicate link between %d and %d" % (s, d)
        seen.add(key)
    return None


class TestLoad:
    def test_path_graph_adjacency(self, tmp_path):
        nodes, links = write_graph(
            tmp_path,
            ["0\t0\t1.0,2.0", "1\t1\t3.0,4.0", "2\t0\t5.0,6.0"],
            ["0\t1\t0.5,0.5", "1\t2\t0.25,0.75"])
        g = G.load_graph(nodes, links)
        assert g.d_link == 2
        assert len(neighbors(g, 1)) == 2
        assert [v for v, _ in neighbors(g, 1)] == [0, 2]

    def test_single_node_no_links(self, tmp_path):
        nodes, links = write_graph(tmp_path, ["0\t0\t1.0"], [])
        g = G.load_graph(nodes, links)
        assert g.n_nodes == 1 and neighbors(g, 0) == ()

    def test_dangling_endpoint(self, tmp_path):
        nodes, links = write_graph(
            tmp_path,
            ["0\t0\t1.0", "1\t0\t2.0", "2\t0\t3.0"],
            ["0\t99\t1.0"])
        with pytest.raises(G.GraphError, match="dangling"):
            G.load_graph(nodes, links)

    def test_dimension_mismatch(self, tmp_path):
        nodes, links = write_graph(
            tmp_path, ["0\t0\t1.0,2.0", "1\t0\t3.0"], [])
        with pytest.raises(G.GraphError, match="dimension"):
            G.load_graph(nodes, links)

    def test_duplicate_link(self, tmp_path):
        nodes, links = write_graph(
            tmp_path, ["0\t0\t1.0", "1\t0\t2.0"],
            ["0\t1\t1.0", "1\t0\t2.0"])
        with pytest.raises(G.GraphError, match="duplicate"):
            G.load_graph(nodes, links)

    @pytest.mark.parametrize("node_line, link_line, message", [
        ("1\tx\t2.0", "0\t1\t1.0", "node line 2: bad label 'x'"),
        ("one\t0\t2.0", "0\t1\t1.0", "node line 2: bad id 'one'"),
        ("1\t0\t2.0", "0\t1.5\t1.0", "link line 1: bad endpoint '1.5'"),
        ("1\t0", "0\t1\t1.0", "node line 2: expected 3 tab-separated fields"),
        ("2\t0\t2.0", "0\t1\t1.0", "node line 2: ids must be dense and in order"),
        ("1\t0\t2.0", "0\t1", "link line 1: expected 3 tab-separated fields"),
        ("1\t0\t2.0,x", "0\t1\t1.0", "node line 2: bad feature list"),
    ])
    def test_bad_integer_field_names_its_line(self, tmp_path, node_line,
                                              link_line, message):
        nodes, links = write_graph(tmp_path, ["0\t0\t1.0", node_line],
                                   [link_line])
        with pytest.raises(G.GraphError, match=message):
            G.load_graph(nodes, links)

    def test_link_faults_match_per_link_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n, m = int(rng.integers(1, 6)), int(rng.integers(0, 8))
            links = [tuple(rng.integers(-1, n + 1, size=2).tolist())
                     for _ in range(m)]
            undirected = bool(rng.integers(2))
            try:
                G.AttributedGraph(np.ones((n, 1)), [None] * n, links,
                                  np.ones((m, 1)), 1, undirected=undirected)
                got = None
            except G.GraphError as exc:
                got = str(exc)
            assert got == reference_link_fault(links, n, undirected), links

    def test_endpoint_beyond_int64_is_dangling(self):
        links = [(0, 1), (0, 10 ** 20)]
        with pytest.raises(G.GraphError) as exc:
            G.AttributedGraph(np.ones((2, 1)), [None] * 2, links,
                              np.ones((2, 1)), 1)
        assert str(exc.value) == "dangling link endpoint (0, %d)" % 10 ** 20

    @pytest.mark.parametrize("links", [[(0, 1, 1)], [0, 1]])
    def test_links_must_be_pairs(self, links):
        with pytest.raises(G.GraphError, match="links must be"):
            G.AttributedGraph(np.ones((2, 1)), [None] * 2, links,
                              np.ones((1, 1)), 1)

    @pytest.mark.parametrize("nf, lf, labels, message", [
        (np.ones(2), np.ones((1, 1)), [None] * 2, "node features must be"),
        ([[1.0], [np.nan]], np.ones((1, 1)), [None] * 2, "non-finite node"),
        (np.ones((2, 1)), [[np.inf]], [None] * 2, "non-finite link"),
        (np.ones((2, 1)), np.ones((2, 1)), [None] * 2, "link count"),
        (np.ones((2, 1)), np.ones((1, 1)), [0, 1], "label 1 out of range"),
    ])
    def test_constructor_rejects(self, nf, lf, labels, message):
        with pytest.raises(G.GraphError, match=message):
            G.AttributedGraph(nf, labels, [(0, 1)], lf, 1)

    def test_non_finite_value(self, tmp_path):
        nodes, links = write_graph(tmp_path, ["0\t0\tnan"], [])
        with pytest.raises(G.GraphError, match="non-finite"):
            G.load_graph(nodes, links)

    def test_comments_and_manifest_override(self, tmp_path):
        nodes, links = write_graph(
            tmp_path, ["# comment", "0\t-\t1.0", "1\t0\t2.0"], ["0\t1\t3.0"])
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"d_node": 1, "d_link": 1, "n_labels": 5, "undirected": true}')
        g = G.load_graph(nodes, links, manifest_path=str(manifest))
        assert g.n_labels == 5
        assert g.labels[0] is None

    def test_adjacency_symmetry(self):
        g, _ = G.synth_graph("interaction", 80, seed=0)
        for u in range(g.n_nodes):
            for v, eid in neighbors(g, u):
                assert (u, eid) in neighbors(g, v)

    def test_roundtrip_bit_exact(self, tmp_path):
        g, _ = G.synth_graph("random", 40, seed=1)
        n, l, m = (str(tmp_path / x) for x in ("n.tsv", "l.tsv", "m.json"))
        G.save_graph(g, n, l, m)
        g2 = G.load_graph(n, l, manifest_path=m)
        assert np.array_equal(g.node_features, g2.node_features)
        assert np.array_equal(g.link_features, g2.link_features)
        assert np.array_equal(g.links, g2.links) and g.labels == g2.labels
        assert g.adjacency == g2.adjacency

    def test_saved_manifests_load(self, tmp_path):
        g, _ = G.synth_graph("random", 12, seed=1)
        directed = G.AttributedGraph(g.node_features, [None] * g.n_nodes,
                                     g.links, g.link_features, 0,
                                     undirected=False)
        n, l, m = (str(tmp_path / x) for x in ("n.tsv", "l.tsv", "m.json"))
        for h in (g, directed):
            G.save_graph(h, n, l, m)
            h2 = G.load_graph(n, l, manifest_path=m,
                              undirected=not h.undirected)
            assert h2.undirected == h.undirected
            assert h2.n_labels == h.n_labels and h2.d_link == h.d_link
            assert np.array_equal(h2.arc_src, h.arc_src)


class TestSplit:
    def test_deterministic(self):
        g, _ = G.synth_graph("random", 100, seed=2)
        s1 = G.make_split(g, seed=7)
        s2 = G.make_split(g, seed=7)
        assert s1 == s2

    def test_partition(self):
        g, _ = G.synth_graph("random", 100, seed=2)
        s = G.make_split(g, seed=7)
        merged = set(s.train) | set(s.val) | set(s.test)
        assert len(merged) == len(s.train) + len(s.val) + len(s.test)

    def test_isolated_nodes_never_train(self):
        nf = np.ones((20, 2))
        links = [(i, i + 1) for i in range(14)]  # nodes 15..19 isolated
        lf = np.ones((len(links), 1))
        g = G.AttributedGraph(nf, [0] * 20, links, lf, 1)
        s = G.make_split(g, seed=3)
        assert len(s.train) <= 13
        assert all(degree(g, u) > 0 for u in s.train)

    def test_unlabelled_nodes_in_no_set(self):
        g, _ = G.synth_graph("random", 100, seed=2)
        labels = [None if u % 7 == 3 else lab for u, lab in enumerate(g.labels)]
        h = G.AttributedGraph(g.node_features, labels, g.links,
                              g.link_features, g.n_labels)
        full, part = G.make_split(g, seed=7), G.make_split(h, seed=7)
        for ids, kept in zip(full.__dict__.values(), part.__dict__.values()):
            assert kept == tuple(u for u in ids if labels[u] is not None)

    def test_bad_fractions(self):
        g, _ = G.synth_graph("random", 20, seed=2)
        with pytest.raises(ValueError):
            G.make_split(g, fractions=(0.5, 0.5, 0.5), seed=0)

    def test_all_isolated_is_error(self):
        g = G.AttributedGraph(np.ones((12, 1)), [0] * 12, [], np.zeros((0, 1)), 1)
        with pytest.raises(ValueError, match="empty train"):
            G.make_split(g, seed=0)


class TestSynth:
    def test_min_size(self):
        with pytest.raises(ValueError):
            G.synth_graph("random", 5, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            G.synth_graph("nope", 50, seed=0)

    def test_interaction_rule_replay(self):
        g, _ = G.synth_graph("interaction", 200, seed=4)
        agree = sum(interaction_label(g, u) == g.labels[u]
                    for u in range(g.n_nodes))
        # Only exact ties get a random label.
        assert agree >= 0.95 * g.n_nodes

    def test_concat_blind_equal_sums_different_pairings(self):
        g, _ = G.synth_graph("concat-blind", 60, seed=5)
        for u, u2 in G.concat_blind_duos(g):
            fsum = sum(g.node_features[v] for v, _ in neighbors(g, u))
            fsum2 = sum(g.node_features[v] for v, _ in neighbors(g, u2))
            esum = sum(g.link_features[e] for _, e in neighbors(g, u))
            esum2 = sum(g.link_features[e] for _, e in neighbors(g, u2))
            assert np.allclose(fsum, fsum2) and np.allclose(esum, esum2)
            tensors = sorted(
                tuple(np.outer(g.node_features[v], g.link_features[e]).ravel())
                for v, e in neighbors(g, u))
            tensors2 = sorted(
                tuple(np.outer(g.node_features[v], g.link_features[e]).ravel())
                for v, e in neighbors(g, u2))
            assert tensors != tensors2

    def test_random_labels_have_full_range(self):
        g, _ = G.synth_graph("random", 120, seed=6)
        assert set(g.labels) == {0, 1, 2}
