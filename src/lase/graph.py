"""Attributed graph container, TSV loading, splits and synthetic generators.

Graphs are immutable after construction: node features, link features and
the directed arcs (dst, src, link) sorted by (dst, src) are plain numpy
arrays, and the arcs are the only neighbor index.  Node files are tab-separated
``id<TAB>label<TAB>f1,f2,...`` with ``-`` for a missing label; link files are
``src<TAB>dst<TAB>f1,f2,...``.  A sidecar JSON manifest may carry
``{d_node, d_link, n_labels, undirected}`` and overrides inference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .fileio import atomic_write


class GraphError(ValueError):
    """Invalid graph data (format, dimensions, endpoints, values)."""


@dataclass(frozen=True)
class Split:
    train: tuple
    val: tuple
    test: tuple


class AttributedGraph:
    """Nodes and links with feature vectors; undirected by default.

    ``links`` is kept as an (n_links, 2) int64 array of (src, dst) rows.
    """

    def __init__(self, node_features, labels, links, link_features,
                 n_labels, undirected=True):
        self.node_features = np.asarray(node_features, dtype=np.float64)
        if self.node_features.ndim != 2 or self.node_features.shape[1] < 1:
            raise GraphError("node features must be (n_nodes, d_node) with d_node > 0")
        self.labels = list(labels)
        try:
            self.links = shown = np.array(links, dtype=np.int64)
        except OverflowError:  # ids beyond int64, clamped: they stay dangling
            shown = np.array(links, dtype=object)
            self.links = np.clip(shown, -1, self.n_nodes).astype(np.int64)
        if self.links.size == 0:
            self.links = self.links.reshape(0, 2)
        if self.links.ndim != 2 or self.links.shape[1] != 2:
            raise GraphError("links must be (src, dst) pairs")
        self.link_features = np.asarray(link_features, dtype=np.float64)
        if len(self.links) == 0 and self.link_features.ndim != 2:
            d = self.link_features.shape[-1] if self.link_features.ndim else 1
            self.link_features = self.link_features.reshape(0, max(d, 1))
        if self.link_features.ndim != 2:
            raise GraphError("link features must be (n_links, d_link)")
        self.n_labels = int(n_labels)
        self.undirected = bool(undirected)
        self._build_arcs(self.links)
        self._validate(shown)

    # -- construction helpers ------------------------------------------------

    def _validate(self, shown):
        """``shown`` holds the endpoints as given, for the error messages."""
        ends = self.links
        if not np.all(np.isfinite(self.node_features)):
            raise GraphError("non-finite node feature value")
        if self.link_features.size and not np.all(np.isfinite(self.link_features)):
            raise GraphError("non-finite link feature value")
        if len(self.links) != self.link_features.shape[0]:
            raise GraphError("link count disagrees with link feature rows")
        # Equal arcs are adjacent, in link order: each after the first repeats.
        same = ((self.arc_dst[1:] == self.arc_dst[:-1])
                & (self.arc_src[1:] == self.arc_src[:-1]))
        repeated = np.bincount(self.arc_link[1:][same], minlength=len(ends)) > 0
        dangling = ((ends < 0) | (ends >= self.n_nodes)).any(axis=1)
        loop = ends[:, 0] == ends[:, 1]
        bad = np.flatnonzero(dangling | loop | repeated)
        if bad.size:
            i = bad[0]
            raise GraphError(("dangling link endpoint (%d, %d)" if dangling[i]
                              else "self-loop (%d, %d) not supported" if loop[i]
                              else "duplicate link between %d and %d")
                             % tuple(shown[i].tolist()))
        for lab in self.labels:
            if lab is not None and not (0 <= lab < self.n_labels):
                raise GraphError("label %r out of range" % (lab,))

    def _build_arcs(self, ends):
        """Directed arcs (dst, src, link), sorted in that key order; the arcs
        into node u are ``arc_ptr[u]:arc_ptr[u + 1]``."""
        eid = np.arange(len(ends))
        dst, src = ends[:, 0], ends[:, 1]
        if self.undirected:
            dst, src = np.concatenate([dst, src]), np.concatenate([src, dst])
            eid = np.concatenate([eid, eid])
        order = np.lexsort((eid, src, dst))
        self.arc_dst, self.arc_src = dst[order], src[order]
        self.arc_link = eid[order]
        self.arc_ptr = np.searchsorted(self.arc_dst, np.arange(self.n_nodes + 1))

    # -- basic accessors -----------------------------------------------------

    @property
    def n_nodes(self):
        return self.node_features.shape[0]

    @property
    def n_links(self):
        return len(self.links)

    @property
    def d_node(self):
        return self.node_features.shape[1]

    @property
    def d_link(self):
        return self.link_features.shape[1]

    @property
    def adjacency(self):
        """Each node's (neighbor id, link id) pairs, sorted by neighbor id."""
        pairs = tuple(zip(self.arc_src.tolist(), self.arc_link.tolist()))
        ptr = self.arc_ptr.tolist()
        return tuple(pairs[lo:hi] for lo, hi in zip(ptr, ptr[1:]))

    def arcs_into(self, nodes):
        """Every arc into ``nodes`` (an integer array), grouped by node in list
        order: (arc ids, the position in ``nodes`` of each arc's dst)."""
        lo = self.arc_ptr[nodes]
        cnt = self.arc_ptr[nodes + 1] - lo
        ids = np.arange(cnt.sum()) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
        return ids, np.repeat(np.arange(len(nodes)), cnt)

    def with_link_features(self, new_features):
        """Copy of this graph with replaced link features."""
        return AttributedGraph(self.node_features.copy(), self.labels,
                               self.links, new_features, self.n_labels,
                               self.undirected)


# ---------------------------------------------------------------------------
# TSV + manifest I/O
# ---------------------------------------------------------------------------

def _parse_feats(text, expect, what, lineno):
    try:
        vals = [float(t) for t in text.split(",")]
    except ValueError:
        raise GraphError("%s line %d: bad feature list" % (what, lineno))
    if expect is not None and len(vals) != expect:
        raise GraphError("%s line %d: feature dimension %d, expected %d"
                         % (what, lineno, len(vals), expect))
    for v in vals:
        if not math.isfinite(v):
            raise GraphError("%s line %d: non-finite feature" % (what, lineno))
    return vals


def _parse_int(text, what, lineno, field):
    try:
        return int(text)
    except ValueError:
        raise GraphError("%s line %d: bad %s %r" % (what, lineno, field, text))


def _data_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def _load_manifest(path):
    """The manifest JSON object; each key it carries has the type the loader
    needs: ``d_node``, ``d_link`` and ``n_labels`` non-negative integers and
    ``undirected`` a boolean."""
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise GraphError("manifest: expected a JSON object")
    for key in ("d_node", "d_link", "n_labels"):
        v = manifest.get(key, 0)
        if type(v) is not int or v < 0:
            raise GraphError("manifest: %r must be a non-negative integer, "
                             "not %r" % (key, v))
    if type(manifest.get("undirected", True)) is not bool:
        raise GraphError("manifest: 'undirected' must be true or false, not %r"
                         % (manifest["undirected"],))
    return manifest


def load_graph(nodes_path, links_path, manifest_path=None, undirected=True):
    """Load an AttributedGraph from node/link TSV files."""
    manifest = {}
    if manifest_path is not None:
        manifest = _load_manifest(manifest_path)
        undirected = manifest.get("undirected", undirected)

    feats, labels = [], []
    d_node = manifest.get("d_node")
    for lineno, line in _data_lines(nodes_path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise GraphError("node line %d: expected 3 tab-separated fields" % lineno)
        if _parse_int(parts[0], "node", lineno, "id") != len(feats):
            raise GraphError("node line %d: ids must be dense and in order" % lineno)
        labels.append(None if parts[1] == "-"
                      else _parse_int(parts[1], "node", lineno, "label"))
        row = _parse_feats(parts[2], d_node, "node", lineno)
        if d_node is None:
            d_node = len(row)
        feats.append(row)

    links, lfeats = [], []
    d_link = manifest.get("d_link")
    for lineno, line in _data_lines(links_path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise GraphError("link line %d: expected 3 tab-separated fields" % lineno)
        links.append(tuple(_parse_int(t, "link", lineno, "endpoint")
                           for t in parts[:2]))
        row = _parse_feats(parts[2], d_link, "link", lineno)
        if d_link is None:
            d_link = len(row)
        lfeats.append(row)

    n_labels = manifest.get("n_labels")
    if n_labels is None:
        n_labels = 1 + max((l for l in labels if l is not None), default=-1)
    lf = np.asarray(lfeats, dtype=np.float64).reshape(-1, d_link or 1)
    return AttributedGraph(np.asarray(feats, dtype=np.float64), labels,
                           links, lf, n_labels, undirected=undirected)


def save_graph(g, nodes_path, links_path, manifest_path=None):
    """Write a graph back out in the loader's format (bit-exact floats)."""
    atomic_write(nodes_path, "".join(
        "%d\t%s\t%s\n" % (i, "-" if g.labels[i] is None else str(g.labels[i]),
                           ",".join(repr(float(v)) for v in g.node_features[i]))
        for i in range(g.n_nodes)))
    atomic_write(links_path, "".join(
        "%d\t%d\t%s\n" % (s, d, ",".join(repr(float(v))
                                          for v in g.link_features[eid]))
        for eid, (s, d) in enumerate(g.links.tolist())))
    if manifest_path is not None:
        atomic_write(manifest_path, json.dumps(
            {"d_node": g.d_node, "d_link": g.d_link, "n_labels": g.n_labels,
             "undirected": g.undirected}, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def load_split(path, n_nodes):
    """The split JSON of ``lase synth --split``: its train, val and test
    lists hold integer node ids in [0, n_nodes), no id twice."""
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    keys = ("train", "val", "test")
    sets = [d.get(key) if isinstance(d, dict) else None for key in keys]
    seen = set()
    for key, ids in zip(keys, sets):
        if not isinstance(ids, list):
            raise GraphError("split: %r must be a list of node ids" % key)
        for u in ids:
            if type(u) is not int or not 0 <= u < n_nodes:
                raise GraphError("split: %s id %r is not a node id in [0, %d)"
                                 % (key, u, n_nodes))
            if u in seen:
                raise GraphError("split: node %d is listed more than once" % u)
            seen.add(u)
    return Split(*map(tuple, sets))


def make_split(g, fractions=(0.65, 0.15, 0.20), seed=0):
    """Deterministic train/val/test split; isolated nodes never train, and
    unlabelled nodes are in no set."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(g.n_nodes)
    n_train = int(math.floor(fractions[0] * g.n_nodes))
    n_val = int(math.floor(fractions[1] * g.n_nodes))
    labelled = np.array([lab is not None for lab in g.labels], dtype=bool)
    train, val, test = (ids[labelled[ids]] for ids in
                        np.split(order, [n_train, n_train + n_val]))
    train = train[np.diff(g.arc_ptr)[train] > 0]
    if not train.size:
        raise ValueError("empty train set: all candidate train nodes are "
                         "isolated or unlabelled")
    return Split(*(tuple(np.sort(ids).tolist()) for ids in (train, val, test)))


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------

SYNTH_KINDS = ("interaction", "concat-blind", "random")


def _random_regular_links(n, deg, rng):
    """Approximately deg-regular simple undirected link list."""
    links = set()
    degree = np.zeros(n, dtype=int)
    for u in range(n):
        tries = 0
        while degree[u] < deg and tries < 50 * deg:
            v = int(rng.integers(n))
            tries += 1
            key = (min(u, v), max(u, v))
            if v == u or key in links:
                continue
            links.add(key)
            degree[u] += 1
            degree[v] += 1
    return sorted(links)


def _pairing_rule(g):
    """Ground-truth statistic of the interaction generator, per node: the sum
    over its arcs of neighbor features dotted with link features."""
    terms = np.sum(g.node_features[g.arc_src] * g.link_features[g.arc_link],
                   axis=1)
    return np.bincount(g.arc_dst, weights=terms, minlength=g.n_nodes)


def synth_graph(kind, n, seed=0):
    """Generate a labelled synthetic graph and a split.

    ``interaction``: labels depend only on the sign of the summed elementwise
    node-feature / link-feature interactions in each neighborhood (features
    are +-1 with odd dimension, so each neighbor adds an odd number; degrees
    are only approximately regular, and a node whose sum is exactly zero gets
    a random label).
    ``concat-blind``: disjoint 6-node blocks, each holding two star
    neighborhoods whose node-sums and link-sums agree while the (node, link)
    pairings - and the center labels - differ.
    ``random``: labels independent of everything.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError("unknown synthetic kind %r" % (kind,))
    if n < 10:
        raise ValueError("n must be >= 10")
    rng = np.random.default_rng(seed)

    if kind == "interaction":
        d = 3
        deg = 5
        links = _random_regular_links(n, deg, rng)
        nf = rng.choice([-1.0, 1.0], size=(n, d))
        lf = rng.choice([-1.0, 1.0], size=(len(links), d))
        s = _pairing_rule(AttributedGraph(nf, [None] * n, links, lf, 2))
        # Odd per-neighbor contributions; nodes with even degree can tie at 0,
        # and a tied node draws its label at random, in node order.
        labels = (s > 0.0).astype(int)
        tied = np.flatnonzero(s == 0.0)
        labels[tied] = [rng.integers(2) for _ in tied]
        g = AttributedGraph(nf, labels.tolist(), links, lf, 2)
        return g, make_split(g, seed=seed + 1)

    if kind == "concat-blind":
        blocks = max(2, n // 6)
        d_node, d_link = 3, 3
        nf, lf, links, labels = [], [], [], []
        for b in range(blocks):
            center = rng.normal(size=d_node)
            a, bb = rng.normal(size=d_node), rng.normal(size=d_node)
            x, y = rng.normal(size=d_link), rng.normal(size=d_link)
            base = 6 * b
            # Block layout: [u, v1, v2, u', v1', v2'].
            nf += [center, a, bb, center, a, bb]
            labels += [0, 0, 0, 1, 1, 1]
            links += [(base, base + 1), (base, base + 2),
                      (base + 3, base + 4), (base + 3, base + 5)]
            lf += [x, y, y, x]
        g = AttributedGraph(np.array(nf), labels, links, np.array(lf), 2)
        return g, make_split(g, seed=seed + 1)

    # random
    d = 4
    links = _random_regular_links(n, 4, rng)
    nf = rng.normal(size=(n, d))
    lf = rng.normal(size=(len(links), d))
    n_labels = 3
    labels = [int(rng.integers(n_labels)) for _ in range(n)]
    g = AttributedGraph(nf, labels, links, lf, n_labels)
    return g, make_split(g, seed=seed + 1)


def random_graph(rng, max_nodes=8, d_node=3, d_link=2, p_link=0.5):
    """Unlabelled graph of 2..max_nodes nodes with gaussian features; each
    node pair is linked with probability ``p_link`` (else one link (0, 1))."""
    n = int(rng.integers(2, max_nodes + 1))
    links = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p_link]
    if not links:
        links = [(0, 1)]
    nf = rng.normal(size=(n, d_node))
    lf = rng.normal(size=(len(links), d_link))
    return AttributedGraph(nf, [None] * n, links, lf, 1)


def concat_blind_duos(g):
    """Paired center node ids (u, u') of a concat-blind graph."""
    return [(b, b + 3) for b in range(0, g.n_nodes, 6)]
