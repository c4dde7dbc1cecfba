"""Rooted graphs as quantum random variables.

A rooted graph's adjacency matrix, paired with the vector state at the
root, has a spectral distribution whose n-th moment is the number of
closed n-step walks at the root.  Comb, star, and direct products realize
monotone, Boolean, and classical independence of the adjacency operators;
spidernets realize free Meixner laws, and iterated comb products of
spidernets approximate monotone additive processes.

Adjacency matrices are ``scipy.sparse`` CSR matrices; the functions that
build them import scipy, so importing this module does not.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .measures import (AtomicMeasure, MomentSequence, NcprobError,
                       _check_count, _spectral_pairs)

VERTEX_GUARD = 10**7


@dataclass(frozen=True)
class RootedGraph:
    """Finite undirected loop-free graph with a distinguished root.

    ``adj`` is a sparse 0/1 symmetric matrix with zero diagonal.
    """

    adj: "scipy.sparse.csr_matrix"
    root: int

    def __post_init__(self):
        _check_count(self.root, "root", 0)
        if self.root >= self.adj.shape[0]:
            raise NcprobError("root index out of range")

    @property
    def n(self):
        return self.adj.shape[0]

    @classmethod
    def from_edges(cls, n, edges, root=0):
        import scipy.sparse as sp

        if n > VERTEX_GUARD:
            raise NcprobError(f"vertex count {n} exceeds guard {VERTEX_GUARD}")
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if np.any(e[:, 0] == e[:, 1]):
            raise NcprobError("loops are not allowed")
        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        adj = sp.csr_matrix(
            (np.ones(rows.size, dtype=np.int64), (rows, cols)), shape=(n, n)
        )
        adj.data[:] = 1  # collapse duplicate edge listings
        return cls(adj, root)

    @classmethod
    def single_vertex(cls):
        import scipy.sparse as sp

        return cls(sp.csr_matrix((1, 1), dtype=np.int64), 0)

    def max_degree(self):
        return int(np.diff(self.adj.indptr).max(initial=0))

    def neighbors(self, v):
        return self.adj.indices[self.adj.indptr[v]:self.adj.indptr[v + 1]]

    def depths(self):
        """BFS distances from the root (-1 for unreachable vertices).

        Level-synchronous: each round gathers the CSR rows of the whole
        frontier at once.
        """
        out = np.full(self.n, -1, dtype=np.int64)
        out[self.root] = 0
        frontier = np.array([self.root])
        d = 0
        while frontier.size:
            d += 1
            reached = np.unique(self.adj[frontier].indices)
            frontier = reached[out[reached] < 0]
            out[frontier] = d
        return out


# ---------------------------------------------------------------------------
# basic constructions
# ---------------------------------------------------------------------------

def path_graph(vertices, root=0):
    _check_count(vertices, "vertices")
    return RootedGraph.from_edges(
        vertices, [(i, i + 1) for i in range(vertices - 1)], root
    )


def star_graph(leaves):
    _check_count(leaves, "leaves", 0)
    return RootedGraph.from_edges(
        leaves + 1, [(0, i) for i in range(1, leaves + 1)], 0
    )


def cycle_graph(vertices, root=0):
    # two vertices would list their one edge twice, which is a path
    _check_count(vertices, "cycle vertices", 3)
    edges = [(i, (i + 1) % vertices) for i in range(vertices)]
    return RootedGraph.from_edges(vertices, edges, root)


def _spidernet_shells(n, depth):
    """Shell sizes 1, 2n, 2n^2, ... of a spidernet truncated at ``depth``
    (they do not depend on u), checked against the vertex guard."""
    shells = [1] + [2 * n**k for k in range(1, depth + 1)]
    if sum(shells) > VERTEX_GUARD:
        raise NcprobError(
            f"truncated spidernet has {sum(shells)} > {VERTEX_GUARD} vertices")
    return shells


def spidernet(n, u, depth):
    """Spidernet S_{n,u} with degree data (2n, n+1+u, n), truncated.

    The root has 2n children; every deeper vertex has n forward edges, one
    backward edge, and u lateral edges realized as a circulant inside its
    shell (offsets 1..u//2 both ways, plus the antipode when u is odd;
    shell sizes are even so the antipode pairing is well defined).
    Vertices at the truncation depth keep their lateral wiring.
    """
    _check_count(n, "spidernet n")
    _check_count(depth, "spidernet depth")
    if (isinstance(u, bool) or not isinstance(u, numbers.Integral)
            or not 0 <= u <= 2 * n - 1):
        raise NcprobError(
            f"spidernet needs 0 <= u <= {2 * n - 1} and an int, got {u!r}")
    shell_sizes = _spidernet_shells(n, depth)
    total = sum(shell_sizes)
    parts = []
    start = 1
    prev_start = 0
    for k in range(1, depth + 1):
        m = shell_sizes[k]
        j = np.arange(m)
        # forward edges: vertex i of the previous shell owns children
        # i*fan .. i*fan + fan - 1 of this one
        fan = m // shell_sizes[k - 1]
        parts.append(np.column_stack([prev_start + j // fan, start + j]))
        # lateral circulant inside this shell
        for off in range(1, u // 2 + 1):
            parts.append(np.column_stack([start + j, start + (j + off) % m]))
        if u % 2:
            half = np.arange(m // 2)
            parts.append(np.column_stack([start + half,
                                          start + half + m // 2]))
        prev_start = start
        start += m
    edges = np.concatenate(parts)
    return RootedGraph.from_edges(total, edges, 0)


# ---------------------------------------------------------------------------
# graph products
# ---------------------------------------------------------------------------

def _guard_product(g1, g2):
    if g1.n * g2.n > VERTEX_GUARD:
        raise NcprobError(
            f"product would have {g1.n * g2.n} > {VERTEX_GUARD} vertices"
        )


def comb_product(g1, g2):
    """Comb product: move in the first factor only while the second sits at
    its root; realizes monotone independence."""
    import scipy.sparse as sp

    _guard_product(g1, g2)
    n1, n2 = g1.n, g2.n
    o2 = g2.root
    a1, a2 = g1.adj.tocoo(), g2.adj.tocoo()
    rows = [a1.row * n2 + o2, np.repeat(np.arange(n1), a2.nnz) * n2
            + np.tile(a2.row, n1)]
    cols = [a1.col * n2 + o2, np.repeat(np.arange(n1), a2.nnz) * n2
            + np.tile(a2.col, n1)]
    adj = sp.csr_matrix(
        (np.ones(sum(len(r) for r in rows), dtype=np.int64),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(n1 * n2, n1 * n2),
    )
    return RootedGraph(adj, g1.root * n2 + o2)


def comb_ball(g1, g2, radius):
    """``ball(comb_product(g1, g2), radius)`` without building the product.

    The comb-product vertex (v, w) lies at root distance d1(v) + d2(w): a
    walk leaves v only while the second factor sits at its root.  The ball
    is therefore {(v, w) : d1(v) + d2(w) <= radius}; its edges are g1's
    edges at w = o2 plus g2's edges inside each copy v whose ends are both
    within the copy's budget radius - d1(v).  Pairs keep the product's
    order v * n2 + w, so the adjacency and root equal the pruned product's
    exactly.
    """
    import scipy.sparse as sp

    if radius < 0:
        raise NcprobError(f"radius must be >= 0, got {radius}")
    d1, d2 = g1.depths(), g2.depths()
    # shells1[k] = #{v : d1(v) = k}; within2[j] = |W_j| for the ascending
    # W_j = {w : 0 <= d2(w) <= j}, the second coordinates kept beside v when
    # d1(v) = radius - j
    shells1 = np.bincount(d1[d1 >= 0], minlength=radius + 1)[:radius + 1]
    within2 = np.cumsum(np.bincount(d2[d2 >= 0], minlength=radius + 1)
                        [:radius + 1])
    total = int(shells1 @ within2[::-1])
    if total > VERTEX_GUARD:
        raise NcprobError(f"ball would have {total} > {VERTEX_GUARD} vertices")
    # copy v occupies ball indices offset[v] .. offset[v] + |W_{r - d1(v)}|
    size = np.zeros(g1.n, dtype=np.int64)
    kept1 = (d1 >= 0) & (d1 <= radius)
    size[kept1] = within2[radius - d1[kept1]]
    offset = np.cumsum(size) - size
    a1, a2 = g1.adj.tocoo(), g2.adj.tocoo()
    rank_o2 = np.empty(radius + 1, dtype=np.int64)  # position of o2 in W_j
    rows, cols = [], []
    for k in range(radius + 1):
        budget = radius - k
        inside = (d2 >= 0) & (d2 <= budget)
        rank = np.cumsum(inside) - 1
        rank_o2[budget] = rank[g2.root]
        copies = offset[np.nonzero(d1 == k)[0], None]
        e = inside[a2.row] & inside[a2.col]
        rows.append((copies + rank[a2.row[e]]).ravel())
        cols.append((copies + rank[a2.col[e]]).ravel())
    e = kept1[a1.row] & kept1[a1.col]
    at_o2 = offset + rank_o2[np.where(kept1, radius - d1, 0)]
    rows.append(at_o2[a1.row[e]])
    cols.append(at_o2[a1.col[e]])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    adj = sp.csr_matrix((np.ones(rows.size, dtype=np.int64), (rows, cols)),
                        shape=(total, total))
    return RootedGraph(adj, int(at_o2[g1.root]))


def star_product(g1, g2):
    """Star product: glue the factors at their roots; realizes Boolean
    independence."""
    import scipy.sparse as sp

    _guard_product(g1, g2)
    n1, n2 = g1.n, g2.n
    o1, o2 = g1.root, g2.root
    a1, a2 = g1.adj.tocoo(), g2.adj.tocoo()
    rows = [a1.row * n2 + o2, o1 * n2 + a2.row]
    cols = [a1.col * n2 + o2, o1 * n2 + a2.col]
    adj = sp.csr_matrix(
        (np.ones(a1.nnz + a2.nnz, dtype=np.int64),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(n1 * n2, n1 * n2),
    )
    adj.data[:] = 1  # the two copies share no edges, but stay safe
    return RootedGraph(adj, o1 * n2 + o2)


def direct_product(g1, g2):
    """Direct (Cartesian) product; realizes classical independence."""
    import scipy.sparse as sp

    _guard_product(g1, g2)
    n1, n2 = g1.n, g2.n
    eye1 = sp.identity(n1, dtype=np.int64, format="csr")
    eye2 = sp.identity(n2, dtype=np.int64, format="csr")
    adj = sp.kron(g1.adj, eye2, format="csr") + sp.kron(eye1, g2.adj,
                                                        format="csr")
    return RootedGraph(adj.tocsr(), g1.root * n2 + g2.root)


def ball(g, radius):
    """Induced subgraph on the BFS ball around the root.

    Closed walks of length up to 2*radius never leave the ball, so walk
    moments up to that order are preserved.
    """
    d = g.depths()
    keep = np.nonzero((0 <= d) & (d <= radius))[0]
    relabel = -np.ones(g.n, dtype=np.int64)
    relabel[keep] = np.arange(keep.size)
    sub = g.adj[keep][:, keep].tocsr()
    return RootedGraph(sub, int(relabel[g.root]))


# ---------------------------------------------------------------------------
# moments and spectra
# ---------------------------------------------------------------------------

def walk_moments(g, order):
    """Exact closed-walk counts at the root: m_k = <e_o, A^k e_o>."""
    _check_count(order, "walk order")
    maxdeg = max(g.max_degree(), 1)
    if order * math.log2(maxdeg) < 62:
        v = np.zeros(g.n, dtype=np.int64)
        v[g.root] = 1
        out = []
        for _ in range(order):
            v = g.adj.dot(v)
            out.append(int(v[g.root]))
    else:  # exact big-integer fallback
        vals = {g.root: 1}
        out = []
        for _ in range(order):
            nxt = {}
            for vtx, c in vals.items():
                for w in g.neighbors(vtx):
                    nxt[w] = nxt.get(w, 0) + c
            vals = nxt
            out.append(vals.get(g.root, 0))
    return MomentSequence(tuple(out))


def spectral_distribution(g):
    """Atoms at adjacency eigenvalues weighted by squared root components."""
    if g.n > 4096:
        raise NcprobError("dense eigensolve limited to 4096 vertices")
    pairs = _spectral_pairs(g.adj.toarray().astype(float), g.root)
    return AtomicMeasure.from_pairs(pairs, merge_tol=1e-9, renormalize=True)


# ---------------------------------------------------------------------------
# the spidernet approximation pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproxProcess:
    """Output of the growing comb-product approximation.

    ``raw_moments[k]`` are the exact integer walk moments of the k-fold
    comb product (k = 0 is the empty product); scaled moments divide order
    j by scale_sq**(j/2), where scale_sq = 2 n^3 / T.
    """

    us: tuple
    graphs: tuple
    raw_moments: tuple
    scale_sq: float

    def scaled_moments(self, k):
        raw = self.raw_moments[k]
        return MomentSequence(tuple(
            float(v) / self.scale_sq ** (j / 2)
            for j, v in enumerate(raw.values, start=1)
        ))


def spidernet_bound(n, horizon):
    """Largest driving value admissible for the n-th approximation level."""
    return math.sqrt(horizon / 2) * (2 * math.sqrt(n) - n ** -1.5)


def approx_process(driving, horizon, n, order=4):
    """Spidernet comb-product approximation of the chain driven by U >= 0.

    Builds C_{n,k} = S_{n^2, u_1} comb ... comb S_{n^2, u_k} with
    u_k = floor(sqrt(2 n^3 / T) * U(k T / n)).  Each C_{n,k} is built
    directly as the root ball that closed walks of the requested order can
    reach (``comb_ball``), never as the full product, and each factor is
    truncated at the ball's radius, since the ball never reaches a deeper
    shell.
    """
    _check_count(n, "approximation level n")
    _check_count(order, "moment order")
    if not horizon > 0:
        raise NcprobError(f"horizon must be > 0, got {horizon}")
    TT = float(horizon)
    bound = spidernet_bound(n, TT)
    ts = np.linspace(0.0, TT, 257)
    uvals = np.asarray(driving(ts), dtype=float)
    if np.any(uvals < 0) or np.any(uvals > bound):
        raise NcprobError(
            f"driving must satisfy 0 <= U <= {bound:.6g} on [0, {TT}] for n={n}"
        )
    scale_sq = 2.0 * n**3 / TT
    # scaled_moments divides order j by scale_sq ** (j/2), which is
    # monotone in j, so the top order is the one to underflow or overflow
    try:
        top = scale_sq ** (order / 2)
    except OverflowError:
        top = math.inf
    if not 0 < top < math.inf:
        raise NcprobError(
            f"horizon T = {TT:g} is out of range for n = {n}: the order-"
            f"{order} scale (2 n^3 / T)^{order / 2:g} is {top:g}")
    c = math.sqrt(scale_sq)
    radius = (order + 1) // 2
    # refuse before building anything: shell sizes do not depend on u, and
    # the k-th ball counts the k-tuples of depths that sum to <= radius
    shells = _spidernet_shells(n * n, radius)
    sizes = np.ones(1, dtype=np.int64)
    for _ in range(n):
        sizes = np.convolve(sizes, shells)[:radius + 1]
        if sizes.sum() > VERTEX_GUARD:
            raise NcprobError(
                f"ball would have {sizes.sum()} > {VERTEX_GUARD} vertices")

    us = []
    graphs = [RootedGraph.single_vertex()]
    raw = [MomentSequence((0,) * order)]
    current = graphs[0]
    for k in range(1, n + 1):
        uk = int(math.floor(c * float(driving(k * TT / n))))
        us.append(uk)
        factor = spidernet(n * n, uk, radius)
        current = comb_ball(current, factor, radius)
        graphs.append(current)
        raw.append(walk_moments(current, order))
    return ApproxProcess(tuple(us), tuple(graphs), tuple(raw), scale_sq)
