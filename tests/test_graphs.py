import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ncprob import convolutions as cv
from ncprob import graphs as gr
from ncprob import measures as ms
from ncprob import transforms as tr
from ncprob.loewner import DrivingFunction


# ---------------------------------------------------------------------------
# per-edge and per-vertex references for the array constructions
# ---------------------------------------------------------------------------

def assert_simple(g):
    """``g`` with its adjacency checked: symmetric, loop-free and 0/1."""
    assert (g.adj != g.adj.T).nnz == 0
    assert not g.adj.diagonal().any()
    assert np.all(g.adj.data == 1)
    return g


def reference_from_edges(n, edges, root=0):
    rows, cols = [], []
    for a, b in edges:
        if a == b:
            raise ms.NcprobError("loops are not allowed")
        rows += [a, b]
        cols += [b, a]
    adj = sp.csr_matrix(
        (np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(n, n)
    )
    adj.data[:] = 1
    return gr.RootedGraph(adj, root)


def reference_spidernet(n, u, depth):
    shell_sizes = [1, 2 * n]
    while len(shell_sizes) <= depth:
        shell_sizes.append(shell_sizes[-1] * n)
    total = sum(shell_sizes[: depth + 1])
    edges = []
    start = 1
    prev_start = 0
    for k in range(1, depth + 1):
        m = shell_sizes[k]
        if k == 1:
            edges += [(0, start + i) for i in range(m)]
        else:
            for i in range(shell_sizes[k - 1]):
                for c in range(n):
                    edges.append((prev_start + i, start + i * n + c))
        for off in range(1, u // 2 + 1):
            edges += [(start + i, start + (i + off) % m) for i in range(m)]
        if u % 2:
            half = m // 2
            edges += [(start + i, start + i + half) for i in range(half)]
        prev_start = start
        start += m
    return reference_from_edges(total, edges, 0)


def reference_depths(g):
    out = np.full(g.n, -1, dtype=np.int64)
    out[g.root] = 0
    frontier = [g.root]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if out[w] < 0:
                    out[w] = d
                    nxt.append(w)
        frontier = nxt
    return out


def assert_same_graph(a, b):
    """Same root and the same CSR arrays, not merely isomorphic."""
    assert a.root == b.root
    assert a.adj.shape == b.adj.shape
    assert a.adj.dtype == b.adj.dtype
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(a.adj, name),
                                      getattr(b.adj, name))


@st.composite
def rooted_graphs(draw):
    """Rooted graphs of 1-9 vertices, often disconnected, any root."""
    n = draw(st.integers(1, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k]
    return gr.RootedGraph.from_edges(n, edges, draw(st.integers(0, n - 1)))


def zoo():
    """Five small rooted graphs used in the product identities."""
    return {
        "edge": gr.path_graph(2),
        "path3_end": gr.path_graph(3, root=0),
        "star3": gr.star_graph(3),
        "cycle4": gr.cycle_graph(4),
        "triangle": gr.cycle_graph(3),
    }


class TestRootedGraph:
    def test_from_edges_rejects_loops(self):
        with pytest.raises(ms.NcprobError, match="loops are not allowed"):
            gr.RootedGraph.from_edges(2, [(0, 0)])

    def test_depths(self):
        g = gr.path_graph(4)
        assert list(g.depths()) == [0, 1, 2, 3]

    @settings(max_examples=200, deadline=None)
    @given(g=rooted_graphs())
    def test_depths_match_reference(self, g):
        np.testing.assert_array_equal(g.depths(), reference_depths(g))

    def test_depths_match_reference_on_large_product(self):
        g = gr.comb_product(gr.comb_product(gr.spidernet(9, 5, 2),
                                            gr.spidernet(4, 3, 2)),
                            gr.spidernet(2, 1, 3))
        assert g.n >= 10**5
        np.testing.assert_array_equal(g.depths(), reference_depths(g))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 12),
           edges=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                          max_size=30),
           data=st.data())
    def test_from_edges_matches_reference(self, n, edges, data):
        edges = [(a % n, b % n) for a, b in edges]  # repeats kept on purpose
        root = data.draw(st.integers(0, n - 1))
        if any(a == b for a, b in edges):
            with pytest.raises(ms.NcprobError, match="loops are not allowed"):
                gr.RootedGraph.from_edges(n, edges, root)
        else:
            assert_same_graph(gr.RootedGraph.from_edges(n, edges, root),
                              reference_from_edges(n, edges, root))

    def test_vertex_guard(self):
        with pytest.raises(ms.NcprobError,
                           match="vertex count 100000000 exceeds guard"):
            gr.RootedGraph.from_edges(10**8, [])


class TestSpidernet:
    def test_z_lattice_case(self):
        # data (2, 2, 1): two half-lines; arcsine mean 0 variance 2
        g = assert_simple(gr.spidernet(1, 0, 6))
        m = gr.walk_moments(g, 4)
        assert m.values == (0, 2, 0, 6)  # m4 = C(4,2) walks on Z

    def test_path_is_wigner(self):
        # degenerate data (1, 2, 1): Catalan moments
        m = gr.walk_moments(gr.path_graph(8), 6)
        assert m.values == (0, 1, 0, 2, 0, 5)

    def test_degree_audit(self):
        for n, u in ((1, 1), (2, 1), (2, 3)):
            depth = 3
            g = assert_simple(gr.spidernet(n, u, depth))
            a, b = 2 * n, n + 1 + u  # degree data (2n, n+1+u, n)
            assert len(g.neighbors(0)) == a
            d = g.depths()
            interior = [v for v in range(1, g.n) if 0 < d[v] < depth]
            assert all(len(g.neighbors(v)) == b for v in interior)
            # lateral edge count within each shell
            ones = [v for v in range(g.n) if d[v] == 1]
            lateral = sum(1 for v in ones for w in g.neighbors(v)
                          if d[w] == 1)
            assert lateral == len(ones) * u

    def test_existence_constraint(self):
        with pytest.raises(ms.NcprobError,
                           match="spidernet needs 0 <= u <= 1"):
            gr.spidernet(1, 2, 3)  # u > 2n - 1

    def test_matches_reference(self):
        for n in range(1, 6):
            for u in range(2 * n):
                for depth in range(1, 5):
                    assert_same_graph(gr.spidernet(n, u, depth),
                                      reference_spidernet(n, u, depth))

    @pytest.mark.parametrize("args, message", [
        ((0, 0, 2), "spidernet n must be >= 1"),
        ((2, 0, 0), "spidernet depth must be >= 1"),
        ((2, 4, 2), "spidernet needs 0 <= u <= 3"),
        ((2, -1, 2), "spidernet needs 0 <= u <= 3"),
        ((100, 0, 4), "truncated spidernet has 202020201 > 10000000"),
    ])
    def test_error_messages(self, args, message):
        with pytest.raises(ms.NcprobError, match=message):
            gr.spidernet(*args)

    def test_truncation_sufficiency(self):
        for n, u in ((2, 1), (2, 2)):
            k = 6
            shallow = gr.walk_moments(gr.spidernet(n, u, k // 2 + 1), k)
            deep = gr.walk_moments(gr.spidernet(n, u, k // 2 + 3), k)
            assert shallow.values == deep.values

    def test_moments_match_slit_series(self):
        for n, u in product((1, 2), (0, 1)):
            g = gr.spidernet(n, u, 4)
            walks = gr.walk_moments(g, 6)
            series = tr.series_moments(tr.free_meixner_f_series(n, u, 10), 6)
            assert walks.values == tuple(int(v) for v in series.values)

    def test_odd_moments_vanish_without_laterals(self):
        g = gr.spidernet(3, 0, 4)
        m = gr.walk_moments(g, 7)
        assert m.values[0] == m.values[2] == m.values[4] == m.values[6] == 0


class TestWalkMoments:
    def test_first_two(self):
        for g in zoo().values():
            m = gr.walk_moments(g, 2)
            assert m[1] == 0
            assert m[2] == len(g.neighbors(g.root))

    def test_single_vertex(self):
        m = gr.walk_moments(gr.RootedGraph.single_vertex(), 5)
        assert m.values == (0,) * 5

    def test_star_spectral_law(self):
        g = gr.star_graph(2)
        assert gr.walk_moments(g, 2).values == (0, 2)
        atoms = gr.spectral_distribution(g).atoms
        assert [(round(a, 10), round(w, 10)) for a, w in atoms] == [
            (round(-math.sqrt(2), 10), 0.5), (round(math.sqrt(2), 10), 0.5)]

    def test_edge_spectral_law(self):
        atoms = gr.spectral_distribution(gr.path_graph(2)).atoms
        assert [(round(a, 10), round(w, 10)) for a, w in atoms] == [
            (-1.0, 0.5), (1.0, 0.5)]

    def test_spectral_matches_walks(self):
        for g in zoo().values():
            walks = gr.walk_moments(g, 8)
            spectral = gr.spectral_distribution(g).moments(8)
            assert np.abs(walks.floats() - spectral.floats()).max() < 1e-8


class TestProducts:
    def test_identities_against_convolutions(self):
        order = 6
        graphs = zoo()
        pairs = [(a, b) for a in graphs.values() for b in graphs.values()]
        for g1, g2 in pairs:
            m1 = gr.walk_moments(g1, order)
            m2 = gr.walk_moments(g2, order)
            comb = gr.walk_moments(gr.comb_product(g1, g2), order)
            want = cv.convolve("monotone", m1, m2)
            assert comb.values == tuple(int(v) for v in want.values)
            star = gr.walk_moments(gr.star_product(g1, g2), order)
            want = cv.convolve("boolean", m1, m2)
            assert star.values == tuple(int(v) for v in want.values)
            direct = gr.walk_moments(gr.direct_product(g1, g2), order)
            want = cv.convolve("classical", m1, m2)
            assert direct.values == tuple(int(v) for v in want.values)

    def test_product_guard(self):
        big = gr.path_graph(4000)
        with pytest.raises(ms.NcprobError,
                           match="product would have 16000000 > 10000000"):
            gr.comb_product(big, big)

    @settings(max_examples=300, deadline=None)
    @given(g1=rooted_graphs(), g2=rooted_graphs(), radius=st.integers(0, 5))
    def test_comb_ball_matches_pruned_product(self, g1, g2, radius):
        assert_same_graph(gr.comb_ball(g1, g2, radius),
                          gr.ball(gr.comb_product(g1, g2), radius))

    def test_comb_ball_of_spidernets_matches_pruned_product(self):
        g1 = gr.comb_ball(gr.spidernet(4, 3, 2), gr.spidernet(4, 5, 2), 2)
        g2 = gr.spidernet(4, 1, 3)
        for radius in (1, 2, 3):
            assert_same_graph(gr.comb_ball(g1, g2, radius),
                              gr.ball(gr.comb_product(g1, g2), radius))

    def test_comb_ball_guard(self):
        star = gr.star_graph(4000)
        # 4001 + 4000 * 4001 pairs lie within distance 2; the guard fires
        # on that count, before the product's 16M vertices would be formed
        with pytest.raises(ms.NcprobError,
                           match="ball would have 16008001 > 10000000"):
            gr.comb_ball(star, star, 2)
        assert gr.comb_ball(star, star, 1).n == 2 * 4000 + 1

    def test_comb_ball_negative_radius(self):
        with pytest.raises(ms.NcprobError, match="radius must be >= 0"):
            gr.comb_ball(gr.path_graph(2), gr.path_graph(2), -1)

    def test_ball_preserves_walk_moments(self):
        g = gr.spidernet(2, 1, 5)
        pruned = gr.ball(g, 3)
        assert pruned.n < g.n
        assert (gr.walk_moments(pruned, 6).values
                == gr.walk_moments(g, 6).values)


class TestApproxProcess:
    def test_second_moment_additivity(self):
        for n in (1, 2, 3):
            res = gr.approx_process(DrivingFunction.constant(0.0), 2.0, n,
                                    order=2)
            for k in range(n + 1):
                assert res.raw_moments[k][2] == k * 2 * n**2
                exact = Fraction(int(res.raw_moments[k][2])) \
                    / Fraction(2 * n**3, 2)
                assert exact == Fraction(2 * k, n)

    def test_empty_product(self):
        res = gr.approx_process(DrivingFunction.constant(0.0), 2.0, 1,
                                order=4)
        assert res.graphs[0].n == 1
        assert res.raw_moments[0].values == (0, 0, 0, 0)

    def test_fourth_moment_refinement(self):
        target = 6.0  # arcsine A(0,2) fourth moment
        errs = []
        for n in (1, 2, 3):
            res = gr.approx_process(DrivingFunction.constant(0.0), 2.0, n,
                                    order=4)
            errs.append(abs(res.scaled_moments(n)[4] - target))
        assert errs[1] <= errs[0] + 1e-12
        assert errs[2] <= errs[1] + 1e-12

    def test_nonzero_driving_self_consistency(self):
        driving = DrivingFunction.constant(0.4)
        res2 = gr.approx_process(driving, 2.0, 2, order=4)
        res3 = gr.approx_process(driving, 2.0, 3, order=4)
        # variances stay exactly additive even with lateral edges
        assert res2.raw_moments[2][2] == 2 * 2 * 2**2
        assert res3.raw_moments[3][2] == 3 * 2 * 3**2
        # u values follow the floor formula
        c2 = math.sqrt(2 * 2**3 / 2.0)
        assert res2.us[0] == math.floor(c2 * 0.4)

    @pytest.mark.parametrize("u", [0.2, 0.4, 0.8])
    def test_convergence_to_chain(self, u):
        """Scaled moments of C_{n,n} approach the chain's as n grows.

        Constant driving u gives the chain f_T(z) = u + sqrt((z-u)^2 - 2T);
        the spidernets see it quantized to u~ = floor(c u) / c with
        c = sqrt(2 n^3 / T), and match the chain at u~ exactly, so against
        u the error is T (u - u~) <= T / c in m3 and T (u^2 - u~^2) <= 2 T u / c
        in m4.  (Zero driving cannot show this: it is exact at every n.)
        """
        horizon = 2.0

        def chain_moments(drive):
            f = tr.free_meixner_f_series(Fraction(horizon) / 2, drive, 6)
            return [float(v) for v in tr.series_moments(f, 4).values]

        at_u = chain_moments(u)
        bounds = []
        for n in range(2, 6):
            res = gr.approx_process(DrivingFunction.constant(u), horizon, n)
            got = res.scaled_moments(n).values
            c = math.sqrt(res.scale_sq)
            at_quantized = chain_moments(math.floor(c * u) / c)
            assert np.abs(np.array(got) - at_quantized).max() <= 1e-12
            bounds.append((horizon / c, 2 * horizon * u / c))
            assert abs(got[2] - at_u[2]) <= bounds[-1][0]
            assert abs(got[3] - at_u[3]) <= bounds[-1][1]
        assert all(b[0] > a[0] and b[1] > a[1]
                   for a, b in zip(bounds[1:], bounds))

    def test_oversize_ball_refused_before_building(self, monkeypatch):
        calls = []
        for name in ("spidernet", "comb_ball"):
            monkeypatch.setattr(gr, name,
                                lambda *args, name=name: calls.append(name))
        # factor 699,049 vertices, two-level ball 12,116,881 > guard
        with pytest.raises(ms.NcprobError,
                           match="ball would have 12116881 > 10000000"):
            gr.approx_process(DrivingFunction.constant(0.0), 2.0, 2, order=18)
        assert calls == []

    def test_order_must_be_positive(self):
        with pytest.raises(ms.NcprobError, match="order must be >= 1"):
            gr.approx_process(DrivingFunction.constant(0.0), 2.0, 2, order=0)

    @pytest.mark.parametrize("horizon, order, scale", [
        (1e308, 4, "0"), (1e200, 4, "0"), (1e-300, 4, "inf"),
        (5e-324, 1, "inf")])
    def test_scale_out_of_range(self, horizon, order, scale):
        with pytest.raises(ms.NcprobError,
                           match=rf"out of range for n = 2: .* is {scale}$"):
            gr.approx_process(DrivingFunction.constant(0.0), horizon, 2,
                              order=order)

    def test_scale_in_range_at_order_one(self):
        # the order-4 scale underflows at T = 1e200, the order-1 one not
        res = gr.approx_process(DrivingFunction.constant(0.0), 1e200, 2,
                                order=1)
        assert res.scaled_moments(2).values == (0.0,)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
    def test_nonpositive_horizon_rejected(self, horizon):
        with pytest.raises(ms.NcprobError, match="horizon must be > 0"):
            gr.approx_process(DrivingFunction.constant(0.0), horizon, 2)

    def test_bound_error(self):
        with pytest.raises(ms.NcprobError, match="driving must satisfy 0 <= U"):
            gr.approx_process(DrivingFunction.constant(5.0), 2.0, 1, order=2)
        with pytest.raises(ms.NcprobError, match="driving must satisfy 0 <= U"):
            gr.approx_process(DrivingFunction.constant(-0.1), 2.0, 2, order=2)
