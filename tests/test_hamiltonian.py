import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from splitgame import hamiltonian
from splitgame.hamiltonian import (
    PayoffTensor,
    SimplexGrid,
    analytic_field,
    cav_q,
    certificate_gap,
    eval_H,
    lower_hull_1d,
    matrix_game_value,
    maximin_value,
    small_game_value,
    tensor_field,
    vex_p,
)


def brute_force_minimax_2x2(m, steps=2000):
    """Oracle: min over row mixtures of max over columns, dense grid."""
    xs = np.linspace(0.0, 1.0, steps + 1)
    mix = np.column_stack([xs, 1.0 - xs])
    payoffs = mix @ m
    return float(np.min(np.max(payoffs, axis=1)))


def oracle_lower_hull(y):
    """Oracle: largest convex minorant on a uniform grid via all chords, O(m^3)."""
    m = len(y)
    out = np.array(y, dtype=float)
    for i in range(m):
        best = y[i]
        for a in range(0, i + 1):
            for b in range(i, m):
                if a == b:
                    continue
                w = (i - a) / (b - a)
                best = min(best, (1 - w) * y[a] + w * y[b])
        out[i] = best
    return out


def oracle_lp_envelope(grid, f):
    """Oracle: convex envelope at each node by one LP, min sum lam_i f_i
    s.t. sum lam_i x_i = x, lam >= 0, sum lam_i = 1 (integer lattice x)."""
    x = np.rint(grid.nodes[:, :2] * grid.resolution)
    a_eq = np.vstack([x.T, np.ones(grid.n_nodes)])
    tol = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    out = np.empty(grid.n_nodes)
    for k in range(grid.n_nodes):
        res = linprog(f, A_eq=a_eq, b_eq=np.append(x[k], 1.0), bounds=(0.0, None),
                      method="highs", options=tol)
        assert res.success, res.message
        out[k] = res.fun
    return out


@st.composite
def three_simplex_values(draw):
    """A 3-simplex grid with m in [1, 16] and rough, affine, steep or tied values."""
    grid = SimplexGrid.build(3, draw(st.integers(1, 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["rough", "affine", "steep", "tied"]))
    if kind == "affine":
        return grid, grid.nodes @ rng.normal(size=3)
    if kind == "tied":
        return grid, rng.integers(0, 3, size=grid.n_nodes).astype(float)
    return grid, rng.normal(size=grid.n_nodes) * (1e4 if kind == "steep" else 1.0)


def reference_lower_hull(y):
    """The per-segment monotone chain that lower_hull_1d reproduces bit for bit."""
    m = y.size
    if m <= 2:
        return y.copy()
    stack = [0]
    for i in range(1, m):
        while len(stack) >= 2:
            a, b = stack[-2], stack[-1]
            if (y[b] - y[a]) * (i - b) <= (y[i] - y[b]) * (b - a):
                break
            stack.pop()
        stack.append(i)
    out = np.empty(m)
    for a, b in zip(stack[:-1], stack[1:]):
        t = np.arange(0, b - a + 1) / (b - a)
        out[a:b + 1] = (1.0 - t) * y[a] + t * y[b]
        out[b] = y[b]
    out[stack[0]] = y[stack[0]]
    return np.minimum(out, y)


@st.composite
def hull_samples(draw):
    """1-D samples with m in [0, 300]: rough, affine, tied (rounded, so signed
    zeros occur), concave, scaled by +-1e12, rough with 10% infinite entries
    (the only inputs on which a chord through a hull vertex misses its sample),
    or a non-contiguous column view."""
    m = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["rough", "affine", "tied", "concave", "scaled", "infinite",
                                 "column"]))
    x = np.linspace(0.0, 1.0, m)
    if kind == "infinite":
        return np.where(rng.random(m) < 0.1, rng.choice([-np.inf, np.inf], m), rng.normal(size=m))
    if kind == "affine":
        return rng.normal() + rng.normal() * x
    if kind == "tied":
        return np.round(rng.normal(size=m) * 0.3, 1)
    if kind == "concave":
        return -(x - rng.uniform()) ** 2
    if kind == "column":
        return rng.normal(size=(m, 3))[:, 1]
    return rng.normal(size=m) * (rng.choice([-1e12, 1e12]) if kind == "scaled" else 1.0)


def two_lp_game_value(m):
    """Reference: the row player's and the column player's LP solved
    separately, their values agreeing to 1e-9; returns the row player's."""
    nr, nc = m.shape
    rows = linprog(np.r_[np.zeros(nr), 1.0], A_ub=np.hstack([m.T, -np.ones((nc, 1))]),
                   b_ub=np.zeros(nc), A_eq=np.r_[np.ones(nr), 0.0][None], b_eq=[1.0],
                   bounds=[(0.0, None)] * nr + [(None, None)], method="highs")
    cols = linprog(np.r_[np.zeros(nc), -1.0], A_ub=np.hstack([-m, np.ones((nr, 1))]),
                   b_ub=np.zeros(nr), A_eq=np.r_[np.ones(nc), 0.0][None], b_eq=[1.0],
                   bounds=[(0.0, None)] * nc + [(None, None)], method="highs")
    assert rows.success and cols.success
    assert abs(rows.x[-1] + cols.fun) <= 1e-9
    return float(rows.x[-1])


@st.composite
def matrix_games(draw):
    """Payoff matrices of shape 1-6 x 1-6: normal, uniform, tied (few distinct
    integers), 0/1 or constant entries."""
    shape = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "uniform", "tied", "binary", "constant"]))
    if kind == "normal":
        return rng.normal(size=shape)
    if kind == "uniform":
        return rng.uniform(size=shape)
    if kind == "tied":
        return rng.integers(-2, 3, size=shape).astype(float)
    if kind == "binary":
        return rng.integers(0, 2, size=shape).astype(float)
    return np.full(shape, rng.normal())


class TestMatrixGame:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(matrix_games())
    def test_one_lp_matches_two_lp_reference(self, m):
        v, x, y = matrix_game_value(m)
        assert v == two_lp_game_value(m)
        assert np.max(x @ m) - np.min(m @ y) <= 1e-9
        for s, n in ((x, m.shape[0]), (y, m.shape[1])):
            assert s.shape == (n,) and np.all(s >= 0.0)
            assert abs(s.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("forged", [[-1.0, 0.0], [0.0, -1.0]])
    def test_forged_duals_raise(self, monkeypatch, forged):
        def forging_linprog(*args, **kwargs):
            res = linprog(*args, **kwargs)
            res.ineqlin.marginals = np.array(forged)
            return res

        monkeypatch.setattr(hamiltonian, "linprog", forging_linprog)
        with pytest.raises(RuntimeError, match="certificate gap"):
            matrix_game_value([[1.0, -1.0], [-1.0, 1.0]])

    def test_matching_pennies(self):
        v, x, y = matrix_game_value([[1.0, -1.0], [-1.0, 1.0]])
        assert abs(v) <= 1e-9
        np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-8)
        np.testing.assert_allclose(y, [0.5, 0.5], atol=1e-8)

    def test_constant_matrix(self):
        v, _, _ = matrix_game_value(np.full((3, 4), 0.7))
        assert abs(v - 0.7) <= 1e-9

    def test_identity_game_vs_bruteforce(self):
        m = np.eye(2)
        v, _, _ = matrix_game_value(m)
        assert abs(v - 0.5) <= 1e-9
        assert abs(v - brute_force_minimax_2x2(m)) <= 1e-3

    def test_random_vs_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.uniform(-1, 1, size=(2, 2))
            v, _, _ = matrix_game_value(m)
            assert abs(v - brute_force_minimax_2x2(m)) <= 2e-3

    def test_zero_sum_duality_swap(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = rng.normal(size=(rng.integers(2, 5), rng.integers(2, 5)))
            v, x, y = matrix_game_value(m)
            v2, x2, y2 = matrix_game_value(-m.T)
            assert abs(v2 + v) <= 1e-7
            # optimal strategies swap roles; values of the swapped profile agree
            assert abs(x2 @ (-m.T) @ y2 - (-v)) <= 1e-6

    def test_strategies_achieve_value(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            m = rng.normal(size=(3, 3))
            v, x, y = matrix_game_value(m)
            assert np.max(x @ m) <= v + 1e-7   # row guarantee
            assert np.min(m @ y) >= v - 1e-7   # column guarantee

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            matrix_game_value([[np.inf, 0.0], [0.0, 1.0]])

    def test_maximin_convention(self):
        # rows maximize: value of [[1,0],[0,1]] is still 1/2 by symmetry,
        # but for [[1,0]] (single row) it is min over columns
        v, _, _ = maximin_value([[1.0, 0.0]])
        assert abs(v) <= 1e-9


def counting_linprog(calls):
    """linprog that appends one entry to calls per LP solved."""
    def count(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)
    return count


def raising_linprog(*args, **kwargs):
    raise AssertionError("the LP was called")


def simplex3_tensor():
    """The 3x1-index, 3x3-action tensor whose permutations the benchmark's
    solve-simplex3 workload solves."""
    return PayoffTensor(np.random.default_rng(1).random((1, 3, 1, 3, 3)), [0.0])


ROCK_PAPER_SCISSORS = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])


class TestSmallGame:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(matrix_games())
    def test_kernel_matches_the_lp(self, m):
        kernel = small_game_value(m)
        assume(kernel is not None)
        v, x, y = kernel
        assert abs(v - matrix_game_value(m)[0]) <= 1e-9
        assert certificate_gap(m, x, y) <= hamiltonian.GAME_VALUE_TOL
        for s, n in ((x, m.shape[0]), (y, m.shape[1])):
            assert s.shape == (n,) and np.all(s >= 0.0)
            assert abs(s.sum() - 1.0) <= 1e-12

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(matrix_games())
    def test_two_actions_on_a_side_need_no_lp(self, m):
        assume(min(m.shape) <= 2)
        v_lp = -matrix_game_value(-m)[0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hamiltonian, "linprog", raising_linprog)
            v, _, _ = maximin_value(m)
        assert abs(v - v_lp) <= 1e-9

    def test_pure_saddle_is_an_entry(self):
        # rows minimize: row 0's worst case 4 meets column 2's best case 4
        m = np.array([[3.0, 1.0, 4.0], [1.5, 0.5, 9.0], [2.0, 6.0, 5.0]])
        v, x, y = small_game_value(m)
        assert v == 4.0
        assert x.tolist() == [1.0, 0.0, 0.0] and y.tolist() == [0.0, 0.0, 1.0]

    def test_rock_paper_scissors_falls_back_to_the_lp(self, monkeypatch):
        calls = []
        monkeypatch.setattr(hamiltonian, "linprog", counting_linprog(calls))
        assert small_game_value(ROCK_PAPER_SCISSORS) is None
        v, x, y = maximin_value(ROCK_PAPER_SCISSORS)
        assert len(calls) == 1
        assert abs(v) <= 1e-9
        np.testing.assert_allclose(x, np.full(3, 1 / 3), atol=1e-8)

    def test_kernel_work_bounds_the_search(self, monkeypatch):
        # matching pennies padded with columns the minimizer never plays: the
        # 2 x 127 game is searched, the 2 x 128 one exceeds KERNEL_WORK
        calls = []
        monkeypatch.setattr(hamiltonian, "linprog", counting_linprog(calls))
        for n, lps in ((127, 0), (128, 1)):
            m = np.full((2, n), 0.75)
            m[:, :2] = np.eye(2)
            v, _, _ = maximin_value(m)
            assert len(calls) == lps
            assert abs(v - 0.5) <= 1e-9

    def test_lp_count_on_a_three_simplex_tensor(self, monkeypatch):
        # 3x3 action games on the 3-simplex: the kernels leave 12 of the
        # Lipschitz probe's 45 nodes and 83 of the grid's 325 to the LP.  The
        # probe's nodes lie on the 24-grid, so its 12 games are among the 83
        # and the tensor's memo answers them
        calls = []
        monkeypatch.setattr(hamiltonian, "linprog", counting_linprog(calls))
        h = tensor_field(simplex3_tensor())
        assert len(calls) == 12
        h.on_grid(0.0, SimplexGrid.build(3, 24).nodes, np.array([[1.0]]))
        assert len(calls) == 83


class TestPayoffTensor:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PayoffTensor(np.full((1, 2, 1, 1, 1), 1.5), [0.0])

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            PayoffTensor(np.zeros((2, 2, 1, 1, 1)), [0.5, 0.2])

    def test_time_interpolation(self):
        v = np.zeros((2, 1, 1, 1, 1))
        v[1] = 1.0
        f = PayoffTensor(v, [0.0, 1.0])
        assert abs(f.at_time(0.25)[0, 0, 0, 0] - 0.25) <= 1e-15
        assert f.at_time(-1.0)[0, 0, 0, 0] == 0.0
        assert f.at_time(2.0)[0, 0, 0, 0] == 1.0

    def test_roundtrip_dict(self):
        rng = np.random.default_rng(14)
        f = PayoffTensor(rng.uniform(size=(2, 2, 2, 2, 3)), [0.0, 1.0])
        g = PayoffTensor.from_dict({"time_samples": f.time_samples.tolist(),
                                    "values": f.values.tolist()})
        np.testing.assert_array_equal(f.values, g.values)


class TestEvalH:
    def test_constant_in_ij_reduces_to_action_game(self):
        rng = np.random.default_rng(15)
        act = rng.uniform(size=(3, 4))
        vals = np.broadcast_to(act, (1, 2, 2, 3, 4)).copy()
        f = PayoffTensor(vals, [0.0])
        expect, _, _ = maximin_value(act)
        for p, q in [([1.0, 0.0], [0.3, 0.7]), ([0.5, 0.5], [1.0, 0.0])]:
            assert abs(eval_H(f, 0.0, p, q) - expect) <= 1e-9

    def test_single_actions_bilinear(self):
        rng = np.random.default_rng(16)
        vals = rng.uniform(size=(1, 2, 3, 1, 1))
        f = PayoffTensor(vals, [0.0])
        p = np.array([0.4, 0.6])
        q = np.array([0.2, 0.5, 0.3])
        expect = np.einsum("i,j,ij->", p, q, vals[0, :, :, 0, 0])
        assert abs(eval_H(f, 0.0, p, q) - expect) <= 1e-12

    def test_tent_construction(self):
        # K singleton, two L actions: H(p) = min(p_0, 1 - p_0)
        vals = np.zeros((1, 2, 1, 1, 2))
        vals[0, 0, 0, 0, :] = [1.0, 0.0]
        vals[0, 1, 0, 0, :] = [0.0, 1.0]
        f = PayoffTensor(vals, [0.0])
        for x in np.linspace(0.0, 1.0, 11):
            h = eval_H(f, 0.0, [x, 1.0 - x], [1.0])
            assert abs(h - (0.5 - abs(x - 0.5))) <= 1e-9

    def test_dimension_mismatch(self):
        f = PayoffTensor(np.zeros((1, 2, 2, 1, 1)), [0.0])
        with pytest.raises(ValueError):
            eval_H(f, 0.0, [1.0, 0.0, 0.0], [0.5, 0.5])

    def test_l1_lipschitz_in_p(self):
        rng = np.random.default_rng(17)
        f = PayoffTensor(rng.uniform(size=(1, 3, 2, 2, 2)), [0.0])
        q = np.array([0.5, 0.5])
        for _ in range(50):
            w1, w2 = rng.exponential(size=3), rng.exponential(size=3)
            p1, p2 = w1 / w1.sum(), w2 / w2.sum()
            gap = abs(eval_H(f, 0.0, p1, q) - eval_H(f, 0.0, p2, q))
            assert gap <= np.abs(p1 - p2).sum() + 1e-9


class TestGameMemo:
    GRID = SimplexGrid.build(3, 24).nodes
    Q = np.array([[1.0]])
    ENTRY = 9 * 8 + hamiltonian.MEMO_ENTRY_BYTES  # one 3x3 game's memo entry

    def test_second_grid_makes_no_lp(self, monkeypatch):
        f = simplex3_tensor()
        h = tensor_field(f)
        first = h.on_grid(0.0, self.GRID, self.Q)
        solved = [maximin_value(np.einsum("i,ikl->kl", p, f.values[0, :, 0]))[0] for p in self.GRID]
        assert first[:, 0].tobytes() == np.array(solved).tobytes()
        calls = []
        monkeypatch.setattr(hamiltonian, "linprog", counting_linprog(calls))
        again = h.on_grid(0.0, self.GRID, self.Q)
        assert calls == []
        assert again.tobytes() == first.tobytes()

    def test_equal_tensor_solves_again(self, monkeypatch):
        calls = []
        monkeypatch.setattr(hamiltonian, "linprog", counting_linprog(calls))
        first = tensor_field(simplex3_tensor()).on_grid(0.0, self.GRID, self.Q)
        assert len(calls) == 83
        again = tensor_field(simplex3_tensor()).on_grid(0.0, self.GRID, self.Q)
        assert len(calls) == 2 * 83
        assert again.tobytes() == first.tobytes()

    def test_memo_stays_under_a_small_cap(self, monkeypatch):
        monkeypatch.setattr(hamiltonian, "GAME_MEMO_BYTES", 7 * self.ENTRY + self.ENTRY // 2)
        f = simplex3_tensor()
        nodes = SimplexGrid.build(3, 6).nodes
        sizes = []
        for p in np.concatenate([nodes, nodes[::-1], nodes]):
            game = np.einsum("i,j,ijkl->kl", p, [1.0], f.values[0])
            value = eval_H(f, 0.0, p, [1.0])
            sizes.append(len(f._games))
            assert len(f._games) * self.ENTRY <= hamiltonian.GAME_MEMO_BYTES
            assert np.float64(value).tobytes() == np.float64(maximin_value(game)[0]).tobytes()
        assert max(sizes) == 7 and 0 in sizes and sizes[-1] > 0  # full, cleared, refilled
        monkeypatch.setattr(hamiltonian, "GAME_MEMO_BYTES", self.ENTRY - 1)
        f = simplex3_tensor()
        eval_H(f, 0.0, nodes[5], [1.0])
        assert f._games == {}

    def test_entry_bytes_cover_a_measured_entry(self):
        # a memo of hj_two_sided's 10,201 2x2 games fits under the cap, and
        # each entry costs what tracemalloc sees at most
        count = 10_201
        assert hamiltonian.GAME_MEMO_BYTES // (32 + hamiltonian.MEMO_ENTRY_BYTES) >= count
        games = np.random.default_rng(3).random((count, 2, 2))
        tracemalloc.start()
        try:
            memo = {}
            for g in games:
                memo[g.tobytes()] = float(g[0, 0]) + 0.5
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= count * (32 + hamiltonian.MEMO_ENTRY_BYTES)

    @pytest.mark.parametrize("cap_entries", [None, 3])
    def test_thread_pool_gives_single_thread_bytes(self, monkeypatch, cap_entries):
        # four threads on one memo, switching often; with a three-entry cap
        # their stores and clears interleave
        grid = SimplexGrid.build(3, 12).nodes
        rng = np.random.default_rng(4)
        P = np.concatenate([grid, rng.dirichlet(np.ones(3), size=40), grid[::7]])
        Q = np.ones((P.shape[0], 1))
        one = tensor_field(simplex3_tensor())
        want_grid = one.on_grid(0.0, grid, self.Q).tobytes()
        want_paths = one.on_paths(0.0, P, Q).tobytes()
        if cap_entries:
            monkeypatch.setattr(hamiltonian, "GAME_MEMO_BYTES", cap_entries * self.ENTRY)
        f = simplex3_tensor()
        h = tensor_field(f)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                grids = [pool.submit(h.on_grid, 0.0, grid, self.Q) for _ in range(4)]
                paths = [pool.submit(h.on_paths, 0.0, P, Q) for _ in range(4)]
                got_grids = [g.result(timeout=120).tobytes() for g in grids]
                got_paths = [p.result(timeout=120).tobytes() for p in paths]
        finally:
            sys.setswitchinterval(interval)
        assert got_grids == [want_grid] * 4
        assert got_paths == [want_paths] * 4
        assert len(f._games) * self.ENTRY <= hamiltonian.GAME_MEMO_BYTES


class TestLowerHull:
    def test_convex_fixed(self):
        x = np.linspace(0, 1, 21)
        y = (x - 0.3) ** 2
        np.testing.assert_allclose(lower_hull_1d(y), y, atol=1e-15)

    def test_tent_flattens_to_zero(self):
        x = np.linspace(0, 1, 201)
        y = 0.5 - np.abs(x - 0.5)
        np.testing.assert_allclose(lower_hull_1d(y), 0.0, atol=1e-15)

    def test_negative_square_chord(self):
        x = np.linspace(0, 1, 11)
        hull = lower_hull_1d(-x**2)
        # chord from (0,0) to (1,-1): value -x
        np.testing.assert_allclose(hull, -x, atol=1e-12)
        assert abs(hull[5] - (-0.5)) <= 1e-12

    def test_matches_chord_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            y = rng.normal(size=rng.integers(3, 40))
            np.testing.assert_allclose(lower_hull_1d(y), oracle_lower_hull(y), atol=1e-10)

    def test_below_input_exactly(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            y = rng.normal(size=30)
            assert np.all(lower_hull_1d(y) <= y)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(hull_samples())
    def test_bit_identical_to_reference_chain(self, y):
        with np.errstate(invalid="ignore"):  # 0 * inf in the chords of infinite samples
            assert lower_hull_1d(y).tobytes() == reference_lower_hull(y).tobytes()


def grid_fn(p_res, q_res, fn, n_p=2, n_q=2):
    pg = SimplexGrid.build(n_p, p_res)
    qg = SimplexGrid.build(n_q, q_res)
    vals = np.array([[fn(p, q) for q in qg.nodes] for p in pg.nodes])
    return pg, vals


class TestEnvelopes:
    def test_vex_fixes_convex(self):
        pg, vals = grid_fn(40, 1, lambda p, q: (p[0] - 0.3) ** 2, n_q=1)
        np.testing.assert_allclose(vex_p(vals, pg), vals, atol=1e-14)

    def test_vex_tent_is_zero(self):
        pg, vals = grid_fn(200, 1, lambda p, q: 0.5 - abs(p[0] - 0.5), n_q=1)
        np.testing.assert_allclose(vex_p(vals, pg), 0.0, atol=1e-14)

    def test_vex_below_cav_above(self):
        rng = np.random.default_rng(20)
        pg = SimplexGrid.build(2, 30)
        qg = SimplexGrid.build(2, 15)
        g = rng.normal(size=(31, 16))
        assert np.all(vex_p(g, pg) <= g)
        assert np.all(cav_q(g, qg) >= g)

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        for n, m in ((2, 25), (3, 8)):
            pg = SimplexGrid.build(n, m)
            qg = SimplexGrid.build(n, m)
            g = rng.normal(size=(pg.n_nodes, qg.n_nodes))
            v1 = vex_p(g, pg)
            np.testing.assert_allclose(vex_p(v1, pg), v1, atol=1e-10)
            c1 = cav_q(g, qg)
            np.testing.assert_allclose(cav_q(c1, qg), c1, atol=1e-10)

    def test_monotone(self):
        rng = np.random.default_rng(22)
        for n, m in ((2, 12), (3, 6)):
            pg = SimplexGrid.build(n, m)
            for _ in range(1000):
                a = rng.normal(size=(pg.n_nodes, 1))
                b = a + rng.uniform(0.0, 1.0, size=(pg.n_nodes, 1))
                va = vex_p(a, pg)
                vb = vex_p(b, pg)
                assert np.all(va <= vb + 1e-12)

    def test_cav_is_dual_of_vex(self):
        rng = np.random.default_rng(23)
        for n, m in ((2, 20), (3, 6)):
            qg = SimplexGrid.build(n, m)
            vals = rng.normal(size=(21, qg.n_nodes))
            np.testing.assert_allclose(cav_q(vals, qg), -vex_p(-vals.T, qg).T, atol=1e-14)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(three_simplex_values())
    def test_three_coord_matches_lp_oracle(self, data):
        pg, f = data
        out = vex_p(f[:, None], pg)[:, 0]
        np.testing.assert_allclose(out, oracle_lp_envelope(pg, f),
                                   rtol=0.0, atol=1e-12 * (1.0 + np.max(np.abs(f))))
        assert np.all(out <= f)

    def test_three_coord_affine_fixed(self):
        pg = SimplexGrid.build(3, 8)
        w = np.array([0.3, -0.7, 1.1])
        vals = (pg.nodes @ w)[:, None]
        np.testing.assert_allclose(vex_p(vals, pg), vals, atol=1e-9)

    def test_three_coord_spike(self):
        pg = SimplexGrid.build(3, 6)
        vals = np.zeros((pg.n_nodes, 1))
        center = int(np.flatnonzero(np.all(pg.nodes == 1 / 3, axis=1))[0])
        vals[center, 0] = -1.0
        out = vex_p(vals, pg)
        assert np.all(out <= vals + 1e-15)
        assert out[center, 0] == -1.0
        # grid-convex along every direction afterwards
        for d in pg.directions():
            tr = pg.neighbor_triples(d)
            second = out[tr[:, 1], 0] - 2 * out[tr[:, 0], 0] + out[tr[:, 2], 0]
            assert np.min(second) >= -1e-9


class TestSimplexGrid:
    def test_node_counts(self):
        assert SimplexGrid.build(1, 1).n_nodes == 1
        assert SimplexGrid.build(2, 10).n_nodes == 11
        assert SimplexGrid.build(3, 10).n_nodes == 66

    def test_interpolate_exact_on_nodes(self):
        rng = np.random.default_rng(24)
        for n in (2, 3):
            g = SimplexGrid.build(n, 7)
            vals = rng.normal(size=g.n_nodes)
            nodes, weights = g.cells(g.nodes)
            np.testing.assert_allclose(np.sum(vals[nodes] * weights, axis=1), vals,
                                       rtol=0.0, atol=1e-12)

    def test_interpolate_reproduces_affine(self):
        rng = np.random.default_rng(25)
        for n in (2, 3):
            g = SimplexGrid.build(n, 9)
            w = rng.normal(size=n)
            vals = g.nodes @ w
            raw = rng.exponential(size=(200, n))
            pts = raw / raw.sum(axis=1, keepdims=True)
            nodes, weights = g.cells(pts)
            np.testing.assert_allclose(np.sum(vals[nodes] * weights, axis=1), pts @ w,
                                       rtol=0.0, atol=1e-10)

    def test_neighbor_triples_consistent(self):
        for n in (2, 3):
            for m in (2, 5, 9):
                g = SimplexGrid.build(n, m)
                for d in g.directions():
                    tr = g.neighbor_triples(d)
                    step = np.zeros(n)
                    step[d[0]] += 1.0 / g.resolution
                    step[d[1]] -= 1.0 / g.resolution
                    np.testing.assert_allclose(g.nodes[tr[:, 1]], g.nodes[tr[:, 0]] + step,
                                               atol=1e-12)
                    np.testing.assert_allclose(g.nodes[tr[:, 2]], g.nodes[tr[:, 0]] - step,
                                               atol=1e-12)
                    # every node with both neighbours in the grid, once, centres ascending
                    inside = (np.all(g.nodes + step >= -1e-12, axis=1)
                              & np.all(g.nodes - step >= -1e-12, axis=1))
                    np.testing.assert_array_equal(tr[:, 0], np.flatnonzero(inside))

    @pytest.mark.parametrize("n, m, slope", [(2, 20, 20 / np.sqrt(2)), (3, 6, 6 / np.sqrt(2))])
    def test_max_slope_sees_edges_off_the_face(self, n, m, slope):
        # a unit jump between the face p_1 = 0 and its neighbours
        g = SimplexGrid.build(n, m)
        vals = (g.nodes[:, 0] == 0.0).astype(float)
        assert g.max_slope(vals) == pytest.approx(slope, rel=1e-12)
        assert g.max_slope(np.column_stack([0 * vals, vals]), axis=0) == pytest.approx(slope)
        assert g.max_slope(vals[None, :], axis=1) == pytest.approx(slope)

    def test_second_differences_nan_off_centres(self):
        g = SimplexGrid.build(3, 5)
        vals = g.nodes @ np.array([0.3, -0.7, 1.1])
        sd = g.second_differences(vals)
        assert sd.shape == (3, g.n_nodes)
        for k, d in enumerate(g.directions()):
            centres = g.neighbor_triples(d)[:, 0]
            np.testing.assert_allclose(sd[k, centres], 0.0, atol=1e-10)
            assert np.all(np.isnan(np.delete(sd[k], centres)))


class TestAnalyticFields:
    def test_tent_values(self):
        h = analytic_field("tent")
        assert abs(h(0.0, [0.5, 0.5]) - 0.5) <= 1e-15
        assert abs(h(0.0, [1.0, 0.0])) <= 1e-15
        assert abs(h(0.0, [0.0, 1.0])) <= 1e-15

    def test_bilinear(self):
        h = analytic_field("bilinear")
        assert abs(h(0.0, [0.3, 0.7], [0.4, 0.6]) - 0.12) <= 1e-15

    def test_bound_holds_on_grid(self):
        pg = SimplexGrid.build(2, 50)
        qg = SimplexGrid.build(2, 50)
        for name in ("tent", "quad_convex", "double_well", "bilinear", "saddle_mix"):
            h = analytic_field(name)
            qg_use = qg if h.dim_q == 2 else SimplexGrid.build(1, 1)
            vals = h.on_grid(0.0, pg.nodes, qg_use.nodes)
            assert np.max(np.abs(vals)) <= h.bound + 1e-12

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            analytic_field("nope")
        with pytest.raises(ValueError, match="'centre'"):
            analytic_field("tent", centre=0.3)

    @pytest.mark.parametrize("dims", [{"dim_p": 1.5}, {"dim_q": 0}, {"dim_p": True}])
    def test_dimensions_are_positive_integers(self, dims):
        with pytest.raises(ValueError, match="positive integers"):
            analytic_field("zero", **dims)
        assert analytic_field("constant", dim_p=np.int64(3), dim_q=2).dim_p == 3

    @pytest.mark.parametrize("name, params", [
        ("zero", {}), ("constant", {"level": 0.3}), ("tent", {"center": 0.3}),
        ("quad_convex", {}), ("double_well", {}), ("bilinear", {}),
        ("saddle_mix", {"scale": 0.3}), ("saddle_mix", {}),
        ("tensor_two_sided", {}), ("tensor_time_dependent", {}),
    ], ids=lambda v: v if isinstance(v, str) else ",".join(map(str, v.values())) or "defaults")
    def test_on_paths_is_grid_diagonal(self, name, params):
        rng = np.random.default_rng(27)
        if name == "tensor_two_sided":
            h = tensor_field(PayoffTensor(rng.uniform(size=(1, 3, 2, 2, 3)), [0.0]))
        elif name == "tensor_time_dependent":
            h = tensor_field(PayoffTensor(rng.uniform(size=(3, 2, 2, 3, 2)), [0.0, 0.5, 1.0]))
            assert h.time_dependent
        else:
            h = analytic_field(name, **params)
        P = rng.dirichlet(np.ones(h.dim_p), size=6)
        Q = rng.dirichlet(np.ones(h.dim_q), size=6)
        for t in (0.0, 0.3, 0.8):
            on_paths = h.on_paths(t, P, Q)
            assert on_paths.shape == (6,)
            assert on_paths.tobytes() == np.diagonal(h.on_grid(t, P, Q)).tobytes()
            assert [h(t, p, q) for p, q in zip(P, Q)] == on_paths.tolist()

    def test_tensor_field_matches_eval(self):
        rng = np.random.default_rng(26)
        f = PayoffTensor(rng.uniform(size=(2, 2, 2, 2, 2)), [0.0, 1.0])
        h = tensor_field(f)
        p, q = np.array([0.25, 0.75]), np.array([0.6, 0.4])
        assert abs(h(0.3, p, q) - eval_H(f, 0.3, p, q)) <= 1e-12
        assert h.bound <= 1.0 + 1e-12
