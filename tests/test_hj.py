import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from splitgame import hamiltonian, hj
from splitgame.hamiltonian import (
    HamiltonianField,
    PayoffTensor,
    SimplexGrid,
    analytic_field,
    cav_q,
    tensor_field,
    vex_p,
)
from splitgame.hj import (
    BRANCH_CONVEX,
    BRANCH_TIME,
    ValueGrid,
    _curvature,
    _interior_nodes,
    export_csv,
    naive_hji_residual,
    order_gap,
    regularity_report,
    residuals,
    solve,
    summary_dict,
    write_atomic,
)
from splitgame.simplex import rel_eigen_max, rel_eigen_min, tangent_basis
from test_hamiltonian import oracle_lp_envelope

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
TWO_SIDED = CONFIGS / "payoff_two_sided.json"


def two_sided_tensor():
    """The shipped 2x2-index, 2x2-action payoff tensor."""
    return PayoffTensor.from_dict(json.loads(TWO_SIDED.read_text()))


def one_sided_grids(res=200):
    return SimplexGrid.build(2, res), SimplexGrid.build(1, 1)


class TestSolve:
    def test_zero_H_gives_zero(self):
        pg, qg = one_sided_grids(20)
        v = solve(analytic_field("zero"), pg, qg, 1.0, 16)
        np.testing.assert_array_equal(v.values, 0.0)

    def test_tent_value_vanishes_at_center(self):
        pg, qg = one_sided_grids(200)
        v = solve(analytic_field("tent"), pg, qg, 1.0, 128)
        assert abs(v.values[0, 100, 0]) <= 1e-2

    def test_convex_H_closed_form(self):
        pg, qg = one_sided_grids(200)
        h = analytic_field("quad_convex")
        v = solve(h, pg, qg, 1.0, 128)
        hvals = h.on_grid(0.0, pg.nodes, qg.nodes)
        for k, t in enumerate(v.times):
            np.testing.assert_allclose(v.values[k], (1.0 - t) * hvals, atol=2e-2)

    def test_mixed_H_matches_envelope_family(self):
        pg, qg = one_sided_grids(200)
        h = analytic_field("double_well")
        v = solve(h, pg, qg, 1.0, 128)
        env = vex_p(h.on_grid(0.0, pg.nodes, qg.nodes), pg)
        gap = max(np.max(np.abs(v.values[k] - (1.0 - t) * env))
                  for k, t in enumerate(v.times))
        assert gap <= 2e-2

    def test_bilinear_closed_form(self):
        pg = SimplexGrid.build(2, 40)
        qg = SimplexGrid.build(2, 40)
        v = solve(analytic_field("bilinear"), pg, qg, 1.0, 32)
        for k, t in enumerate(v.times):
            expect = (1.0 - t) * np.outer(pg.nodes[:, 0], qg.nodes[:, 0])
            np.testing.assert_allclose(v.values[k], expect, atol=1e-12)

    @pytest.mark.parametrize("column", [0, 1])
    def test_tensor_constant_in_q_gives_scaled_envelope(self, column):
        # the shipped two-sided tensor with G^{ij} = G^{i,column} for every j:
        # H does not depend on q, so Cav_q does nothing and V(0) = T * Vex_p H
        # (acceptance check 2's identity)
        g = two_sided_tensor().values[:, :, column:column + 1]
        h = tensor_field(PayoffTensor(np.broadcast_to(g, (1, 2, 2, 2, 2)), [0.0]))
        pg = qg = SimplexGrid.build(2, 20)
        hvals = h.on_grid(0.0, pg.nodes, qg.nodes)
        env = vex_p(hvals, pg)
        assert np.min(env - hvals) < -0.04  # the envelope binds
        v = solve(h, pg, qg, 2.0, 32)
        np.testing.assert_allclose(v.values[0], 2.0 * env, rtol=0.0, atol=1e-12)

    def test_shipped_two_sided_tensor_binds_both_constraints(self):
        h = tensor_field(two_sided_tensor())
        pg = qg = SimplexGrid.build(2, 40)
        hvals = h.on_grid(0.0, pg.nodes, qg.nodes)
        assert np.max(hvals - vex_p(hvals, pg)) > 0.05
        assert np.max(cav_q(hvals, qg) - hvals) > 0.1
        v = solve(h, pg, qg, 1.0, 64)
        assert np.max(np.abs(v.values[0] - hvals)) > 0.1

    def test_terminal_condition_and_bound(self):
        pg, qg = one_sided_grids(30)
        h = analytic_field("tent")
        v = solve(h, pg, qg, 1.0, 32)
        np.testing.assert_array_equal(v.values[-1], 0.0)
        for k, t in enumerate(v.times):
            assert np.max(np.abs(v.values[k])) <= h.bound * (1.0 - t) + 1e-12

    def test_monotone_in_H(self):
        pg, qg = one_sided_grids(50)
        lo = solve(analytic_field("tent"), pg, qg, 1.0, 32)
        hi = solve(analytic_field("constant", level=0.6), pg, qg, 1.0, 32)
        assert np.all(lo.values <= hi.values + 1e-12)

    def test_rejects_coarse_time_step(self):
        pg, qg = one_sided_grids(30)
        with pytest.raises(ValueError):
            solve(analytic_field("tent"), pg, qg, 1.0, 8)

    def test_rejects_coarse_grid(self):
        pg, qg = SimplexGrid.build(2, 5), SimplexGrid.build(1, 1)
        with pytest.raises(ValueError):
            solve(analytic_field("tent"), pg, qg, 1.0, 32)

    def test_time_dependent_cost_left_quadrature(self):
        from splitgame.hamiltonian import HamiltonianField

        # H(t, p) = t, constant in p: the scheme sums dt * t_k over k >= current
        h = HamiltonianField("ramp", lambda t, P, Q: np.full(hamiltonian._points(P, Q), t),
                             2, 1, 1.0, 1.0, time_dependent=True)
        pg, qg = one_sided_grids(20)
        n = 16
        v = solve(h, pg, qg, 1.0, n)
        dt = 1.0 / n
        for k in range(n + 1):
            expect = sum(dt * (j * dt) for j in range(k, n))
            np.testing.assert_allclose(v.values[k], expect, atol=1e-12)

    def test_refinement_weakly_improves_center_value(self):
        qg = SimplexGrid.build(1, 1)
        vals = []
        for res in (100, 200):
            pg = SimplexGrid.build(2, res)
            v = solve(analytic_field("tent"), pg, qg, 1.0, 64)
            vals.append(abs(v.values[0, res // 2, 0]))
        assert vals[1] <= vals[0] + 1e-15

    @pytest.mark.parametrize("order", ["vex_cav", "cav_vex"])
    def test_one_hull_call_per_slice(self, monkeypatch, order):
        pg, qg = SimplexGrid.build(2, 10), SimplexGrid.build(2, 12)
        calls = []
        hull = hamiltonian.lower_hull_1d

        def counting(y):
            calls.append(y.size)
            return hull(y)

        monkeypatch.setattr(hamiltonian, "lower_hull_1d", counting)
        solve(analytic_field("bilinear"), pg, qg, 1.0, 16, order)
        assert len(calls) == 16 * (pg.n_nodes + qg.n_nodes)
        assert calls.count(pg.n_nodes) == 16 * qg.n_nodes


class TestOrderGap:
    def test_bilinear_orders_agree(self):
        pg = SimplexGrid.build(2, 30)
        qg = SimplexGrid.build(2, 30)
        _, _, gap = order_gap(analytic_field("bilinear"), pg, qg, 1.0, 16)
        assert gap <= 1e-12

    def test_gap_strictly_decreasing_on_saddle(self):
        # the literal bilinear cost is affine in each slot and its gap is
        # identically zero, so the decay is probed on a genuinely
        # order-sensitive mixed cost
        pg = SimplexGrid.build(2, 40)
        qg = SimplexGrid.build(2, 40)
        gaps = [order_gap(analytic_field("saddle_mix"), pg, qg, 1.0, n)[2]
                for n in (16, 32, 64)]
        assert gaps[0] > gaps[1] > gaps[2]


class TestResiduals:
    def test_zero_H_residual_zero_time_branch(self):
        pg, qg = one_sided_grids(20)
        v = solve(analytic_field("zero"), pg, qg, 1.0, 16)
        rep = residuals(v, analytic_field("zero"))
        assert rep.max_residual <= 1e-12
        assert np.all(rep.binding == BRANCH_TIME)

    def test_tent_center_convexity_binds(self):
        pg, qg = one_sided_grids(100)
        h = analytic_field("tent")
        v = solve(h, pg, qg, 1.0, 64)
        rep = residuals(v, h)
        assert rep.binding[0, rep.p_nodes == 50, rep.q_nodes == 0] == BRANCH_CONVEX
        assert rep.max_residual <= 5 * (v.dt + pg.step_length())

    def test_convex_H_time_branch_binds(self):
        pg, qg = one_sided_grids(100)
        h = analytic_field("quad_convex")
        v = solve(h, pg, qg, 1.0, 64)
        rep = residuals(v, h)
        # strict convexity keeps the constraint slack on the interior
        interior = rep.binding[: -1, 1:-1, :]
        assert np.all(interior == BRANCH_TIME)
        assert rep.max_residual <= 5 * (v.dt + pg.step_length())


class TestNaiveResidual:
    def test_tent_classical_equation_fails(self):
        pg, qg = one_sided_grids(200)
        h = analytic_field("tent")
        v = solve(h, pg, qg, 1.0, 128)
        r = naive_hji_residual(v, h, 0, 100)
        assert abs(r - (-0.5)) <= 1e-3

    def test_zero_H(self):
        pg, qg = one_sided_grids(20)
        v = solve(analytic_field("zero"), pg, qg, 1.0, 16)
        assert naive_hji_residual(v, analytic_field("zero"), 0, 10) == 0.0

    def test_scaled_tent_returns_minus_level(self):
        # envelope is still zero, H at the peak equals the level c
        c = 0.3
        pg, qg = one_sided_grids(100)

        base = analytic_field("tent")
        h = analytic_field("tent")
        scaled = type(h)(name="tent_scaled",
                         fn=lambda t, P, Q: (c / 0.5) * base.fn(t, P, Q),
                         dim_p=2, dim_q=1, bound=c, lipschitz=2 * c)
        v = solve(scaled, pg, qg, 1.0, 64)
        r = naive_hji_residual(v, scaled, 0, 50)
        assert abs(r - (-c)) <= 1e-3

    def test_rejects_non_flat_node(self):
        pg, qg = one_sided_grids(50)
        h = analytic_field("quad_convex")
        v = solve(h, pg, qg, 1.0, 32)
        with pytest.raises(ValueError):
            naive_hji_residual(v, h, 0, 25)

    def test_rejects_two_sided(self):
        pg = SimplexGrid.build(2, 20)
        qg = SimplexGrid.build(2, 20)
        v = solve(analytic_field("bilinear"), pg, qg, 1.0, 16)
        with pytest.raises(ValueError):
            naive_hji_residual(v, analytic_field("bilinear"), 0, 10)


class TestRegularity:
    def test_zero_H_all_pass(self):
        pg, qg = one_sided_grids(20)
        v = solve(analytic_field("zero"), pg, qg, 1.0, 16)
        rep = regularity_report(v)
        assert rep.all_ok
        assert rep.time_lip == 0.0

    def test_tent_convexity_in_p(self):
        pg, qg = one_sided_grids(200)
        v = solve(analytic_field("tent"), pg, qg, 1.0, 128)
        rep = regularity_report(v)
        assert rep.min_p_second >= -1e-8
        assert rep.time_ok

    def test_bilinear_shape_both_slots(self):
        pg = SimplexGrid.build(2, 40)
        qg = SimplexGrid.build(2, 40)
        v = solve(analytic_field("bilinear"), pg, qg, 1.0, 32)
        rep = regularity_report(v)
        assert rep.convex_ok and rep.concave_ok
        assert rep.time_lip <= rep.time_lip_bound + 1e-3
        assert rep.lip_ok

    def test_time_lipschitz_within_8C_dt(self):
        pg, qg = one_sided_grids(100)
        for name in ("tent", "quad_convex", "double_well"):
            h = analytic_field(name)
            v = solve(h, pg, qg, 1.0, 64)
            rep = regularity_report(v)
            assert rep.time_lip <= 8.0 * h.bound * v.dt + 1e-3

    @pytest.mark.parametrize("block_slices", [1, 2, 3, 1000])
    def test_shape_extremes_by_blocks_match_one_pass(self, monkeypatch, block_slices):
        # 7 time slices, so the last block is short for 2 and 3; the last
        # slice holds both extremes, a spike in p and a dip in q
        pg, qg = SimplexGrid.build(3, 6), SimplexGrid.build(2, 5)
        vals = np.random.default_rng(8).normal(size=(7, pg.n_nodes, qg.n_nodes))
        vals[-1, _interior_nodes(pg)[0], :] += 100.0
        vals[-1, :, 2] -= 100.0
        monkeypatch.setattr(hj, "SLICE_BLOCK_BYTES", block_slices * vals[0].nbytes)
        for grid, axis, reduce, initial in ((pg, 1, np.fmin, np.inf), (qg, 2, np.fmax, -np.inf)):
            one_pass = reduce.reduce(grid.second_differences(np.moveaxis(vals, axis, 0)),
                                     axis=None, initial=initial)
            assert hj._second_extreme(vals, grid, axis, reduce, initial) == one_pass

    @pytest.mark.parametrize("n, m, slope", [(2, 20, 20 / np.sqrt(2)), (3, 6, 6 / np.sqrt(2))])
    def test_lipschitz_sees_edges_off_the_face(self, n, m, slope):
        # a unit jump between the face p_1 = 0 and its neighbours
        pg, qg = SimplexGrid.build(n, m), SimplexGrid.build(1, 1)
        jump = (pg.nodes[:, 0] == 0.0).astype(float)[None, :, None]
        v = ValueGrid(np.array([0.0, 1.0]), pg, qg, np.repeat(jump, 2, axis=0), "vex_cav", 1.0)
        rep = regularity_report(v)
        assert rep.lip_p == pytest.approx(slope, rel=1e-12)
        assert rep.lip_q == 0.0


class TestThreeCoordinate:
    def quad3(self):
        from splitgame.hamiltonian import HamiltonianField

        c = np.array([0.4, 0.35, 0.25])

        def fn(t, P, Q):
            return np.sum((P - c) ** 2, axis=-1) * np.ones(Q.shape[:-1])

        return HamiltonianField("quad3", fn, 3, 1, float(np.max(np.sum((np.eye(3) - c) ** 2, 1))), 2.0)

    def test_convex_quadratic_closed_form(self):
        h = self.quad3()
        pg = SimplexGrid.build(3, 12)
        qg = SimplexGrid.build(1, 1)
        v = solve(h, pg, qg, 1.0, 16)
        hvals = h.on_grid(0.0, pg.nodes, qg.nodes)
        for k, t in enumerate(v.times):
            np.testing.assert_allclose(v.values[k], (1.0 - t) * hvals, atol=1e-9)

    def test_residuals_time_branch_binds(self):
        h = self.quad3()
        pg = SimplexGrid.build(3, 12)
        qg = SimplexGrid.build(1, 1)
        v = solve(h, pg, qg, 1.0, 16)
        rep = residuals(v, h)
        assert np.all(rep.binding[:-1] == BRANCH_TIME)
        assert rep.max_residual <= 5 * (v.dt + pg.step_length())

    def test_regularity_on_barycentric_grid(self):
        h = self.quad3()
        pg = SimplexGrid.build(3, 12)
        qg = SimplexGrid.build(1, 1)
        v = solve(h, pg, qg, 1.0, 16)
        rep = regularity_report(v)
        assert rep.convex_ok and rep.time_ok

    def test_concave_cost_solve_is_convex(self):
        # Vex of -|p|^2 on the 3-simplex is the affine interpolant of its
        # vertex values, the constant -1
        h = HamiltonianField("negsq", lambda t, P, Q: -np.sum(P ** 2, axis=-1)
                             * np.ones(Q.shape[:-1]), 3, 1, 1.0, 2.0)
        v = solve(h, SimplexGrid.build(3, 12), SimplexGrid.build(1, 1), 1.0, 16)
        expect = np.repeat((v.times - 1.0)[:, None], v.p_grid.n_nodes, axis=1)
        np.testing.assert_allclose(v.values[:, :, 0], expect, atol=1e-12)
        assert regularity_report(v).convex_ok

    def test_curvature_exact_on_quadratics(self):
        g = SimplexGrid.build(3, 8)
        nodes = _interior_nodes(g)
        rng = np.random.default_rng(31)
        a = rng.normal(size=(3, 3))
        a = a + a.T
        b = rng.normal(size=(3, 3))
        b = b + b.T
        quad_a = np.einsum("ni,ij,nj->n", g.nodes, a, g.nodes)
        quad_b = -np.einsum("ni,ij,nj->n", g.nodes, b, g.nodes)
        # the second column of each slice carries the other quadratic
        lo = _curvature(np.column_stack([quad_a, -quad_b]), g, nodes, want_max=False)
        hi = _curvature(np.column_stack([quad_b, -quad_a]), g, nodes, want_max=True)
        assert lo.shape == hi.shape == (nodes.size, 2)
        for i, node in enumerate(nodes):
            p = g.nodes[node]
            assert abs(lo[i, 0] - rel_eigen_min(p, 2 * a)) <= 1e-9
            assert abs(lo[i, 1] - rel_eigen_min(p, 2 * b)) <= 1e-9
            assert abs(hi[i, 0] - rel_eigen_max(p, -2 * b)) <= 1e-9
            assert abs(hi[i, 1] - rel_eigen_max(p, -2 * a)) <= 1e-9

    def test_residuals_three_coordinates_both_slots(self):
        pg, qg = SimplexGrid.build(3, 6), SimplexGrid.build(3, 6)
        zero = HamiltonianField("zero3", lambda t, P, Q: np.zeros(hamiltonian._points(P, Q)),
                                3, 3, 0.0, 0.0)
        rng = np.random.default_rng(32)
        vals = rng.normal(size=(3, pg.n_nodes, qg.n_nodes))
        v = ValueGrid(np.array([0.0, 0.5, 1.0]), pg, qg, vals, "vex_cav", 1.0)
        rep = residuals(v, zero)
        shape = (2, _interior_nodes(pg).size, _interior_nodes(qg).size)
        assert shape == (2, 10, 10)
        assert rep.binding.shape == shape and rep.residual.shape == shape
        assert np.all(np.isfinite(rep.residual))


def curvature_per_node(values, grid, nodes, want_max):
    """The 3-simplex curvature as one eigenvalue call per node and column: the
    reference the stacked call in _curvature must match bit for bit."""
    shape = (nodes.size, *values.shape[1:])
    second = grid.second_differences(values)[:, nodes]
    b = np.column_stack(tangent_basis(range(grid.n), grid.n))
    rows = []
    for d in grid.directions():
        u = np.zeros(grid.n)
        u[list(d)] = 1.0, -1.0
        c = b.T @ (u / np.linalg.norm(u))
        rows.append([c[0] ** 2, 2.0 * c[0] * c[1], c[1] ** 2])
    fits = np.linalg.lstsq(np.asarray(rows), second.reshape(len(rows), -1), rcond=None)[0]
    rel_eigen = rel_eigen_max if want_max else rel_eigen_min
    out = np.empty(fits.shape[1])
    per_node = int(np.prod(shape[1:]))
    for i, (a11, a12, a22) in enumerate(fits.T):
        full = b @ np.array([[a11, a12], [a12, a22]]) @ b.T
        out[i] = rel_eigen(grid.nodes[nodes[i // per_node]], 0.5 * (full + full.T))
    return out.reshape(shape)


def curvature_two_by_two(values, grid, nodes, want_max):
    """The 3-simplex curvature as _curvature assembled it before its fit took
    any number of coordinates: three hand-written rows and a 2x2 stack."""
    shape = (nodes.size, *values.shape[1:])
    second = grid.second_differences(values)[:, nodes]
    b = np.column_stack(tangent_basis(range(grid.n), grid.n))
    rows = []
    for d in grid.directions():
        u = np.zeros(grid.n)
        u[list(d)] = 1.0, -1.0
        c = b.T @ (u / np.linalg.norm(u))
        rows.append([c[0] ** 2, 2.0 * c[0] * c[1], c[1] ** 2])
    a11, a12, a22 = np.linalg.lstsq(np.asarray(rows), second.reshape(len(rows), -1),
                                    rcond=None)[0]
    full = b @ np.stack([a11, a12, a12, a22], axis=-1).reshape(-1, 2, 2) @ b.T
    full = 0.5 * (full + np.swapaxes(full, -1, -2))
    rel_eigen = rel_eigen_max if want_max else rel_eigen_min
    return rel_eigen(grid.nodes[nodes[0]], full).reshape(shape)


class TestBatchedCurvature:
    @pytest.mark.parametrize("want_max", [False, True])
    @pytest.mark.parametrize("tail", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("m", [6, 24, 48])
    def test_matches_two_by_two_assembly_bitwise(self, m, tail, want_max):
        g = SimplexGrid.build(3, m)
        nodes = _interior_nodes(g)
        values = np.random.default_rng(m + 1).normal(size=(g.n_nodes, *tail))
        got = _curvature(values, g, nodes, want_max)
        assert got.tobytes() == curvature_two_by_two(values, g, nodes, want_max).tobytes()

    @pytest.mark.parametrize("want_max", [False, True])
    @pytest.mark.parametrize("tail", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("m", [11, 24, 40])
    def test_matches_per_node_loop_bitwise(self, m, tail, want_max):
        g = SimplexGrid.build(3, m)
        nodes = _interior_nodes(g)
        values = np.random.default_rng(m).normal(size=(g.n_nodes, *tail))
        got = _curvature(values, g, nodes, want_max)
        assert got.shape == (nodes.size, *tail)
        assert np.array_equal(got, curvature_per_node(values, g, nodes, want_max))

    def test_one_eigen_call_per_curvature_call(self, monkeypatch):
        pg, qg = SimplexGrid.build(3, 6), SimplexGrid.build(3, 8)
        curvature_calls, eigen_calls = [], []

        def counting(name, fn, calls):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(hj, name, wrapped)

        counting("_curvature", hj._curvature, curvature_calls)
        counting("rel_eigen_min", hj.rel_eigen_min, eigen_calls)
        counting("rel_eigen_max", hj.rel_eigen_max, eigen_calls)
        vals = np.random.default_rng(33).normal(size=(5, pg.n_nodes, qg.n_nodes))
        v = ValueGrid(np.linspace(0.0, 1.0, 5), pg, qg, vals, "vex_cav", 1.0)
        residuals(v, analytic_field("zero", dim_p=3, dim_q=3))
        assert len(curvature_calls) == 2 * 4
        assert eigen_calls.count("rel_eigen_min") == eigen_calls.count("rel_eigen_max") == 4

    def test_mixed_supports_rejected(self):
        g = SimplexGrid.build(3, 6)
        face = np.flatnonzero(g.nodes[:, 2] == 0.0)
        nodes = np.concatenate([_interior_nodes(g)[:2], face[1:2]])
        with pytest.raises(ValueError, match="share one support"):
            _curvature(np.zeros(g.n_nodes), g, nodes, want_max=False)

    @pytest.mark.parametrize("tail", [(), (4,)])
    def test_empty_node_set(self, tail):
        g = SimplexGrid.build(3, 6)
        out = _curvature(np.zeros((g.n_nodes, *tail)), g, np.array([], dtype=int), True)
        assert out.shape == (0, *tail)


class TestFourCoordinate:
    """The shipped one-sided tensor of four types and 3x3 actions."""

    @pytest.fixture(scope="class")
    def solved(self):
        tensor = PayoffTensor.from_dict(json.loads((CONFIGS / "payoff_simplex4.json").read_text()))
        h = tensor_field(tensor)
        v = solve(h, SimplexGrid.build(4, 12), SimplexGrid.build(1, 1), 1.0, 16)
        return h, v

    def test_closed_form_identity(self, solved):
        # check 2's identity: a one-sided cost's value is (T - t) Vex H
        h, v = solved
        env = vex_p(h.on_grid(0.0, v.p_grid.nodes, v.q_grid.nodes), v.p_grid)
        for k, t in enumerate(v.times):
            np.testing.assert_allclose(v.values[k], (1.0 - t) * env, rtol=0.0, atol=1e-12)
        assert regularity_report(v).all_ok

    def test_value_matches_lp_oracle(self, solved):
        h, v = solved
        hv = h.on_grid(0.0, v.p_grid.nodes, v.q_grid.nodes)[:, 0]
        np.testing.assert_allclose(v.values[0, :, 0], oracle_lp_envelope(v.p_grid, hv),
                                   rtol=0.0, atol=1e-12)

    def test_curvature_exact_on_quadratics(self):
        # six edge second differences fix the six entries of the reduced Hessian
        g = SimplexGrid.build(4, 8)
        nodes = _interior_nodes(g)
        a = np.random.default_rng(34).normal(size=(4, 4))
        a = a + a.T
        quad = np.einsum("ni,ij,nj->n", g.nodes, a, g.nodes)
        lo = _curvature(quad, g, nodes, want_max=False)
        hi = _curvature(quad, g, nodes, want_max=True)
        p = g.nodes[nodes[0]]
        np.testing.assert_allclose(lo, rel_eigen_min(p, 2 * a), rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(hi, rel_eigen_max(p, 2 * a), rtol=0.0, atol=1e-9)


class TestValueGridLookup:
    def test_value_at_matches_nodes(self):
        pg, qg = one_sided_grids(50)
        h = analytic_field("quad_convex")
        v = solve(h, pg, qg, 1.0, 32)
        assert abs(v.value_at(0.0, pg.nodes[25]) - v.values[0, 25, 0]) <= 1e-14

    def test_values_at_states_bilinear_grid(self):
        pg = SimplexGrid.build(2, 30)
        qg = SimplexGrid.build(2, 30)
        v = solve(analytic_field("bilinear"), pg, qg, 1.0, 16)
        rng = np.random.default_rng(0)
        P = np.column_stack([rng.random(50), np.zeros(50)])
        P[:, 1] = 1.0 - P[:, 0]
        Q = np.column_stack([rng.random(50), np.zeros(50)])
        Q[:, 1] = 1.0 - Q[:, 0]
        batch = v.values_at_states(0.0, P, Q)
        single = np.array([v.value_at(0.0, P[i], Q[i]) for i in range(50)])
        np.testing.assert_allclose(batch, single, atol=1e-12)

    @pytest.mark.parametrize("n_p, n_q", [(2, 2), (3, 1), (3, 3), (2, 3)])
    def test_values_at_states_reproduce_biaffine(self, n_p, n_q):
        pg = SimplexGrid.build(n_p, 7 if n_p == 3 else 10)
        qg = SimplexGrid.build(n_q, 7 if n_q == 3 else 10)
        rng = np.random.default_rng(5)
        a = rng.normal(size=(n_p, n_q))
        vals = np.einsum("ai,ij,bj->ab", pg.nodes, a, qg.nodes)
        v = ValueGrid(np.array([0.0, 1.0]), pg, qg, np.stack([vals, vals]), "vex_cav", 1.0)
        P = rng.dirichlet(np.ones(n_p), size=200)
        Q = rng.dirichlet(np.ones(n_q), size=200)
        batch = v.values_at_states(0.0, P, Q)
        np.testing.assert_allclose(batch, np.einsum("bi,ij,bj->b", P, a, Q), rtol=0, atol=1e-12)
        single = [v.value_at(0.0, P[i], Q[i] if n_q > 1 else None) for i in range(200)]
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12)

    def test_slice_at_a_grid_time_is_the_slice(self):
        """k/10 and k·0.1 on a dt = 0.1 grid are slice k, bit for bit, where
        t / dt rounds above k (k·0.1 at k = 3, 6) and below it (k/10 at
        k = 3, 6, 7)."""
        pg, qg = one_sided_grids(10)
        vals = np.random.default_rng(3).normal(size=(11, pg.n_nodes, qg.n_nodes))
        v = ValueGrid(0.1 * np.arange(11), pg, qg, vals, "vex_cav", 1.0)
        for k in range(11):
            for t in (k / 10, k * 0.1):
                assert v.slice_at(t).tobytes() == vals[k].tobytes()


class TestExport:
    def test_csv_and_summary(self, tmp_path):
        pg, qg = one_sided_grids(12)
        h = analytic_field("tent")
        v = solve(h, pg, qg, 1.0, 16)
        out = tmp_path / "values.csv"
        export_csv(v, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,p_1,p_2,q_1,V"
        assert len(lines) == 1 + 17 * 13
        s = summary_dict(v, h)
        assert s["regularity"]["all_ok"]
        assert "max_interior_residual" in s

    @pytest.mark.parametrize("n_p, n_q", [(2, 1), (2, 2), (3, 1), (3, 3)])
    def test_csv_bytes_match_row_writer(self, tmp_path, n_p, n_q):
        pg = SimplexGrid.build(n_p, 5 if n_p == 3 else 7)
        qg = SimplexGrid.build(n_q, 4 if n_q == 3 else 6)
        rng = np.random.default_rng(11)
        scale = np.array([1.0, 1e-300, 1e12, 1.0])[:, None, None]
        vals = rng.normal(size=(4, pg.n_nodes, qg.n_nodes)) * scale
        vals[1, 0, 0], vals[2, -1, -1] = -0.0, 0.0
        v = ValueGrid(np.linspace(0.0, 1.0, 4), pg, qg, vals, "vex_cav", 1.0)
        out = tmp_path / "values.csv"
        export_csv(v, out)
        assert out.read_bytes() == reference_csv(v).encode()
        assert [p.name for p in tmp_path.iterdir()] == ["values.csv"]
        parsed = [float(line.rsplit(",", 1)[1]) for line in out.read_text().splitlines()[1:]]
        assert np.array(parsed).tobytes() == vals.tobytes()

    def test_failed_write_keeps_old_file(self, tmp_path):
        out = tmp_path / "values.csv"
        out.write_text("old\n")

        def chunks():
            yield "new,"
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError):
            write_atomic(out, ["header\n"], chunks())
        assert out.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["values.csv"]

    def test_dead_writers_tmp_removed_by_next_write(self, tmp_path):
        """A writer process that dies inside its parts generator leaves its
        .tmp behind; the next write of the path removes it, since the pid in
        its name no longer runs."""
        out = tmp_path / "report.json"
        script = ("import os, sys\n"
                  "from splitgame.hj import write_atomic\n"
                  "def parts():\n"
                  "    yield 'partial'\n"
                  "    os._exit(7)\n"
                  "write_atomic(sys.argv[1], parts())\n")
        src = str(Path(hj.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        writer = subprocess.Popen([sys.executable, "-c", script, str(out)], env=env)
        assert writer.wait(60) == 7
        [stale] = tmp_path.iterdir()
        assert stale.name.startswith(f"report.json.{writer.pid}.") and stale.suffix == ".tmp"
        write_atomic(out, ["whole\n"])
        assert out.read_text() == "whole\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_concurrent_writers_of_one_path(self, tmp_path):
        """Writer A stops mid-write while writer B writes the same path and
        renames it into place; then A finishes.  Both writes succeed, the file
        holds A's whole bytes, no .tmp is left, and the file's mode is what
        open() gives under the umask."""
        out = tmp_path / "report.json"
        paused, resume, errors = threading.Event(), threading.Event(), []

        def parts():
            yield "a" * 1000
            paused.set()
            resume.wait(10)
            yield "A\n"

        def writer_a():
            try:
                write_atomic(out, parts())
            except Exception as exc:
                errors.append(exc)

        a = threading.Thread(target=writer_a)
        a.start()
        assert paused.wait(10)
        write_atomic(out, ["b" * 500 + "B\n"])
        assert out.read_text() == "b" * 500 + "B\n"
        resume.set()
        a.join(10)
        assert not a.is_alive() and errors == []
        assert out.read_text() == "a" * 1000 + "A\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        plain = tmp_path / "plain"
        plain.write_text("")
        assert out.stat().st_mode == plain.stat().st_mode


def reference_csv(v: ValueGrid) -> str:
    """Row-by-row writer: the bytes export_csv must produce."""
    nI, nJ = v.p_grid.nodes.shape[1], v.q_grid.nodes.shape[1]
    cols = ["t"] + [f"p_{i+1}" for i in range(nI)] + [f"q_{j+1}" for j in range(nJ)] + ["V"]
    lines = [",".join(cols)]
    for k, t in enumerate(v.times):
        for a, pn in enumerate(v.p_grid.nodes):
            for b, qn in enumerate(v.q_grid.nodes):
                row = [f"{t:.17g}"] + [f"{x:.17g}" for x in pn] + [f"{x:.17g}" for x in qn]
                lines.append(",".join(row + [f"{v.values[k, a, b]:.17g}"]))
    return "\n".join(lines) + "\n"
