import itertools

import numpy as np
import pytest

from bpsurv import frailty as fr


def grid_coords(m, seed=0, extent=10.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, extent, size=(m, 2))


class TestCorrelation:
    def test_same_point(self):
        assert fr.powexp_corr([1.0, 2.0], [1.0, 2.0], phi=0.5) == 1.0

    def test_unit_scaled_distance(self):
        # phi * d = 1, nu = 1 -> exp(-1)
        assert fr.powexp_corr([0.0, 0.0], [2.0, 0.0], phi=0.5, nu=1.0) == pytest.approx(
            np.exp(-1.0), rel=1e-14)

    def test_decreasing_in_distance(self):
        d = np.linspace(0, 10, 50)
        r = fr.corr_from_distance(d, phi=0.7, nu=1.5)
        assert np.all(np.diff(r) < 0)

    def test_solve_phi0(self):
        phi0 = fr.solve_phi0(10.0, nu=1.0)
        assert phi0 == pytest.approx(0.6908, abs=2e-4)
        assert fr.corr_from_distance(10.0, phi0, 1.0) == pytest.approx(0.001, rel=1e-12)
        phi0b = fr.solve_phi0(4.0, nu=1.5)
        assert fr.corr_from_distance(4.0, phi0b, 1.5) == pytest.approx(0.001, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            fr.powexp_corr([0.0], [1.0], phi=-1.0)
        with pytest.raises(ValueError):
            fr.powexp_corr([0.0], [1.0], phi=1.0, nu=2.5)


class TestDesign:
    def test_all_sites_as_knots(self):
        coords = grid_coords(6)
        assert np.array_equal(fr.select_knots(coords, 6), np.arange(6))

    def test_single_block(self):
        coords = grid_coords(9)
        assert np.array_equal(fr.assign_blocks(coords, 1), np.zeros(9, dtype=int))

    def test_square_corners_maximin(self):
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        knots = fr.select_knots(corners, 2)
        # brute force over all 6 pairs: the diagonals are the unique maximin pair sets
        best = max(itertools.combinations(range(4), 2),
                   key=lambda ij: np.linalg.norm(corners[ij[0]] - corners[ij[1]]))
        scores = {frozenset(ij): np.linalg.norm(corners[ij[0]] - corners[ij[1]])
                  for ij in itertools.combinations(range(4), 2)}
        assert scores[frozenset(knots.tolist())] == pytest.approx(scores[frozenset(best)])

    def test_out_of_range(self):
        coords = grid_coords(5)
        with pytest.raises(ValueError):
            fr.select_knots(coords, 0)
        with pytest.raises(ValueError):
            fr.assign_blocks(coords, 6)

    def test_deterministic(self):
        coords = grid_coords(40, seed=3)
        assert np.array_equal(fr.select_knots(coords, 8), fr.select_knots(coords, 8))
        assert np.array_equal(fr.assign_blocks(coords, 5), fr.assign_blocks(coords, 5))


def path_graph(m):
    E = np.zeros((m, m), dtype=int)
    for i in range(m - 1):
        E[i, i + 1] = E[i + 1, i] = 1
    return E


class TestSpecValidation:
    def test_icar_rejects_disconnected(self):
        E = np.zeros((4, 4), dtype=int)
        E[0, 1] = E[1, 0] = 1
        E[2, 3] = E[3, 2] = 1
        with pytest.raises(ValueError, match="connected"):
            fr.FrailtySpec(kind="icar", adjacency=E)

    def test_icar_rejects_isolated(self):
        E = np.zeros((3, 3), dtype=int)
        E[0, 1] = E[1, 0] = 1
        with pytest.raises(ValueError, match="neighbor"):
            fr.FrailtySpec(kind="icar", adjacency=E)

    def test_grf_rejects_duplicate_sites(self):
        coords = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="distinct"):
            fr.FrailtySpec(kind="grf", coords=coords)

    def test_phi0_anchor(self):
        coords = np.array([[0.0, 0.0], [10.0, 0.0], [3.0, 1.0]])
        spec = fr.FrailtySpec(kind="grf", coords=coords)
        assert spec.phi0() == pytest.approx(fr.solve_phi0(10.0, 1.0))


class TestIcarStructure:
    def test_quad_form_edge_sum(self):
        spec = fr.FrailtySpec(kind="icar", adjacency=path_graph(3))
        st = fr.build_structure(spec)
        v = np.array([1.0, 0.0, -1.0])
        quad, rank, logdet = st.quad_form(v), st.rank, st.logdet_half
        assert quad == pytest.approx(2.0, abs=1e-14)  # (1-0)^2 + (0-(-1))^2
        assert rank == 2
        assert logdet == 0.0

    def test_kernel_invariance_under_constant_shift(self):
        spec = fr.FrailtySpec(kind="icar", adjacency=path_graph(6))
        st = fr.build_structure(spec)
        rng = np.random.default_rng(0)
        v = rng.normal(size=6)
        q0 = st.quad_form(v)
        q1 = st.quad_form(v + 3.7)
        assert q1 == pytest.approx(q0, rel=1e-12)

    def test_constant_vector_in_null_space(self):
        spec = fr.FrailtySpec(kind="icar", adjacency=path_graph(5))
        st = fr.build_structure(spec)
        assert st.quad_form(np.ones(5)) == pytest.approx(0.0, abs=1e-12)

    def test_conditional_neighbor_average(self):
        spec = fr.FrailtySpec(kind="icar", adjacency=path_graph(4))
        st = fr.build_structure(spec)
        v = np.array([2.0, 5.0, 2.0, 0.0])
        mean, var = st.conditional(1, v, tau2=3.0)
        assert mean == pytest.approx(2.0)  # both neighbors equal 2
        assert var == pytest.approx(3.0 / 2.0)


class TestIidStructure:
    def test_conditional(self):
        spec = fr.FrailtySpec(kind="iid")
        st = fr.build_structure(spec, m=4)
        mean, var = st.conditional(2, np.ones(4), tau2=2.5)
        assert mean == 0.0 and var == 2.5

    def test_quad(self):
        st = fr.build_iid(3)
        v = np.array([1.0, 2.0, 2.0])
        quad, rank = st.quad_form(v), st.rank
        assert quad == pytest.approx(9.0)
        assert rank == 3


class TestGrfDense:
    def test_conditional_matches_schur_complement(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 2.0]])
        spec = fr.FrailtySpec(kind="grf", coords=coords)
        st = fr.build_structure(spec, phi=0.8)
        R = st.R
        v = np.array([0.4, -0.2, 0.9])
        tau2 = 1.7
        for i in range(3):
            o = [j for j in range(3) if j != i]
            mean_schur = R[i, o] @ np.linalg.solve(R[np.ix_(o, o)], v[o])
            var_schur = tau2 * (R[i, i] - R[i, o] @ np.linalg.solve(R[np.ix_(o, o)], R[o, i]))
            mean, var = st.conditional(i, v, tau2)
            assert mean == pytest.approx(mean_schur, abs=1e-12)
            assert var == pytest.approx(var_schur, abs=1e-12)

    def test_quad_and_logdet_match_dense_solves(self):
        coords = grid_coords(25, seed=5)
        spec = fr.FrailtySpec(kind="grf", coords=coords)
        st = fr.build_structure(spec, phi=0.4)
        rng = np.random.default_rng(1)
        v = rng.normal(size=25)
        quad, rank, logdet_half = st.quad_form(v), st.rank, st.logdet_half
        assert rank == 25
        assert quad == pytest.approx(v @ np.linalg.solve(st.R, v), rel=1e-10)
        sign, ld = np.linalg.slogdet(st.R)
        assert sign > 0
        assert logdet_half == pytest.approx(-0.5 * ld, rel=1e-10)

    def test_nu2_with_close_points_stays_pd(self):
        rng = np.random.default_rng(9)
        coords = np.vstack([rng.uniform(0, 1, size=(198, 2)),
                            [[0.5, 0.5], [0.5, 0.5 + 1e-6]]])
        spec = fr.FrailtySpec(kind="grf", coords=coords, nu=2.0)
        st = fr.build_structure(spec, phi=1.0)  # must not raise (nugget keeps R PD)
        np.linalg.cholesky(st.R)


class TestFsa:
    @pytest.mark.parametrize("A", [5, 10])
    def test_single_block_is_exact(self, A):
        coords = grid_coords(40, seed=2)
        R = fr.dense_correlation(coords, 0.5, 1.0)
        Rdag, Rinv, logdet = fr.fsa_build(coords, 0.5, 1.0, A=A, B=1)
        assert np.max(np.abs(Rdag - R)) < 1e-10

    def test_inverse_identity(self):
        coords = grid_coords(60, seed=4)
        Rdag, Rinv, _ = fr.fsa_build(coords, 0.5, 1.0, A=10, B=5)
        off = Rinv @ Rdag - np.eye(60)
        assert np.max(np.abs(off)) < 1e-8

    def test_within_block_entries_exact(self):
        coords = grid_coords(50, seed=6)
        R = fr.dense_correlation(coords, 0.7, 1.0)
        Rdag, _, _ = fr.fsa_build(coords, 0.7, 1.0, A=8, B=4)
        blocks = fr.assign_blocks(coords, 4)
        same = blocks[:, None] == blocks[None, :]
        assert np.max(np.abs((Rdag - R)[same])) < 1e-12

    @pytest.mark.parametrize("m", [60, 200])
    @pytest.mark.parametrize("A,B", [(5, 1), (5, 4), (20, 10)])
    def test_logdet_and_inverse_against_dense(self, m, A, B):
        coords = grid_coords(m, seed=m + A + B)
        Rdag, Rinv, logdet = fr.fsa_build(coords, 0.5, 1.0, A=A, B=B)
        sign, ld = np.linalg.slogdet(Rdag)
        assert sign > 0
        assert logdet == pytest.approx(ld, rel=1e-6)
        dense = np.linalg.inv(Rdag)
        rel = np.max(np.abs(Rinv - dense)) / np.max(np.abs(dense))
        assert rel < 1e-6

    def test_quadform_dense_vs_fsa_structure(self):
        coords = grid_coords(80, seed=11)
        spec = fr.FrailtySpec(kind="grf", coords=coords, fsa=(12, 4))
        st = fr.build_structure(spec, phi=0.6)
        rng = np.random.default_rng(2)
        v = rng.normal(size=80)
        dense = v @ np.linalg.solve(st.R, v)
        assert st.quad_form(v) == pytest.approx(dense, rel=1e-6)
