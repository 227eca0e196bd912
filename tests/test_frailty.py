import itertools

import numpy as np
import oracle
import pytest

from bpsurv import frailty as fr


def grid_coords(m, seed=0, extent=10.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, extent, size=(m, 2))


def lattice_coords(m, seed=0):
    """m points of a unit lattice in shuffled order: many tied distances."""
    side = int(np.ceil(np.sqrt(m)))
    pts = np.array([(i, j) for i in range(side) for j in range(side)], dtype=float)
    return np.random.default_rng(seed).permutation(pts)[:m]


def fsa_spec(coords, A, B):
    return fr.FrailtySpec(kind="grf", coords=coords, fsa=(A, B))


class TestCorrelation:
    def test_same_point(self):
        assert fr.corr_from_distance(0.0, phi=0.5) == 1.0

    def test_unit_scaled_distance(self):
        # phi * d = 1, nu = 1 -> exp(-1)
        d = fr.pairwise_distances([[0.0, 0.0], [2.0, 0.0]])
        assert fr.corr_from_distance(d[0, 1], phi=0.5, nu=1.0) == pytest.approx(
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
        coords = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            fr.build_structure(fr.FrailtySpec(kind="grf", coords=coords), phi=-1.0)
        with pytest.raises(ValueError):
            fr.FrailtySpec(kind="grf", coords=coords, nu=2.5)


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

    @pytest.mark.parametrize("layout", [grid_coords, lattice_coords])
    @pytest.mark.parametrize("seed", range(4))
    def test_knots_match_loop_reference(self, layout, seed):
        m = 17 + 6 * seed
        coords = layout(m, seed=seed)
        for A in (1, 2, 3, m // 3, m - 1, m):
            assert np.array_equal(fr.select_knots(coords, A),
                                  oracle.select_knots(coords, A)), A


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

    @pytest.mark.parametrize("kind, message", [
        ("icar", "icar requires a square adjacency matrix"),
        ("grf", r"grf requires an \(m, d\) coordinate array")])
    def test_missing_structural_data(self, kind, message):
        with pytest.raises(ValueError, match=message):
            fr.FrailtySpec(kind=kind)

    @pytest.mark.parametrize("kind", ["none", "iid", "icar"])
    def test_fsa_is_for_grf_only(self, kind):
        adjacency = path_graph(3) if kind == "icar" else None
        with pytest.raises(ValueError, match=f"applies to grf frailties, not {kind}"):
            fr.FrailtySpec(kind=kind, adjacency=adjacency, fsa=(2, 1))

    def test_phi0_anchor(self):
        coords = np.array([[0.0, 0.0], [10.0, 0.0], [3.0, 1.0]])
        spec = fr.FrailtySpec(kind="grf", coords=coords)
        assert spec.phi0() == pytest.approx(fr.solve_phi0(10.0, 1.0))


def conditional(structure, i, v, tau2):
    """Mean and variance of v_i given the rest under precision kernel C, read
    as the frailty scan reads them: v_i - (C v)_i / C_ii and tau2 / C_ii."""
    C = structure.C
    return v[i] - (C @ v)[i] / C[i, i], tau2 / C[i, i]


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
        mean, var = conditional(st, 1, v, tau2=3.0)
        assert mean == pytest.approx(2.0)  # both neighbors equal 2
        assert var == pytest.approx(3.0 / 2.0)


class TestIidStructure:
    def test_conditional(self):
        spec = fr.FrailtySpec(kind="iid")
        st = fr.build_structure(spec, m=4)
        mean, var = conditional(st, 2, np.ones(4), tau2=2.5)
        assert mean == 0.0 and var == 2.5

    def test_quad(self):
        st = fr.build_structure(fr.FrailtySpec(kind="iid"), m=3)
        v = np.array([1.0, 2.0, 2.0])
        quad, rank = st.quad_form(v), st.rank
        assert quad == pytest.approx(9.0)
        assert rank == 3


class TestGrfDense:
    def test_conditional_matches_schur_complement(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.5], [2.0, 2.0], [0.5, 3.0]])
        v = np.array([0.4, -0.2, 0.9, 0.1])
        tau2 = 1.7
        # the exact field, and its full-scale approximation with one knot and
        # two blocks, whose R_dag differs from R across the blocks
        for fsa in (None, (1, 2)):
            spec = fr.FrailtySpec(kind="grf", coords=coords, fsa=fsa)
            st = fr.build_structure(spec, phi=0.8)
            R = (fr.dense_correlation(spec.distances, 0.8) if fsa is None
                 else fr.fsa_build(spec.fsa_geometry, 0.8, 1.0))
            for i in range(4):
                o = [j for j in range(4) if j != i]
                mean_schur = R[i, o] @ np.linalg.solve(R[np.ix_(o, o)], v[o])
                var_schur = tau2 * (R[i, i] - R[i, o] @ np.linalg.solve(R[np.ix_(o, o)], R[o, i]))
                mean, var = conditional(st, i, v, tau2)
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
        R = fr.dense_correlation(spec.distances, 0.4)
        assert quad == pytest.approx(v @ np.linalg.solve(R, v), rel=1e-10)
        sign, ld = np.linalg.slogdet(R)
        assert sign > 0
        assert logdet_half == pytest.approx(-0.5 * ld, rel=1e-10)

    def test_nu2_with_close_points_stays_pd(self):
        rng = np.random.default_rng(9)
        coords = np.vstack([rng.uniform(0, 1, size=(198, 2)),
                            [[0.5, 0.5], [0.5, 0.5 + 1e-6]]])
        spec = fr.FrailtySpec(kind="grf", coords=coords, nu=2.0)
        fr.build_structure(spec, phi=1.0)  # must not raise (nugget keeps R PD)
        np.linalg.cholesky(fr.dense_correlation(spec.distances, 1.0, 2.0))


class TestFsa:
    @pytest.mark.parametrize("A", [5, 10])
    def test_single_block_is_exact(self, A):
        spec = fsa_spec(grid_coords(40, seed=2), A, 1)
        R = fr.dense_correlation(spec.distances, 0.5, 1.0)
        Rdag = fr.fsa_build(spec.fsa_geometry, 0.5, 1.0)
        assert np.max(np.abs(Rdag - R)) < 1e-10

    def test_inverse_identity(self):
        spec = fsa_spec(grid_coords(60, seed=4), 10, 5)
        Rdag = fr.fsa_build(spec.fsa_geometry, 0.5, 1.0)
        off = fr.build_structure(spec, phi=0.5).C @ Rdag - np.eye(60)
        assert np.max(np.abs(off)) < 1e-8

    @pytest.mark.parametrize("phi", [0.001, 0.01, 0.05, None, 20.0])
    @pytest.mark.parametrize("A,B", [(30, 5), (20, 4), (60, 10)])
    def test_inverse_identity_at_every_range(self, A, B, phi):
        # 150 sites uniform on [0, 10]^2; phi None is the prior anchor phi0.
        # At long ranges R_dag is close to singular.
        spec = fsa_spec(grid_coords(150, seed=1), A, B)
        phi = spec.phi0() if phi is None else phi
        Rdag = fr.fsa_build(spec.fsa_geometry, phi, 1.0)
        off = fr.build_structure(spec, phi=phi).C @ Rdag - np.eye(150)
        assert np.max(np.abs(off)) < 1e-10

    def test_within_block_entries_exact(self):
        coords = grid_coords(50, seed=6)
        spec = fsa_spec(coords, 8, 4)
        R = fr.dense_correlation(spec.distances, 0.7, 1.0)
        Rdag = fr.fsa_build(spec.fsa_geometry, 0.7, 1.0)
        blocks = fr.assign_blocks(coords, 4)
        same = blocks[:, None] == blocks[None, :]
        assert np.max(np.abs((Rdag - R)[same])) < 1e-12

    @pytest.mark.parametrize("m", [60, 200])
    @pytest.mark.parametrize("A,B", [(5, 1), (5, 4), (20, 10)])
    def test_logdet_and_inverse_against_dense(self, m, A, B):
        spec = fsa_spec(grid_coords(m, seed=m + A + B), A, B)
        st = fr.build_structure(spec, phi=0.5)
        Rdag = fr.fsa_build(spec.fsa_geometry, 0.5, 1.0)
        sign, ld = np.linalg.slogdet(Rdag)
        assert sign > 0
        assert st.logdet_half == pytest.approx(-0.5 * ld, rel=1e-6)
        dense = np.linalg.inv(Rdag)
        rel = np.max(np.abs(st.C - dense)) / np.max(np.abs(dense))
        assert rel < 1e-6

    def test_quadform_dense_vs_fsa_structure(self):
        coords = grid_coords(80, seed=11)
        spec = fr.FrailtySpec(kind="grf", coords=coords, fsa=(12, 4))
        st = fr.build_structure(spec, phi=0.6)
        rng = np.random.default_rng(2)
        v = rng.normal(size=80)
        Rdag = fr.fsa_build(spec.fsa_geometry, 0.6, 1.0)
        dense = v @ np.linalg.solve(Rdag, v)
        assert st.quad_form(v) == pytest.approx(dense, rel=1e-6)


class TestFactorStructure:
    @pytest.mark.parametrize("fsa", [None, (10, 5)])
    def test_quad_and_logdet_from_the_factor(self, fsa):
        spec = fr.FrailtySpec(kind="grf", coords=grid_coords(60, seed=7), fsa=fsa)
        rng = np.random.default_rng(3)
        for phi in (0.3, 0.5, 2.0):
            st = fr.build_structure(spec, phi=phi)
            R = (fr.dense_correlation(spec.distances, phi) if fsa is None
                 else fr.fsa_build(spec.fsa_geometry, phi, 1.0))
            v = rng.normal(size=60)
            assert st.quad_form(v) == pytest.approx(v @ np.linalg.inv(R) @ v, rel=1e-12)
            sign, ld = np.linalg.slogdet(R)
            assert sign > 0
            assert st.logdet_half == pytest.approx(-0.5 * ld, rel=1e-12)

    @pytest.mark.parametrize("kind", ["iid", "icar", "grf", "fsa"])
    def test_precision_is_exactly_symmetric(self, kind):
        if kind == "iid":
            st = fr.build_structure(fr.FrailtySpec(kind="iid"), m=5)
        elif kind == "icar":
            st = fr.build_structure(fr.FrailtySpec(kind="icar", adjacency=path_graph(6)))
        else:
            spec = fr.FrailtySpec(kind="grf", coords=grid_coords(40, seed=8),
                                  fsa=(8, 3) if kind == "fsa" else None)
            st = fr.build_structure(spec, phi=0.7)
        assert np.array_equal(st.C, st.C.T)

    @pytest.mark.parametrize("fsa", [None, (8, 3)])
    @pytest.mark.parametrize("phi", [0.05, 0.7, 4.0])
    def test_inverse_matches_mirrored_lower_triangle(self, fsa, phi):
        # inv + inv' with the diagonal halved equals the lower triangle plus
        # its strict part transposed, bit for bit and in memory order
        spec = fr.FrailtySpec(kind="grf", coords=grid_coords(40, seed=8), fsa=fsa)
        st = fr.build_structure(spec, phi=phi)
        ref = oracle.precision_from_factor(st.L)
        assert st.C.tobytes() == ref.tobytes()
        assert st.C.flags.f_contiguous and ref.flags.f_contiguous
        out = np.empty((40, 40), order="F")
        assert fr.precision_from_factor(st.L, out=out) is out
        assert out.tobytes() == ref.tobytes()

    def test_inverse_is_formed_on_first_read_only(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fr, "dpotri", lambda *a, _f=fr.dpotri, **k: calls.append(1) or _f(*a, **k))
        spec = fr.FrailtySpec(kind="grf", coords=grid_coords(30, seed=9))
        st = fr.build_structure(spec, phi=0.6)
        st.quad_form(np.ones(30))
        assert calls == [] and st.logdet_half > 0.0  # log det R < 0
        st.C, st.C
        assert calls == [1]

    def test_unfactorable_knots_name_the_range(self):
        # 19 sites within 0.01 of each other and one far away: at phi0 the
        # 12 knots' nu = 2 correlation has no Cholesky factor
        rng = np.random.default_rng(1)
        coords = np.vstack([rng.uniform(0, 0.01, size=(19, 2)), [[10.0, 10.0]]])
        spec = fr.FrailtySpec(kind="grf", coords=coords, nu=2.0, fsa=(12, 2))
        with pytest.raises(fr.SingularCorrelation, match="numerically singular at range phi"):
            fr.build_structure(spec, phi=spec.phi0())


class TestGeometryReuse:
    @pytest.mark.parametrize("nu", [1.0, 1.5])
    @pytest.mark.parametrize("fsa", [None, (12, 4)])
    def test_build_matches_fresh_spec(self, fsa, nu):
        coords = grid_coords(70, seed=13)
        spec = fr.FrailtySpec(kind="grf", coords=coords, nu=nu, fsa=fsa)
        for phi in (0.3, 0.8, 2.0, 0.3):
            reused = fr.build_structure(spec, phi=phi)
            fresh = fr.build_structure(
                fr.FrailtySpec(kind="grf", coords=coords, nu=nu, fsa=fsa), phi=phi)
            assert np.array_equal(reused.C, fresh.C)
            assert reused.logdet_half == fresh.logdet_half

    def test_knots_and_blocks_chosen_once_and_lazily(self, monkeypatch):
        calls = []
        for name in ("select_knots", "assign_blocks"):
            def counted(coords, k, _f=getattr(fr, name), _name=name):
                calls.append((_name, k))
                return _f(coords, k)
            monkeypatch.setattr(fr, name, counted)
        spec = fsa_spec(grid_coords(40, seed=1), 9, 3)
        spec.phi0()
        assert calls == []
        for phi in (0.4, 0.9, 1.3):
            fr.build_structure(spec, phi=phi)
        assert calls == [("select_knots", 9), ("assign_blocks", 3), ("select_knots", 3)]
