import gc
import warnings
import weakref

import numpy as np
import pytest

from entlab import chains
from entlab.chains import (
    ChainPathSpec,
    GapCollapseError,
    TransportConsistencyError,
    _check_rates,
    _simpson_weights,
    adiabatic_generator,
    build_chain_hamiltonian,
    centered_generator_term,
    chain_hprime,
    entropy_along_path,
    ground_state,
    locality_profile,
)
from entlab.operators import DEGENERACY_TOL, HermitianOperator, partial_trace_matrix
from transport_reference import (
    SIGMA_X,
    SIGMA_Z,
    dense_centered_term,
    dense_eigh,
    dense_generator,
    dense_path_point,
    dense_shell_strengths,
    kron_tfim,
    transport_residual,
)


SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def ramp_spec(n=4, cut=2, pts=21):
    # J = 1, g going 1.5 -> 2.5: safely inside the paramagnetic phase
    return ChainPathSpec(
        n_sites=n,
        cut=cut,
        J=(1.0,),
        g=(1.5, 1.0),
        s_grid=tuple(np.linspace(0.0, 1.0, pts)),
    )


class TestChainPathSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChainPathSpec(n_sites=1, cut=1)
        with pytest.raises(ValueError):
            ChainPathSpec(n_sites=13, cut=6)
        with pytest.raises(ValueError):
            ChainPathSpec(n_sites=4, cut=0)
        with pytest.raises(ValueError):
            ChainPathSpec(n_sites=4, cut=4)
        with pytest.raises(ValueError):
            ChainPathSpec(n_sites=4, cut=2, s_grid=(0.0, 0.5, 0.5))
        with pytest.raises(ValueError):
            ChainPathSpec(n_sites=4, cut=2, s_grid=(0.0, 1.5))
        # a grid needs two points for the rates and their check
        for grid in ((0.5,), ()):
            with pytest.raises(ValueError, match="s_grid"):
                ChainPathSpec(n_sites=4, cut=2, s_grid=grid)
        # a string is not read one character per coefficient or point
        for key in ("J", "g", "s_grid"):
            with pytest.raises(ValueError, match=f"{key} must be a list"):
                ChainPathSpec.from_json({"n_sites": 4, "cut": 2, key: "15"})

    def test_polynomial_schedules(self):
        spec = ChainPathSpec(n_sites=4, cut=2, J=(1.0, -0.5), g=(2.0, 0.0, 1.0))
        J, g = spec.couplings(0.5)
        assert J == pytest.approx(0.75)
        assert g == pytest.approx(2.25)
        dJ, dg = spec.coupling_derivatives(0.5)
        assert dJ == pytest.approx(-0.5)
        assert dg == pytest.approx(1.0)

    def test_callable_schedule_rejected(self):
        # schedules are polynomial coefficients only, as JSON gives them
        with pytest.raises(ValueError, match="g must be a list"):
            ChainPathSpec(n_sites=4, cut=2, g=lambda s: 1.5 + s)
        with pytest.raises(ValueError, match="J must be a list"):
            ChainPathSpec.from_json({"n_sites": 4, "cut": 2, "J": 1.0})
        assert ChainPathSpec(n_sites=4, cut=2, g=[1.5, 1]).g == (1.5, 1.0)

    @pytest.mark.parametrize("key", ["sgrid", "n_site", "j", "restarts"])
    def test_json_unknown_key_rejected(self, key):
        with pytest.raises(ValueError, match=f"chain path has unknown key '{key}'"):
            ChainPathSpec.from_json({"n_sites": 4, "cut": 2, key: [0.0, 1.0]})
        with pytest.raises(ValueError, match="chain path must be a JSON object"):
            ChainPathSpec.from_json([4, 2])

    def test_json_round_trip(self):
        spec = ChainPathSpec.from_json(
            {"n_sites": 4, "cut": 2, "J": [1.0], "g": [1.5, 1.0], "s_grid": [0.0, 0.5, 1.0]}
        )
        assert spec.n_sites == 4
        assert spec.couplings(1.0) == (1.0, 2.5)


class TestHamiltonian:
    def test_two_site_explicit(self):
        spec = ChainPathSpec(n_sites=2, cut=1, J=(0.7,), g=(1.2,))
        H = build_chain_hamiltonian(spec, 0.0).mat
        expected = (
            -0.7 * np.kron(SIGMA_Z, SIGMA_Z)
            - 1.2 * (np.kron(SIGMA_X, np.eye(2)) + np.kron(np.eye(2), SIGMA_X))
        )
        assert np.allclose(H, expected)

    def test_matches_tensor_product_reference(self):
        spec = ChainPathSpec(n_sites=5, cut=2, J=(0.7, 0.3), g=(1.2, -0.9))
        for s in (0.0, 0.37, 1.0):
            J, g = spec.couplings(s)
            dJ, dg = spec.coupling_derivatives(s)
            H = build_chain_hamiltonian(spec, s).mat
            Hp = chain_hprime(spec, s).mat
            # the diagonal sums the n - 1 bond terms in another order
            assert np.allclose(H, kron_tfim(5, [J] * 4, [g] * 5), rtol=0, atol=1e-14)
            assert np.allclose(Hp, kron_tfim(5, [dJ] * 4, [dg] * 5), rtol=0, atol=1e-14)
            assert not H.imag.any()

    def test_hprime_is_schedule_derivative(self):
        spec = ramp_spec()
        s = 0.4
        ds = 1e-6
        Hp = chain_hprime(spec, s).mat
        fd = (
            build_chain_hamiltonian(spec, s + ds).mat
            - build_chain_hamiltonian(spec, s - ds).mat
        ) / (2 * ds)
        assert np.max(np.abs(Hp - fd)) < 1e-6

    def test_s_out_of_range(self):
        with pytest.raises(ValueError):
            build_chain_hamiltonian(ramp_spec(), 1.2)

    def test_strong_field_ground_state(self):
        # g >> J: ground state is approximately all-spins-along-x
        spec = ChainPathSpec(n_sites=3, cut=1, J=(0.01,), g=(5.0,))
        H = build_chain_hamiltonian(spec, 0.0)
        e0, psi, gap = ground_state(H)
        assert e0 == pytest.approx(-15.0, abs=0.1)
        assert gap == pytest.approx(10.0, abs=0.2)
        plus = np.ones(2) / np.sqrt(2)
        target = np.kron(np.kron(plus, plus), plus)
        assert abs(np.vdot(target, psi)) > 0.999

    def test_degenerate_ground_state_raises(self):
        # zero field: the two fully polarized states are exactly degenerate
        spec = ChainPathSpec(n_sites=3, cut=1, J=(1.0,), g=(0.0,))
        with pytest.raises(GapCollapseError):
            ground_state(build_chain_hamiltonian(spec, 0.0))


def sector_vectors(n):
    """Each sector's unit vectors in flip coordinates r < 2^(n-1), one
    column each in increasing r, in the order of ``chains._SECTORS``, built
    straight from the bit reversal: (|r> + m sign_r |partner_r>)/sqrt(2) for
    each pair r < partner_r, and |r> for each fixed point with
    m sign_r = +1.  The partner is rev(r) with sign +1 if rev(r) < 2^(n-1),
    and 2^n - 1 - rev(r) with the flip's sign otherwise."""
    dim, h = 2**n, 2 ** (n - 1)
    rev = [int(format(r, f"0{n}b")[::-1], 2) for r in range(h)]
    sectors = []
    for flip, mirror in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        columns = []
        for r in range(h):
            partner, sign = (rev[r], 1) if rev[r] < h else (dim - 1 - rev[r], flip)
            v = np.zeros(h)
            if r < partner:
                v[r], v[partner] = np.sqrt(0.5), mirror * sign * np.sqrt(0.5)
            elif r == partner and mirror * sign == 1:
                v[r] = 1.0
            else:
                continue
            columns.append(v)
        sectors.append(np.array(columns).T.reshape(h, len(columns)))
    return sectors


def assert_same_vectors(ref, got):
    """The columns of ``got`` are those of ``ref`` in some order, to
    rounding; returns the order, ref's column of each of got's."""
    overlap = ref.T @ got
    order = np.array([np.argmax(np.abs(column)) for column in overlap.T], dtype=int)
    assert sorted(order) == list(range(ref.shape[1]))
    assert np.max(np.abs(overlap - np.eye(ref.shape[1])[:, order]), initial=0.0) <= 1e-15
    return order


class TestSectorLayout:
    """The sector layout against sector vectors built in the test from the
    bit reversal (``sector_vectors``), not from ``chains._pair_order``."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_blocks_are_the_sector_compressions(self, n):
        # the four sectors' vectors are an orthonormal basis, and V^T M V of
        # a uniform chain's matrix is the cut of the matrix and the block of
        # H, up to the order within each sector
        dim = 2**n
        vectors = sector_vectors(n)
        flips = [np.hstack(vectors[:2]), np.hstack(vectors[2:])]
        for F in flips:
            assert np.max(np.abs(F.T @ F - np.eye(dim // 2))) <= 1e-15
        J, g = np.random.default_rng(n).uniform(0.5, 2.0, 2)
        H = chains._UniformChain(n, J, g)
        M = chains._tfim_matrix(n, np.full(n - 1, J), np.full(n, g))
        cut = chains._sector_blocks(M)
        for k, (V, (flip, _)) in enumerate(zip(vectors, chains._SECTORS)):
            full = np.vstack([V, flip * V[::-1]]) / np.sqrt(2.0)
            ref = full.T @ M @ full
            order = assert_same_vectors(full, chains._sector_vector(np.eye(V.shape[1]), dim, k))
            for got in (cut[k], H.blocks()[k]):
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref[np.ix_(order, order)]), initial=0.0) <= 1e-14 * np.abs(M).max()


class TestChainTerms:
    """A uniform chain is its two coefficients on the sum ZZ and sum X terms,
    cut into the four sectors once per n."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_blocks_match_the_cut_of_the_matrix(self, n):
        rng = np.random.default_rng(n)
        for J, g in rng.uniform(-2.0, 2.0, (3, 2)):
            H = chains._UniformChain(n, J, g)
            cut = chains._sector_blocks(chains._tfim_matrix(n, np.full(n - 1, J), np.full(n, g)))
            blocks = H.blocks()
            scale = max(np.abs(b).max() for b in cut if b.size)
            for block, ref in zip(blocks, cut):
                assert block.shape == ref.shape
                assert np.all(np.abs(block - ref) <= 1e-15 * scale)
            if n == 2:
                assert blocks[1].shape == (0, 0)

    def test_terms_are_read_only_and_kept(self):
        terms = chains._chain_terms(6)
        assert terms is chains._chain_terms(6)
        for z, x in terms:
            assert z.ndim == 1 and x.shape == (len(z), len(z))
            assert not z.flags.writeable and not x.flags.writeable

    def test_matrix_built_only_when_read(self):
        spec = ramp_spec(n=6, cut=3, pts=3)
        H = build_chain_hamiltonian(spec, 0.5)
        ground_state(H)
        assert "mat" not in vars(H)
        J, g = spec.couplings(0.5)
        ref = chains._tfim_matrix(6, np.full(5, J), np.full(6, g))
        assert H.mat.dtype == np.float64 and np.array_equal(H.mat, ref)
        assert not H.mat.flags.writeable and H.mat is H.mat

    def test_warm_path_cuts_no_matrix(self, monkeypatch):
        # every block of a path point comes from the cached terms
        spec = ChainPathSpec(n_sites=8, cut=4, J=(1.0,), g=(1.5, 1.0), s_grid=(0.48, 0.5, 0.52))
        entropy_along_path(spec)
        calls = []
        for name in ("_tfim_matrix", "_sector_blocks"):
            f = getattr(chains, name)
            monkeypatch.setattr(
                chains, name, lambda *a, f=f, name=name: calls.append(name) or f(*a)
            )
        assert len(entropy_along_path(spec)) == 3
        assert calls == []


class TestSharedSectors:
    """The four sector decompositions of H(s) are taken once per (n, J, g)
    and kept for the two most recently visited points, so a path point and
    the centred terms of its points share them."""

    WINDOW = ChainPathSpec(n_sites=8, cut=4, J=(1.0,), g=(1.5, 1.0), s_grid=(0.48, 0.5, 0.52))

    def _centres(self):
        return [centered_generator_term(self.WINDOW, 0.5, c).R for c in range(8)]

    def test_one_diagonalisation_per_point(self, monkeypatch):
        chains._chain_sectors.cache_clear()
        widths, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: widths.append(len(a)) or eigh(a, *args))
        entropy_along_path(self.WINDOW)
        self._centres()
        # four sectors, 72, 56, 64 and 64 wide, at each of three points; the
        # 16-wide calls are the reduced density matrices of the cut
        assert [w for w in widths if w != 16] == [72, 56, 64, 64] * 3
        assert chains._chain_sectors.cache_info().currsize == 2
        H = build_chain_hamiltonian(self.WINDOW, 0.5)
        assert H.sectors is build_chain_hamiltonian(self.WINDOW, 0.5).sectors
        for w, u in H.sectors:
            for a in (w, u):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 0.0

    def test_signed_zero_coupling_is_one_key(self):
        # J = -0.0 and J = 0.0 read one memo entry, and it holds 0.0's
        # decompositions in either visiting order (at J = 0 a sector has
        # degenerate levels, whose eigenvectors the sign of a zero moves)
        seen = []
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            chains._chain_sectors.cache_clear()
            a = chains._UniformChain(6, first, 1.3).sectors
            assert chains._UniformChain(6, second, 1.3).sectors is a
            seen.append(b"".join(x.tobytes() for pair in a for x in pair))
        assert seen[0] == seen[1]

    def test_memo_keeps_no_operator(self):
        H = build_chain_hamiltonian(self.WINDOW, 0.5)
        ground_state(H)
        H.mat  # built, as a traced run's span labels build it
        ref = weakref.ref(H)
        del H
        gc.collect()
        assert ref() is None

    def test_memo_changes_no_bit(self):
        def cold(f, *args):
            chains._chain_sectors.cache_clear()
            return f(*args)

        def fields(points):
            return [
                (pt.ground_energy, pt.gap, pt.entropy_left, pt.rate_commutator, pt.rate_finite_difference, pt.K_norm)
                for pt in points
            ]

        cold_path = fields(cold(entropy_along_path, self.WINDOW))
        cold_terms = [cold(centered_generator_term, self.WINDOW, 0.5, c).R for c in range(8)]
        chains._chain_sectors.cache_clear()
        warm_path = fields(entropy_along_path(self.WINDOW))
        warm_terms = self._centres()
        assert np.array_equal(cold_path, warm_path)
        assert all(np.array_equal(a, b) for a, b in zip(cold_terms, warm_terms))


class TestCoefficientSources:
    """A source, centred or uniform, is its bonds and fields; the generator
    multiplies in sector coordinates and never builds its matrix."""

    def test_source_matrix_built_only_when_read(self):
        src = chains._SiteCouplings((0.0, 0.7, 0.0), (0.0, 0.0, -1.2, 0.0))
        assert "mat" not in vars(src) and src.dim == 16
        assert np.array_equal(src.mat, kron_tfim(4, src.bonds, src.fields))
        assert not src.mat.flags.writeable and src.mat is src.mat

    def test_warm_generator_builds_no_matrix(self, monkeypatch):
        spec = ramp_spec(n=8, cut=4, pts=3)

        def generators():
            centered_generator_term(spec, 0.5, 3)
            adiabatic_generator(build_chain_hamiltonian(spec, 0.5), chain_hprime(spec, 0.5))

        generators()
        calls = []
        for name in ("_tfim_matrix", "_fold"):
            f = getattr(chains, name)
            monkeypatch.setattr(
                chains, name, lambda *a, f=f, name=name: calls.append(name) or f(*a)
            )
        generators()
        assert calls == []

    @pytest.mark.parametrize("n", range(2, 11))
    def test_butterfly_is_the_sector_scatter(self, n):
        # the butterfly from a flip block's two sectors, in pair order,
        # against each sector's unit vectors built from the bit reversal, up
        # to the order within each sector, and its inverse
        dim, h = 2**n, 2 ** (n - 1)
        order = chains._pair_order(dim)
        vectors = sector_vectors(n)
        for k in (0, 2):
            width, sign = order.widths[k // 2], order.partner_sign[k // 2]
            assert width == vectors[k].shape[1]
            P = chains._sectors_to_flip(np.eye(h), np.empty((h, h)), width, sign)
            for ref, cols in zip(vectors[k : k + 2], np.split(P[order.position], [width], axis=1)):
                assert_same_vectors(ref, cols)
            assert np.max(np.abs(chains._flip_to_sectors(P, width, sign) - np.eye(h))) <= 1e-15

    @pytest.mark.parametrize("n", (2, 3, 6))
    def test_empty_sector_and_bondless_centre(self, n, monkeypatch):
        # n = 2 has an empty (+1, -1) sector; centre n - 1 has no bond
        spec = ramp_spec(n=n, cut=1, pts=3)
        if n == 2:
            assert build_chain_hamiltonian(spec, 0.5).sectors[1][0].size == 0
        sources, generator = [], chains.adiabatic_generator
        monkeypatch.setattr(
            chains, "adiabatic_generator", lambda H, src: sources.append(src) or generator(H, src)
        )
        dJ, dg = spec.coupling_derivatives(0.5)
        for center in range(n):
            K = 1j * centered_generator_term(spec, 0.5, center).R
            ref, ref_norm = dense_centered_term(spec, 0.5, center)
            assert np.max(np.abs(K - ref)) <= generator_tol(spec, 0.5, ref_norm, abs(dJ) + abs(dg))
        assert sources[-1].bonds == (0.0,) * (n - 1)
        assert sources[-1].fields == (0.0,) * (n - 1) + (dg,)


class TestAdiabaticGenerator:
    def test_hermitian_and_gauge(self):
        spec = ramp_spec(n=4)
        H = build_chain_hamiltonian(spec, 0.5)
        K = 1j * adiabatic_generator(H, chain_hprime(spec, 0.5)).R
        _, psi, _ = ground_state(H)
        # antisymmetric flip blocks unfold to an exactly antisymmetric R
        assert np.array_equal(K, K.conj().T)
        assert abs(np.vdot(psi, K @ psi)) < 1e-12

    def test_transports_ground_state(self):
        spec = ramp_spec(n=4)
        for s in (0.25, 0.5, 0.75):
            assert transport_residual(spec, s) < 1e-6

    def test_first_order_perturbation_oracle(self):
        # K must rotate |0(s)> into |0(s+ds)> to first order:
        # <m|dpsi/ds> = <m|H'|0>/(E_0 - E_m), the textbook coefficient
        spec = ramp_spec(n=3)
        s = 0.5
        H = build_chain_hamiltonian(spec, s)
        Hp = chain_hprime(spec, s)
        w, v = np.linalg.eigh(H.mat)
        K = 1j * adiabatic_generator(H, Hp).R
        k_psi = 1j * (K @ v[:, 0])
        for m in range(1, v.shape[1]):
            expected = np.vdot(v[:, m], Hp.mat @ v[:, 0]) / (w[0] - w[m])
            assert np.vdot(v[:, m], k_psi) == pytest.approx(expected, abs=1e-10)

    def test_gap_collapse_raises(self):
        spec = ChainPathSpec(n_sites=3, cut=1, J=(1.0,), g=(0.0,))
        H = build_chain_hamiltonian(spec, 0.0)
        with pytest.raises(GapCollapseError):
            adiabatic_generator(H, chain_hprime(spec, 0.0))

    def test_full_eigenbasis_never_built(self):
        # a chain operator is its real matrix, read-only, and its two sector
        # decompositions: no HermitianOperator and no dense 2^n eigh
        spec = ramp_spec(n=4)
        H = build_chain_hamiltonian(spec, 0.5)
        Hp = chain_hprime(spec, 0.5)
        ground_state(H)
        adiabatic_generator(H, Hp)
        assert "sectors" in vars(H)
        for op in (H, Hp):
            assert not isinstance(op, HermitianOperator) and not hasattr(op, "eigh")
            assert op.mat.dtype == np.float64 and not op.mat.flags.writeable

    def test_plain_operators_rejected(self):
        # only operators the chain builders make are accepted
        spec = ramp_spec(n=4)
        H = build_chain_hamiltonian(spec, 0.5)
        Hp = chain_hprime(spec, 0.5)
        plain_H, plain_Hp = HermitianOperator(H.mat), HermitianOperator(Hp.mat)
        with pytest.raises(ValueError, match="build_chain_hamiltonian"):
            ground_state(plain_H)
        for pair in ((plain_H, Hp), (H, plain_Hp), (plain_H, plain_Hp)):
            with pytest.raises(ValueError, match="build_chain_hamiltonian"):
                adiabatic_generator(*pair)


def full_chain_locality(K, n, center):
    """Reference shell strengths: each compression Pi_r K is embedded back
    into the 2^n space (partial trace, kron with the identity, reordering of
    the sites) and each shell norm is taken there."""
    dim = 2**n
    prev = np.trace(K) / dim * np.eye(dim)
    strengths = []
    for r in range(max(center, n - 1 - center) + 1):
        ball = [i for i in range(n) if abs(i - center) <= r]
        outside = [i for i in range(n) if i not in ball]
        if outside:
            kb = partial_trace_matrix(K, [2] * n, ball) / 2 ** len(outside)
            t = np.kron(kb, np.eye(2 ** len(outside))).reshape([2] * (2 * n))
            perm = list(np.argsort(ball + outside))
            cur = np.transpose(t, perm + [n + q for q in perm]).reshape(dim, dim)
        else:
            cur = K
        w = np.linalg.eigvalsh(cur - prev)
        strengths.append(max(abs(w[0]), abs(w[-1])))
        prev = cur
    return np.array(strengths)


class TestLocality:
    def test_shells_reassemble(self):
        spec = ramp_spec(n=5)
        H = build_chain_hamiltonian(spec, 0.5)
        K = adiabatic_generator(H, chain_hprime(spec, 0.5))
        prof = locality_profile(K, spec, 2)
        # the largest ball covers the whole chain, so shells plus the
        # identity component must rebuild K itself; check the trace part
        assert prof.radii[-1] == 2
        assert prof.strengths.shape == (3,)
        assert np.all(prof.strengths >= 0)

    def test_strictly_local_operator(self):
        # i R with R = -i Y_2 Z_3, real, antisymmetric and flip-even, lies on
        # the radius-1 ball around site 2 and has no part on site 2 alone
        spec = ramp_spec(n=4)
        R = np.kron(np.kron(np.eye(4), -1j * SIGMA_Y), SIGMA_Z).real
        prof = locality_profile(chains._TransportGenerator(R), spec, 2)
        assert prof.strengths[1] == pytest.approx(1.0)
        assert prof.strengths[0] < 1e-12 and np.all(prof.strengths[2:] < 1e-12)

    def test_operator_with_real_part_rejected(self):
        # only a transport generator i R, R real antisymmetric, is profiled
        spec = ramp_spec(n=4)
        K = centered_generator_term(spec, 0.5, 2)
        for m in (np.kron(np.kron(np.eye(4), SIGMA_Z), np.eye(2)), 1j * K.R + np.eye(16)):
            with pytest.raises(ValueError, match="transport generator"):
                locality_profile(HermitianOperator(m), spec, 2)

    def test_only_built_generators_profiled(self):
        # i R as a HermitianOperator, R itself and a chain operator are not
        # the generator the chain module builds
        spec = ramp_spec(n=4)
        K = centered_generator_term(spec, 0.5, 2)
        for op in (HermitianOperator(1j * K.R), K.R, build_chain_hamiltonian(spec, 0.5)):
            with pytest.raises(ValueError, match="transport generator"):
                locality_profile(op, spec, 2)

    def test_flip_parity(self):
        # shell norms come from flip blocks: a flip-even R built by hand is
        # profiled as the dense reference profiles it
        spec = ramp_spec(n=4)
        R = np.kron(np.kron(np.eye(2), -1j * SIGMA_Y), np.kron(SIGMA_Z, np.eye(2))).real
        prof = locality_profile(chains._TransportGenerator(R), spec, 1)
        assert np.allclose(prof.strengths, full_chain_locality(1j * R, 4, 1), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, center", [(5, 2), (6, 0), (6, 4), (7, 3)])
    def test_matches_full_chain_reference(self, n, center):
        # shells taken on their balls agree with shells embedded back into
        # the whole chain
        spec = ramp_spec(n=n)
        K = centered_generator_term(spec, 0.5, center)
        prof = locality_profile(K, spec, center)
        ref = full_chain_locality(1j * K.R, n, center)
        assert prof.strengths.shape == ref.shape
        assert np.max(np.abs(prof.strengths - ref)) < 1e-12 * max(1.0, ref.max())

    @pytest.mark.parametrize("n", range(4, 9))
    def test_matches_dense_shell_norms(self, n):
        # shell norms from the flip blocks of each ball against the norm of
        # the whole shell matrix
        spec = ramp_spec(n=n)
        for center in (0, n // 2):
            K = centered_generator_term(spec, 0.5, center)
            ref = dense_shell_strengths(K.R, n, center)
            prof = locality_profile(K, spec, center)
            assert np.all(np.abs(prof.strengths - ref) <= 1e-12 * ref.max())

    def test_no_eigensolver_call_wider_than_a_sector(self, monkeypatch):
        n = 8
        widths = []

        def recorded(solver):
            def call(a, *args, **kwargs):
                widths.append(a.shape[-1])
                return solver(a, *args, **kwargs)

            return call

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, recorded(getattr(np.linalg, name)))
        spec = ramp_spec(n=n)
        locality_profile(centered_generator_term(spec, 0.5, 4), spec, 4)
        assert widths and max(widths) == 2 ** (n - 1)
        widths.clear()
        # a path point reads the four flip x mirror blocks of H, at n = 8
        # 72, 56, 64 and 64 wide
        window = ChainPathSpec(n_sites=n, cut=4, J=(1.0,), g=(1.5, 1.0), s_grid=(0.48, 0.5, 0.52))
        entropy_along_path(window)
        assert widths and max(widths) == 72

    def test_centred_source_never_split_by_the_mirror(self, monkeypatch):
        # only uniform chains are cut into the four flip x mirror sectors: a
        # centred source with a bond is not mirror-symmetric, reaches
        # adiabatic_generator without sectors, and is never cut.  The terms
        # of a uniform chain are cut once per n, so the cache starts empty
        chains._chain_terms.cache_clear()
        n = 5
        mirror = list(range(n - 1, -1, -1))

        def mirrored(m):
            return m.reshape([2] * 2 * n).transpose(mirror + [n + i for i in mirror]).reshape(m.shape)

        cut, sources = [], []
        sector_blocks, generator = chains._sector_blocks, chains.adiabatic_generator
        monkeypatch.setattr(chains, "_sector_blocks", lambda m: cut.append(m) or sector_blocks(m))
        monkeypatch.setattr(
            chains, "adiabatic_generator", lambda H, src: sources.append(src) or generator(H, src)
        )
        spec = ChainPathSpec(n_sites=n, cut=2, J=(1.0, 0.2), g=(1.5, 1.0), s_grid=ramp_spec().s_grid)
        for center in range(n):
            locality_profile(centered_generator_term(spec, 0.5, center), spec, center)
        entropy_along_path(spec)
        assert len(sources) == n and not any(hasattr(src, "sectors") for src in sources)
        assert not any(np.array_equal(src.mat, mirrored(src.mat)) for src in sources)
        assert cut and all(np.array_equal(m, mirrored(m)) for m in cut)

    def test_centered_terms_sum_to_full_generator(self):
        """The n centred terms of a point sum to the generator of H'.  The
        generator is linear in its source, and the terms share every kernel
        with it (the same sectors, the same products), so this is an
        identity check of the split into centres, not an independent
        oracle."""
        s = 0.5
        for n in (4, 8):
            spec = ramp_spec(n=n)
            H = build_chain_hamiltonian(spec, s)
            R = adiabatic_generator(H, chain_hprime(spec, s)).R
            total = sum(centered_generator_term(spec, s, c).R for c in range(n))
            # about 1e-14 here, where max |R| is about 0.05; the largest
            # error seen, at n = 8, is 2.4e-14 of max |R|
            assert np.max(np.abs(total - R)) <= 2e-13 * np.max(np.abs(R)), n

    def test_generator_of_another_size_rejected(self):
        # an n = 8 generator against a spec of another size fails where it
        # enters, naming both widths
        K = centered_generator_term(ramp_spec(n=8, cut=4, pts=3), 0.5, 4)
        for n in (6, 10):
            with pytest.raises(ValueError, match=f"K is 256 wide, but a chain of {n} sites is {2**n} wide"):
                locality_profile(K, ramp_spec(n=n, cut=n // 2, pts=3), 3)

    def test_centered_term_validation(self):
        with pytest.raises(ValueError):
            centered_generator_term(ramp_spec(n=4), 0.5, 4)


class TestEntropyAlongPath:
    def test_path_points(self):
        spec = ramp_spec(n=4, cut=2, pts=21)
        points = entropy_along_path(spec)
        assert len(points) == 21
        for pt in points:
            assert pt.gap > 0.5
            assert pt.entropy_left >= -1e-12
            assert np.isfinite(pt.rate_commutator)
        drift = max(abs(pt.entropy_left - points[0].entropy_left) for pt in points)
        assert drift < 0.2

    def test_rates_agree_interior(self):
        points = entropy_along_path(ramp_spec(n=4, pts=21))
        for pt in points[1:-1]:
            tol = max(1e-4, 1e-2 * abs(pt.rate_commutator))
            assert abs(pt.rate_commutator - pt.rate_finite_difference) <= tol

    def test_impossible_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(chains, "RATE_CHECK_ATOL", 1e-15)
        monkeypatch.setattr(chains, "RATE_CHECK_RTOL", 1e-15)
        with pytest.raises(TransportConsistencyError):
            entropy_along_path(ramp_spec(n=4, pts=5))

    def test_two_site_closed_form(self):
        # J = 1, g = 0.5 + s, cut = 1: with r = sqrt(J^2 + 4 g^2) and
        # q = (1 + 2g/r)/2, E_0 = -r, gap = r - J, S_L is the binary entropy
        # of q and dS/ds = ln((1 - q)/q) J^2 / r^3
        spec = ChainPathSpec(
            n_sites=2, cut=1, J=(1.0,), g=(0.5, 1.0), s_grid=tuple(np.linspace(0.0, 1.0, 41))
        )
        for pt in entropy_along_path(spec):
            g = 0.5 + pt.s
            r = np.sqrt(1.0 + 4.0 * g**2)
            q = (1.0 + 2.0 * g / r) / 2.0
            assert pt.ground_energy == pytest.approx(-r, rel=1e-14)
            assert pt.gap == pytest.approx(r - 1.0, rel=1e-13)
            assert pt.entropy_left == pytest.approx(
                -q * np.log(q) - (1 - q) * np.log(1 - q), rel=1e-13
            )
            assert pt.rate_commutator == pytest.approx(np.log((1 - q) / q) / r**3, rel=1e-12)


# The sector path against a dense reference (transport_reference): the
# uniform default path and a ramp at n = 2..8, a negative field at odd n
# (ground state in the F = -1 sector), a ferromagnetic point whose gap is
# the splitting between the two flip sectors' lowest states, and the n = 10
# window J = 1, g = 1.5 + s, cut 5 that entbench times.
DENSE_CASES = {
    **{
        f"uniform-n{n}": ChainPathSpec(n_sites=n, cut=n // 2, s_grid=(0.0, 0.5, 1.0))
        for n in range(2, 9)
    },
    **{f"ramp-n{n}": ramp_spec(n=n, cut=n // 2, pts=5) for n in range(2, 9)},
    "negative-field-n5": ChainPathSpec(
        n_sites=5, cut=2, J=(1.0,), g=(-1.5, 0.3), s_grid=(0.0, 0.5, 1.0)
    ),
    "ferromagnetic-n4": ChainPathSpec(
        n_sites=4, cut=2, J=(1.0,), g=(0.05, 0.01), s_grid=(0.0, 0.01, 0.02)
    ),
    "window-n10": ChainPathSpec(
        n_sites=10, cut=5, J=(1.0,), g=(1.5, 1.0), s_grid=(0.48, 0.5, 0.52)
    ),
}


def generator_tol(spec, s, ref_scale, source_norm):
    """Agreement expected of a gap quotient H'_mn / (E_m - E_n) and of what
    is built from it: 1e-12 relative, plus the reference's own limit.  Either
    side finds the eigenvectors of two levels delta apart only to about
    eps ||H|| / delta, and the quotient divides by delta again; delta is the
    smallest level spacing above DEGENERACY_TOL."""
    w = dense_eigh(spec, s)[0]
    delta = np.diff(w)[np.diff(w) > DEGENERACY_TOL].min()
    eps = np.finfo(float).eps
    conditioning = np.abs(w[[0, -1]]).max() * max(1.0, source_norm) / delta**2
    return 1e-12 * max(1.0, ref_scale) + 10 * eps * conditioning


class TestDenseReference:
    @pytest.mark.parametrize("name", DENSE_CASES)
    def test_path_matches_dense(self, name):
        spec = DENSE_CASES[name]
        for pt in entropy_along_path(spec):
            e0, gap, entropy, rate, k_norm = dense_path_point(spec, pt.s)
            got = (pt.ground_energy, pt.gap, pt.entropy_left, pt.rate_commutator)
            for value, want in zip(got, (e0, gap, entropy, rate)):
                assert abs(value - want) <= 1e-12 * max(1.0, abs(want))
            hp_norm = np.abs(np.linalg.eigvalsh(chain_hprime(spec, pt.s).mat)[[0, -1]]).max()
            assert abs(pt.K_norm - k_norm) <= generator_tol(spec, pt.s, k_norm, hp_norm)

    @pytest.mark.parametrize("name", DENSE_CASES)
    def test_centered_generator_matches_dense(self, name):
        spec = DENSE_CASES[name]
        s = spec.s_grid[1]
        dJ, dg = spec.coupling_derivatives(s)
        for center in range(spec.n_sites):
            K = 1j * centered_generator_term(spec, s, center).R
            ref, ref_norm = dense_centered_term(spec, s, center)
            tol = generator_tol(spec, s, ref_norm, abs(dJ) + abs(dg))
            assert np.max(np.abs(K - ref)) <= tol

    @pytest.mark.parametrize("name", DENSE_CASES)
    def test_uniform_generator_matches_dense(self, name):
        # H' from chain_hprime takes the centred source's code path, with a
        # bond and a field on every site
        spec = DENSE_CASES[name]
        s, n = spec.s_grid[1], spec.n_sites
        dJ, dg = spec.coupling_derivatives(s)
        K = 1j * adiabatic_generator(build_chain_hamiltonian(spec, s), chain_hprime(spec, s)).R
        ref, ref_norm = dense_generator(spec, s, np.full(n - 1, dJ), np.full(n, dg))
        tol = generator_tol(spec, s, ref_norm, (n - 1) * abs(dJ) + n * abs(dg))
        assert np.max(np.abs(K - ref)) <= tol

    def test_ground_state_sector(self):
        # g < 0 at odd n puts the ground state in the F = -1 sector
        spec = DENSE_CASES["negative-field-n5"]
        for s in spec.s_grid:
            psi = ground_state(build_chain_hamiltonian(spec, s))[1]
            assert psi @ psi[::-1] == pytest.approx(-1.0, abs=1e-12)
        # near g = 0 the gap is the splitting of the two sectors' lowest
        # states, F = +1 below F = -1
        H = build_chain_hamiltonian(DENSE_CASES["ferromagnetic-n4"], 0.0)
        _, psi, gap = ground_state(H)
        assert 1e-5 < gap < 2e-5
        first = np.linalg.eigh(H.mat)[1][:, 1]
        assert psi @ psi[::-1] == pytest.approx(1.0, abs=1e-12)
        assert first @ first[::-1] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_zero_field_raises(self, n):
        # the two fully polarised states, one per sector, are degenerate
        spec = ChainPathSpec(n_sites=n, cut=n // 2, J=(1.0,), g=(0.0,))
        H = build_chain_hamiltonian(spec, 0.0)
        w = np.linalg.eigvalsh(H.mat)
        assert w[1] == w[0]
        with pytest.raises(GapCollapseError):
            ground_state(H)
        with pytest.raises(GapCollapseError):
            adiabatic_generator(H, chain_hprime(spec, 0.0))
        with pytest.raises(GapCollapseError):
            entropy_along_path(spec)


class TestSectorQuotients:
    """The gap quotients of a path point take one product per sector: in
    H's eigenbasis <m|H'|n> = ((g'J - gJ') / g) <m|sum ZZ|n> for m != n."""

    @staticmethod
    def quotients(H, Hp):
        """The one-product quotients, checked against the eigenbasis
        matrices u^T H'_k u of the cut of H'; compared as numerators
        H'_mn, since both sides divide by the same gaps."""
        got = chains._sector_quotients(H, Hp)
        cut = chains._sector_blocks(Hp.mat)
        scale = max(np.abs(b).max() for b in cut if b.size)
        for (w, u), block, quotients in zip(H.sectors, cut, got):
            ref = chains._divided_by_gaps(w, u.T @ block @ u)
            dE = np.abs(w[:, None] - w[None, :])
            assert np.all(np.abs(quotients - ref) * dE <= 1e-12 * scale)
        return got

    @pytest.mark.parametrize("n", (2, 3, 4, 7, 8))
    def test_match_the_cut_of_hprime(self, n):
        rng = np.random.default_rng(10 + n)
        for J, g, dJ, dg in rng.uniform(-2.0, 2.0, (3, 4)):
            g = np.copysign(max(abs(g), 0.1), g)
            got = self.quotients(chains._UniformChain(n, J, g), chains._UniformChain(n, dJ, dg))
            assert any(q.any() for q in got)

    @pytest.mark.parametrize("n", (3, 6))
    def test_source_proportional_to_h_gives_zero(self, n):
        H = chains._UniformChain(n, 0.7, 1.3)
        got = self.quotients(H, chains._UniformChain(n, 2 * 0.7, 2 * 1.3))
        assert not any(q.any() for q in got)
        # J = 1 + s, g = 2 (1 + s): H' is H / (1 + s), and psi never moves
        spec = ChainPathSpec(n_sites=n, cut=1, J=(1.0, 1.0), g=(2.0, 2.0), s_grid=(0.0, 0.5, 1.0))
        points = entropy_along_path(spec)
        assert all(pt.rate_commutator == 0.0 and pt.K_norm == 0.0 for pt in points)
        assert np.ptp([pt.entropy_left for pt in points]) < 1e-12

    def test_near_ordered_point(self):
        # J / g = 20 at s = 0, where the gap is about 1e-5
        spec = DENSE_CASES["ferromagnetic-n4"]
        got = self.quotients(build_chain_hamiltonian(spec, 0.0), chain_hprime(spec, 0.0))
        assert any(q.any() for q in got)

    @pytest.mark.parametrize("n", (2, 3, 4, 7))
    def test_zero_field_inside_the_path_raises(self, n):
        # g = s - 1/2 is zero at the grid point s = 1/2 only
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        spec = ChainPathSpec(n_sites=n, cut=1, J=(1.0,), g=(-0.5, 1.0), s_grid=grid)
        assert spec.couplings(0.5) == (1.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GapCollapseError):
                entropy_along_path(spec)


def eigvalsh_norm(S):
    """The norm as a full eigvalsh of S^T S gives it: the reference, and
    the bits ``_sector_norm`` keeps below ``_LANCZOS_WIDTH``."""
    return float(np.sqrt(np.linalg.eigvalsh(S.T @ S)[-1]))


def planted(width, top, seed):
    """A width x width matrix with singular values ``top`` and then random
    ones in [0, 0.9], with random singular vectors."""
    rng = np.random.default_rng(seed)
    sigma = np.concatenate([top, rng.uniform(0.0, 0.9, width - len(top))])
    U, _ = np.linalg.qr(rng.standard_normal((width, width)))
    V, _ = np.linalg.qr(rng.standard_normal((width, width)))
    return (U * sigma) @ V.T


class TestSectorNorm:
    """Block norms by Lanczos on S^T S at widths of at least
    ``_LANCZOS_WIDTH``, by a full eigvalsh below it."""

    @staticmethod
    def check(S):
        """``_lanczos_norm`` within 1e-12 relative of eigvalsh at any width,
        the same bits on a second call, and ``_sector_norm`` bit for bit
        eigvalsh's below ``_LANCZOS_WIDTH``."""
        ref, got = eigvalsh_norm(S), chains._lanczos_norm(S)
        assert abs(got - ref) <= 1e-12 * ref
        assert chains._lanczos_norm(S) == got
        if S.shape[1] < chains._LANCZOS_WIDTH:
            assert chains._sector_norm([S]) == ref
        else:
            assert chains._sector_norm([S]) == got

    def test_path_quotient_blocks(self):
        # n = 10 gives the four sector blocks 272, 240, 256 and 256 wide
        widths = set()
        for n in range(2, 11):
            spec = ramp_spec(n=n, cut=n // 2)
            for s in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
                for S in chains._sector_quotients(
                    build_chain_hamiltonian(spec, s), chain_hprime(spec, s)
                ):
                    if S.size:
                        widths.add(S.shape[1])
                        self.check(S)
        assert min(widths) == 1 and {240, 256, 272} <= widths

    @pytest.mark.parametrize("n", range(4, 11))
    def test_locality_shell_blocks(self, n, monkeypatch):
        # every flip block of every shell around every centre: at n = 10
        # the r = 4 and r = 5 shells give blocks 256 and 512 wide
        blocks = []
        sector_norm = chains._sector_norm
        monkeypatch.setattr(chains, "_sector_norm", lambda b: blocks.extend(b) or sector_norm(b))
        spec = ramp_spec(n=n)
        for center in range(n):
            locality_profile(centered_generator_term(spec, 0.5, center), spec, center)
        monkeypatch.undo()
        for S in blocks:
            self.check(S)
        assert max(S.shape[1] for S in blocks) == 2 ** (n - 1)

    @pytest.mark.parametrize("width", (1, 2, 7, 64, 191, 192, 193, 256, 300))
    def test_random_matrices(self, width):
        rng = np.random.default_rng(width)
        S = rng.standard_normal((width, width))
        self.check(S)
        self.check(S - S.T)

    @pytest.mark.parametrize("width", (256, 512))
    @pytest.mark.parametrize("split", (0.0, 1e-9))
    def test_planted_top_singular_values(self, width, split):
        S = planted(width, [1.0, 1.0 - split], width)
        self.check(S)
        assert abs(chains._lanczos_norm(S) - 1.0) <= 1e-12

    @pytest.mark.parametrize("width", (192, 256))
    def test_decoupled_top_pair(self, width):
        # 0.5 I but for one 2 x 2 block [[1, -1], [-1, 1]] on coordinates i, j,
        # of norm 2.  The zeros are exact, as the selection rules of the chain
        # blocks make them, so no rounding leaks into the pair: a start
        # vector with equal entries at i and j (ones, e_0 for i, j > 0, an
        # alternating sign for j = i + 2) ends at 0.5
        for i, j in ((0, 1), (0, 2), (width // 2, width - 1)):
            S = 0.5 * np.eye(width)
            S[np.ix_([i, j], [i, j])] = [[1.0, -1.0], [-1.0, 1.0]]
            self.check(S)
            assert chains._lanczos_norm(S) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("width", (192, 512))
    def test_zero_block(self, width):
        S = np.zeros((width, width))
        assert chains._lanczos_norm(S) == 0.0
        assert chains._sector_norm([S, np.zeros((0, 0))]) == 0.0


@pytest.fixture(scope="module")
def n10_default_grid():
    # the criterion-7 path at n = 10 on the default 11-point grid, where a
    # central difference of the entropy is off by more than 1 %
    spec = ChainPathSpec.from_json({"n_sites": 10, "cut": 5, "J": [1.0], "g": [1.5, 1.0]})
    return spec, entropy_along_path(spec)


class TestRateCheck:
    def test_coarse_default_grid_passes(self, n10_default_grid):
        spec, points = n10_default_grid
        assert len(points) == 11
        # the check that passed is not a loose one: the plain central
        # difference misses the commutator rate by more than 1 % somewhere
        worst = max(
            abs(pt.rate_commutator - pt.rate_finite_difference) / abs(pt.rate_commutator)
            for pt in points[1:-1]
        )
        assert worst > 1e-2

    @pytest.mark.parametrize("i", range(1, 10))
    def test_one_rate_off_by_two_percent_raises(self, n10_default_grid, i):
        spec, points = n10_default_grid
        entropies = [pt.entropy_left for pt in points]
        rates = [pt.rate_commutator for pt in points]
        _check_rates(spec.s_grid, entropies, rates)
        rates[i] *= 1.02
        with pytest.raises(TransportConsistencyError) as err:
            _check_rates(spec.s_grid, entropies, rates)
        assert err.value.bundle["s"] == spec.s_grid[i]

    def test_simpson_weights_exact_for_quadratics(self):
        for h0, h1 in ((0.1, 0.1), (0.03, 0.17), (0.4, 0.01)):
            w0, w1, w2 = _simpson_weights(h0, h1)
            for a, b, c in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.3, -2.0, 5.0)):
                f = lambda x: a + b * x + c * x**2  # noqa: E731
                exact = a * (h1 + h0) + b * (h1**2 - h0**2) / 2 + c * (h1**3 + h0**3) / 3
                assert w0 * f(-h0) + w1 * f(0.0) + w2 * f(h1) == pytest.approx(exact, rel=1e-13)

    def test_non_uniform_grid(self):
        grid = (0.0, 0.05, 0.08, 0.2, 0.21, 0.3, 0.45, 0.5)
        spec = ChainPathSpec(n_sites=6, cut=3, J=(1.0,), g=(1.5, 1.0), s_grid=grid)
        points = entropy_along_path(spec)
        entropies = [pt.entropy_left for pt in points]
        rates = [pt.rate_commutator for pt in points]
        rates[4] *= 1.02
        with pytest.raises(TransportConsistencyError):
            _check_rates(grid, entropies, rates)


class TestEntryNumbers:
    """The chain entry points read s and the centre as ``input_number``
    reads numbers from outside the program."""

    def test_integral_float_centre_is_that_site(self):
        spec = ramp_spec(n=4)
        K = centered_generator_term(spec, 0.5, 2.0)
        assert np.array_equal(K.R, centered_generator_term(spec, 0.5, 2).R)
        prof = locality_profile(K, spec, 2.0)
        assert prof.center == 2 and type(prof.center) is int
        assert np.array_equal(prof.strengths, locality_profile(K, spec, 2).strengths)

    @pytest.mark.parametrize("center", (2.7, True, "2", None))
    def test_centre_not_an_integer_rejected(self, center):
        spec = ramp_spec(n=4)
        K = centered_generator_term(spec, 0.5, 2)
        with pytest.raises(ValueError, match="center must be an integer"):
            centered_generator_term(spec, 0.5, center)
        with pytest.raises(ValueError, match="center must be an integer"):
            locality_profile(K, spec, center)

    @pytest.mark.parametrize("s", (True, "0.5", None, [0.5]))
    def test_s_not_a_number_rejected(self, s):
        spec = ramp_spec(n=4)
        for build in (build_chain_hamiltonian, chain_hprime):
            with pytest.raises(ValueError, match="s must be a number"):
                build(spec, s)
        with pytest.raises(ValueError, match="s must be a number"):
            centered_generator_term(spec, s, 2)

    @pytest.mark.parametrize("s", (1.5, -0.1, float("nan")))
    def test_s_outside_the_path_rejected(self, s):
        # nan is no point of the path: input_number rejects it as not finite
        spec = ramp_spec(n=4)
        match = "outside" if np.isfinite(s) else "s must be a finite number"
        for build in (build_chain_hamiltonian, chain_hprime):
            with pytest.raises(ValueError, match=match):
                build(spec, s)
        with pytest.raises(ValueError, match=match):
            centered_generator_term(spec, s, 2)

    def test_numpy_numbers_accepted(self):
        spec = ramp_spec(n=4)
        K = centered_generator_term(spec, np.float64(0.5), np.int64(1))
        assert np.array_equal(K.R, centered_generator_term(spec, 0.5, 1).R)
        assert chain_hprime(spec, np.float32(0.5)) == chain_hprime(spec, 0.5)


def generator_forms(n):
    """The generators of a ramp spec at n sites and s = 0.5: the uniform H'
    and every centred source."""
    spec = ramp_spec(n=n, cut=n // 2, pts=3)
    H = build_chain_hamiltonian(spec, 0.5)
    yield "uniform", adiabatic_generator(H, chain_hprime(spec, 0.5))
    for center in range(n):
        yield f"centre {center}", centered_generator_term(spec, 0.5, center)


class TestGeneratorForm:
    """The generator is R as built: real, C-contiguous, read-only, exactly
    antisymmetric and flip-symmetric, and no complex form of it."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_r_as_built(self, n):
        for name, K in generator_forms(n):
            R = K.R
            assert R.dtype == np.float64 and R.shape == (2**n, 2**n), name
            assert R.flags.c_contiguous and not R.flags.writeable, name
            assert np.array_equal(R, -R.T), name
            assert np.array_equal(R, R[::-1, ::-1]), name
            assert not hasattr(K, "mat"), name


class TestOneProfile:
    """A built generator's R is profiled as built, from its flip blocks."""

    def test_first_trace_is_on_the_whole_r(self, monkeypatch):
        spec = ramp_spec(n=6)
        K = centered_generator_term(spec, 0.5, 2)
        traced = []
        trace = chains.partial_trace_matrix
        monkeypatch.setattr(chains, "partial_trace_matrix", lambda m, *a: traced.append(m) or trace(m, *a))
        locality_profile(K, spec, 2)
        assert traced[0] is K.R

    @pytest.mark.parametrize("n", (2, 3, 5, 8))
    def test_shell_blocks_are_the_fold_of_the_shell(self, n):
        # the shell's flip blocks from its upper rows against _fold of the
        # whole shell, formed as a copy of cur with inner taken off each
        # diagonal block, bit for bit, on every ball of every centre
        spec = ramp_spec(n=n, cut=1)
        for center in range(n):
            cur, lo, hi = centered_generator_term(spec, 0.5, center).R, 0, n - 1
            for r in range(max(center, n - 1 - center), -1, -1):
                in_lo, in_hi = (max(0, center - r + 1), min(n - 1, center + r - 1)) if r else (center, center - 1)
                dims = (2 ** (in_lo - lo), 2 ** (in_hi - in_lo + 1), 2 ** (hi - in_hi))
                inner = partial_trace_matrix(cur, dims, [1]) / (dims[0] * dims[2])
                shell = cur.copy()
                np.einsum("iakibk->ikab", shell.reshape(dims + dims))[...] -= inner
                got = chains._shell_flip_blocks(cur, inner, dims)
                for block, ref in zip(got, chains._fold(shell)):
                    assert block.tobytes() == ref.tobytes()
                cur, lo, hi = inner, in_lo, in_hi
