import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import macrolab.operators as operators
from macrolab.coarsegrain import _CHUNK_ENTRIES
from macrolab.operators import (_TAG_DENSITY, _TAG_HERMITIAN, _TAG_KRAUS,
                                _TAG_OBSERVABLES, _TAG_TEST_OP, _TAG_UNITARY,
                                _stream_states, _streams, apply_channels,
                                check_hermitian, eig,
                                frechet_exp, hermitian_part, kron,
                                kraus_completeness_error, partial_trace,
                                random_densities, random_density,
                                random_hermitian, random_kraus,
                                random_kraus_sets, random_observable_sets,
                                random_observables, random_test_operator,
                                random_test_operators, random_unitaries,
                                random_unitary, tensor_power)
from oracles import (depolarizing_kraus, gaussian, op_exp, op_log_on_support,
                     pos_neg_parts, solo_apply_channel, solo_density,
                     solo_kraus, solo_observables, solo_test_operator,
                     solo_unitary, trace_norm)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


class TestCheckHermitian:
    # eig reads only the Hermitian part; operators are validated where they
    # enter the library
    def test_rejects_non_hermitian(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="asymmetry"):
            check_hermitian(bad)
        with pytest.raises(ValueError, match="asymmetry"):
            check_hermitian(np.stack([np.eye(2, dtype=complex), bad]))
        check_hermitian(np.stack([np.eye(2, dtype=complex), SZ]))

    def test_rejects_non_square(self):
        for shape in ((3,), (2, 3), (4, 2, 3)):
            with pytest.raises(ValueError, match="square"):
                check_hermitian(np.zeros(shape))


class TestEig:
    def test_identity(self):
        w, _ = eig(np.eye(3, dtype=complex))
        np.testing.assert_allclose(w, [1, 1, 1])

    def test_pauli_x(self):
        w, _ = eig(SX)
        np.testing.assert_allclose(w, [-1, 1])

    def test_reconstruction(self):
        h = random_hermitian(11, 4)
        w, v = eig(h)
        np.testing.assert_allclose((v * w) @ v.conj().T, h, atol=1e-10)

    def test_stack_matches_each_element(self):
        hs = np.stack([random_hermitian(s, 3) for s in range(5)])
        w, v = eig(hs)
        for h, wi, vi in zip(hs, w, v):
            w1, v1 = eig(h)
            np.testing.assert_array_equal(wi, w1)
            np.testing.assert_array_equal(vi, v1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([2, 3, 4, 8]))
    def test_reconstruction_seeded(self, seed, dim):
        h = random_hermitian(seed, dim)
        w, v = eig(h)
        assert np.linalg.norm((v * w) @ v.conj().T - h) < 1e-10 * dim
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-10


class TestOpFunctions:
    def test_exp_zero(self):
        np.testing.assert_allclose(op_exp(np.zeros((3, 3), dtype=complex)),
                                   np.eye(3), atol=1e-14)

    def test_exp_diagonal(self):
        np.testing.assert_allclose(op_exp(SZ), np.diag([np.e, 1 / np.e]),
                                   atol=1e-12)

    def test_log_round_trip(self):
        rho = random_density(3, 4)
        np.testing.assert_allclose(op_exp(op_log_on_support(rho)), rho,
                                   atol=1e-10)

    def test_log_rejects_negative(self):
        with pytest.raises(ValueError, match="non-PSD"):
            op_log_on_support(SZ)

    def test_log_kernel_maps_to_zero(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = op_log_on_support(rho)
        np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-12)


class TestFrechetExp:
    def test_at_zero(self):
        e = random_hermitian(1, 3)
        np.testing.assert_allclose(frechet_exp(np.zeros((3, 3), dtype=complex), e),
                                   e, atol=1e-12)

    def test_commuting(self):
        a = np.diag([0.3, -0.7, 1.1]).astype(complex)
        e = np.diag([1.0, 2.0, 3.0]).astype(complex)
        np.testing.assert_allclose(frechet_exp(a, e), op_exp(a) @ e, atol=1e-12)

    def test_finite_difference(self):
        a, e = random_hermitian(8, 3), random_hermitian(8, 3, index=1)
        h = 1e-5
        fd = (op_exp(a + h * e) - op_exp(a - h * e)) / (2 * h)
        np.testing.assert_allclose(frechet_exp(a, e), fd, atol=1e-7)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_finite_difference_seeded(self, seed):
        a = random_hermitian(seed, 3)
        e = random_hermitian(seed, 3, index=1)
        h = 1e-5
        fd = (op_exp(a + h * e) - op_exp(a - h * e)) / (2 * h)
        assert np.max(np.abs(frechet_exp(a, e) - fd)) < 1e-7


class TestTensorPower:
    def test_single_copy(self):
        rho = random_density(2, 3)
        np.testing.assert_array_equal(tensor_power(rho, 1), rho)

    def test_classical_product(self):
        p = 0.3
        rho = np.diag([p, 1 - p]).astype(complex)
        expected = np.diag([p * p, p * (1 - p), (1 - p) * p, (1 - p) ** 2])
        np.testing.assert_allclose(tensor_power(rho, 2), expected, atol=1e-14)

    def test_spectral_product(self):
        rho = random_density(9, 2)
        w = np.linalg.eigvalsh(rho)
        out = tensor_power(rho, 3)
        assert abs(np.trace(out).real - 1) < 1e-12
        expected = sorted(a * b * c for a in w for b in w for c in w)
        np.testing.assert_allclose(np.linalg.eigvalsh(out), expected,
                                   atol=1e-12)

    def test_cap(self):
        with pytest.raises(ValueError, match="65536"):
            tensor_power(random_density(0, 4), 8)

    def test_matches_np_kron_chain(self):
        for d in (2, 3):
            rho = random_density(10, d)
            expected = rho
            for n in range(1, 5):
                np.testing.assert_array_equal(tensor_power(rho, n), expected)
                expected = np.kron(expected, rho)


class TestKron:
    def test_matrices_match_np_kron(self):
        for da, db in ((2, 2), (2, 3), (3, 2), (3, 3)):
            a, b = random_hermitian(11, da), random_density(11, db)
            np.testing.assert_array_equal(kron(a, b), np.kron(a, b))
        a = random_hermitian(11, 4)[:2, :3]
        np.testing.assert_array_equal(kron(a, a.T), np.kron(a, a.T))

    def test_stacks_match_np_kron(self):
        # a (m, d, d) stack against one matrix, on either side
        for d in (2, 3):
            stack = np.stack([random_hermitian(12, d, index=i)
                              for i in range(3)])
            mat = random_density(12, d)
            for a, b in ((stack, mat), (mat, stack)):
                out = kron(a, b)
                assert out.shape == (3, d * d, d * d)
                np.testing.assert_array_equal(out, np.kron(a, b))


def partial_trace_oracle(rho, da, db, keep):
    out_dim = da if keep == "A" else db
    out = np.zeros((out_dim, out_dim), dtype=complex)
    for i in range(out_dim):
        for j in range(out_dim):
            for k in range(db if keep == "A" else da):
                if keep == "A":
                    out[i, j] += rho[i * db + k, j * db + k]
                else:
                    out[i, j] += rho[k * db + i, k * db + j]
    return out


class TestPartialTrace:
    def test_product_recovers_factor(self):
        ra, rb = random_density(4, 2), random_density(4, 3, index=1)
        rho = np.kron(ra, rb)
        np.testing.assert_allclose(partial_trace(rho, (2, 3), "A"), ra,
                                   atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, (2, 3), "B"), rb,
                                   atol=1e-12)

    def test_bell_state(self):
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(partial_trace(rho, (2, 2), "A"),
                                   np.eye(2) / 2, atol=1e-12)

    def test_double_sum_oracle(self):
        rho = random_density(6, 6)
        for keep in ("A", "B"):
            np.testing.assert_allclose(
                partial_trace(rho, (2, 3), keep),
                partial_trace_oracle(rho, 2, 3, keep), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            partial_trace(random_density(0, 4), (2, 3), "A")


class TestPosNegParts:
    def test_positive_input(self):
        rho = random_density(2, 3)
        pos, neg = pos_neg_parts(rho)
        np.testing.assert_allclose(pos, rho, atol=1e-12)
        np.testing.assert_allclose(neg, np.zeros_like(neg), atol=1e-12)

    def test_pauli_z(self):
        pos, neg = pos_neg_parts(SZ)
        np.testing.assert_allclose(pos, np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(neg, np.diag([0.0, 1.0]), atol=1e-14)

    def test_traceless_symmetry(self):
        h = random_hermitian(13, 4)
        h = h - np.trace(h) / 4 * np.eye(4)
        pos, neg = pos_neg_parts(h)
        assert abs(np.trace(pos).real - np.trace(neg).real) < 1e-10
        assert abs(trace_norm(h)
                   - np.trace(pos).real - np.trace(neg).real) < 1e-10

    def test_orthogonal_split(self):
        h = random_hermitian(14, 3)
        pos, neg = pos_neg_parts(h)
        np.testing.assert_allclose(pos - neg, h, atol=1e-12)
        np.testing.assert_allclose(pos @ neg, np.zeros((3, 3)), atol=1e-12)


class TestRandomSuite:
    def test_determinism(self):
        assert np.array_equal(random_density(99, 4, index=7),
                              random_density(99, 4, index=7))
        assert np.array_equal(random_unitary(99, 3, index=2),
                              random_unitary(99, 3, index=2))
        assert not np.array_equal(random_density(99, 4, index=7),
                                  random_density(99, 4, index=8))

    def test_density_invariants(self):
        rho = random_density(21, 4)
        w = np.linalg.eigvalsh(rho)
        assert w[0] >= -1e-12
        assert abs(np.sum(w) - 1) < 1e-10

    def test_unitary(self):
        u = random_unitary(5, 4)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_observables_orthonormal(self):
        obs = random_observables(17, 3, 3)
        for a, ga in enumerate(obs):
            assert abs(np.trace(ga).real) < 1e-12
            for b, gb in enumerate(obs):
                assert abs(np.trace(ga @ gb).real - (a == b)) < 1e-10

    def test_observables_count_is_bounded(self):
        # the traceless Hermitian operators span dim^2 - 1 dimensions; more
        # must raise rather than loop in the Gram-Schmidt redraw
        assert len(random_observables(3, 2, 3)) == 3
        for dim, m in ((2, 4), (3, 9), (2, -1)):
            with pytest.raises(ValueError, match="do not fit"):
                random_observables(3, dim, m)

    def test_test_operator_spectrum(self):
        w = np.linalg.eigvalsh(random_test_operator(31, 5))
        assert w[0] >= -1e-12 and w[-1] <= 1 + 1e-12

    # the kg battery's d^N among them
    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 9, 27, 128])
    def test_test_operator_stack_matches_solo_draws(self, dim):
        k = 3 if dim == 128 else 7
        stack = random_test_operators(31, dim, range(k))
        assert stack.shape == (k, dim, dim)
        for i in range(k):
            assert np.array_equal(stack[i],
                                  random_test_operator(31, dim, index=i))
            assert np.array_equal(stack[i], solo_test_operator(31, dim, i))

    def test_test_operator_stack_equals_its_chunks(self):
        # the positivity diagnostic's shapes: 100 trials at D = 27, drawn in
        # chunks of _CHUNK_ENTRIES // 27**2 = 22
        chunk = _CHUNK_ENTRIES // 27 ** 2
        stack = random_test_operators(42, 27, range(100))
        chunks = [random_test_operators(42, 27, range(s, min(s + chunk, 100)))
                  for s in range(0, 100, chunk)]
        assert np.array_equal(stack, np.concatenate(chunks))
        for i in (0, 21, 22, 99):
            assert np.array_equal(stack[i], solo_test_operator(42, 27, i))

    def test_kraus_completeness(self):
        kraus = random_kraus(12, 2, 3)
        assert kraus_completeness_error(kraus) < 1e-10


# unsorted, with a repeat and a large index
INDICES = [7, 0, 7, 10**12, 3]
STACK_DIMS = [2, 3, 4, 8, 27]


def same(stack, solo):
    return all(np.array_equal(a, b) for a, b in zip(stack, solo, strict=True))


TAGS = [_TAG_DENSITY, _TAG_UNITARY, _TAG_HERMITIAN, _TAG_OBSERVABLES,
        _TAG_TEST_OP, _TAG_KRAUS]
# one to four entropy words each: a row of seed, tag and index can pass the
# four-word pool, which takes SeedSequence's extra mixing loop
WIDE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 10**30]
WIDE_INDICES = [0, 7, 2**32, 10**12, 10**25]


class TestStreams:
    """The stacked streams against numpy's own SeedSequence and default_rng,
    so that a numpy release that changed either fails here."""

    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_state_words_match_seed_sequence(self, seed):
        for tag in TAGS:
            want = [np.random.SeedSequence([seed, tag, i]).generate_state(
                4, np.uint64) for i in WIDE_INDICES]
            # one stack that mixes word counts, and each index alone
            assert same(_stream_states(seed, tag, WIDE_INDICES), want)
            for i, words in zip(WIDE_INDICES, want):
                assert same(_stream_states(seed, tag, [i]), [words])

    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_streams_match_default_rng(self, seed):
        for tag in TAGS:
            for rng, i in zip(_streams(seed, tag, WIDE_INDICES), WIDE_INDICES,
                              strict=True):
                fresh = np.random.default_rng([seed, tag, i])
                assert rng.bit_generator.state == fresh.bit_generator.state
                assert np.array_equal(rng.standard_normal(4),
                                      fresh.standard_normal(4))

    def test_index_array_types(self):
        # fixed-width arrays take one path, Python ints beyond 64 bits
        # another; numpy's unsigned 64-bit ints reach two words
        for indices in (np.arange(5), np.array([2**64 - 1, 3], np.uint64),
                        range(3), (2**64, 1)):
            want = [np.random.SeedSequence([3, 1, int(i)]).generate_state(
                4, np.uint64) for i in indices]
            assert same(_stream_states(3, 1, indices), want)
            assert same(_stream_states(np.int64(3), np.uint8(1), indices),
                        want)

    def test_empty_stack(self):
        assert _stream_states(5, 1, []).shape == (0, 4)
        assert _stream_states(5, 1, np.arange(0)).shape == (0, 4)
        assert _streams(5, 1, ()) == []

    @pytest.mark.parametrize("seed, indices", [
        (-1, [3]), (5, [3, -1]), (5, np.array([0, -2])), (5, [-10**25])])
    def test_negative_seed_or_index_raises(self, seed, indices):
        with pytest.raises(ValueError, match="non-negative"):
            _stream_states(seed, 1, indices)
        with pytest.raises(ValueError, match="non-negative"):
            np.random.default_rng([seed, 1, *[int(i) for i in indices]])

    @pytest.mark.parametrize("seed, indices", [
        (5.0, [3]), (5, [2.5]), (5, [2.0]), (5, [3, np.float64(2.0)]),
        (5, np.array([1.5, 2.0])), (2**64 + 0.5, [3])])
    def test_non_integer_seed_or_index_raises(self, seed, indices):
        # as SeedSequence: a float is refused even when it is integral
        with pytest.raises(TypeError, match="seed must be integer"):
            _stream_states(seed, 1, indices)
        with pytest.raises(TypeError, match="seed must be integer"):
            np.random.default_rng([seed, 1, *indices])


class TestStackedDraws:
    """Each stacked draw equals a loop of solo draws, one stream per index,
    bit for bit; the solo draws in oracles.py are the code the stacks
    replaced."""

    @pytest.mark.parametrize("dim", STACK_DIMS)
    def test_densities_and_unitaries(self, dim):
        rho = random_densities(5, dim, INDICES)
        u = random_unitaries(5, dim, INDICES)
        assert rho.shape == u.shape == (len(INDICES), dim, dim)
        assert same(rho, [solo_density(5, dim, i) for i in INDICES])
        assert same(u, [solo_unitary(5, dim, i) for i in INDICES])
        assert np.array_equal(random_density(5, dim, index=3), rho[4])
        assert np.array_equal(random_unitary(5, dim, index=3), u[4])

    @pytest.mark.parametrize("dim", STACK_DIMS)
    def test_observable_sets(self, dim):
        for m in (1, 2, 3):
            sets = random_observable_sets(5, dim, m, INDICES)
            assert sets.shape == (len(INDICES), m, dim, dim)
            for got, i in zip(sets, INDICES):
                assert same(got, solo_observables(5, dim, m, i))
            assert same(random_observables(5, dim, m, index=3), sets[4])

    @pytest.mark.parametrize("dim", STACK_DIMS)
    def test_kraus_sets(self, dim):
        for n_ops in (1, 2, 3, 4):
            sets = random_kraus_sets(5, dim, n_ops, INDICES)
            assert sets.shape == (len(INDICES), n_ops, dim, dim)
            for got, i in zip(sets, INDICES):
                assert same(got, solo_kraus(5, dim, n_ops, i))
            assert same(random_kraus(5, dim, n_ops, index=3), sets[4])

    def test_empty_stacks(self):
        for draw in (random_densities, random_unitaries,
                     random_test_operators):
            assert draw(5, 3, []).shape == (0, 3, 3)
        assert random_observable_sets(5, 3, 2, []).shape == (0, 2, 3, 3)
        assert random_kraus_sets(5, 3, 2, []).shape == (0, 2, 3, 3)
        assert apply_channels(np.zeros((0, 3, 3), complex),
                              np.zeros((0, 2, 3, 3), complex)).shape \
            == (0, 3, 3)

    def test_seed_of_several_words(self):
        seed = 2**64 + 5
        assert same(random_densities(seed, 3, INDICES),
                    [solo_density(seed, 3, i) for i in INDICES])
        assert same(random_test_operators(seed, 3, INDICES),
                    [solo_test_operator(seed, 3, i) for i in INDICES])
        for got, i in zip(random_observable_sets(seed, 3, 2, INDICES),
                          INDICES):
            assert same(got, solo_observables(seed, 3, 2, i))
        rng = np.random.default_rng([seed, _TAG_HERMITIAN, 10**12])
        assert np.array_equal(random_hermitian(seed, 3, index=10**12),
                              hermitian_part(gaussian(rng, 3, 3)))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_degenerate_observable_draw_is_drawn_again(self, dim,
                                                        monkeypatch):
        # the first Gaussian of index 7's stream becomes 2.5 * 1, which
        # vanishes against the identity; that element draws again from its
        # own stream, the others are untouched
        fresh = np.random.default_rng([5, _TAG_OBSERVABLES, 7]).bit_generator
        real = operators._gaussians
        calls = []

        def draw(rng, d, cols):
            first = rng.bit_generator.state == fresh.state
            g = gaussian(rng, d, cols)
            return 2.5 * np.eye(d, dtype=complex) if first else g

        def draws(rngs, shape):
            # each stream's draw as draw makes it, one entry in calls each
            first = [rng.bit_generator.state == fresh.state for rng in rngs]
            g = real(rngs, shape)
            calls.extend(first)
            g[np.array(first, dtype=bool)] = 2.5 * np.eye(shape[0])
            return g
        clean = random_observable_sets(5, dim, 2, INDICES)
        monkeypatch.setattr(operators, "_gaussians", draws)
        sets = random_observable_sets(5, dim, 2, INDICES)
        # two members for five elements, plus one redraw for each 7
        assert sum(calls) == 2 and len(calls) == 12
        for got, was, i in zip(sets, clean, INDICES):
            assert same(got, solo_observables(5, dim, 2, i, draw=draw))
            assert same(got, was) == (i != 7)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_apply_channels_matches_each_channel(self, dim):
        for n_ops in (1, 2, 3, 4):
            kraus = random_kraus_sets(5, dim, n_ops, INDICES)
            rho = random_densities(6, dim, range(len(INDICES)))
            out = apply_channels(rho, kraus)
            assert same(out, [solo_apply_channel(r, k)
                              for r, k in zip(rho, kraus)])
            assert same(out, [apply_channels(r[None], k[None])[0]
                              for r, k in zip(rho, kraus)])

    def test_apply_channels_rejects_an_incomplete_set(self):
        kraus = random_kraus_sets(5, 3, 2, range(3))
        kraus[1, 0] *= 0.5
        rho = random_densities(6, 3, range(3))
        with pytest.raises(ValueError, match="incomplete") as stacked:
            apply_channels(rho, kraus)
        with pytest.raises(ValueError, match="incomplete") as solo:
            solo_apply_channel(rho[1], kraus[1])
        assert str(stacked.value) == str(solo.value)
        with pytest.raises(ValueError, match="incomplete"):
            apply_channels(rho[[1]], kraus[[1]])
        apply_channels(rho[[0, 2]], kraus[[0, 2]])


class TestApplyChannel:
    def test_identity_channel(self):
        rho = random_density(2, 3)
        identity = np.eye(3, dtype=complex)[None, None]
        np.testing.assert_allclose(apply_channels(rho[None], identity)[0],
                                   rho, atol=1e-14)

    def test_full_depolarization(self):
        rho = random_density(2, 3)
        kraus = np.array(depolarizing_kraus(3))[None]
        np.testing.assert_allclose(apply_channels(rho[None], kraus)[0],
                                   np.eye(3) / 3, atol=1e-12)

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError, match="incomplete"):
            apply_channels(random_density(0, 2)[None],
                           0.5 * np.eye(2, dtype=complex)[None, None])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_output_valid_density(self, seed, rank):
        rho = random_density(seed, 3)
        out = apply_channels(rho[None], random_kraus(seed, 3, rank)[None])[0]
        assert abs(np.trace(out).real - 1) < 1e-10
        assert np.linalg.eigvalsh(out)[0] >= -1e-10
