import dataclasses
import json
import math

import numpy as np
import pytest

from vlqc.codec import (
    Codebook,
    SourceEnsemble,
    SourceMessage,
    build_codebook,
    decode,
    density_matrix,
    encode,
    encode_many,
    select_independent,
)
from vlqc.ensemble_io import parse_ensemble
from vlqc.linalg import hermitian_eigenvalues, normalize
from vlqc.message_space import RegisterSpec, VariableLengthState, significant_length
from vlqc.sidechannel import LengthDistribution, build_huffman
from vlqc.reference_example import (
    EXPECTED_BASE_LENGTHS,
    EXPECTED_BASIS,
    EXPECTED_CODE_LENGTHS,
    EXPECTED_DENSITY_MATRIX,
    EXPECTED_INDEPENDENT_IDS,
    reference_codebook,
    reference_ensemble,
)
from vlqc.protocol import run_session
from vlqc.verify import (
    check_codebook_consistency,
    near_dependent_ensemble,
    random_ensemble,
    random_units_in_span,
)


@pytest.fixture(scope="module")
def ensemble():
    return reference_ensemble()


@pytest.fixture(scope="module")
def codebook():
    return reference_codebook()


def test_select_independent_reference_order(ensemble):
    assert tuple(m.id for m in select_independent(ensemble)) == EXPECTED_INDEPENDENT_IDS


def test_select_independent_orthogonal_states_all_kept():
    eye = np.eye(3, dtype=complex)
    ens = SourceEnsemble(
        messages=(
            SourceMessage("x", eye[0], 0.2),
            SourceMessage("y", eye[1], 0.5),
            SourceMessage("z", eye[2], 0.3),
        ),
        ambient_dim=3,
    )
    assert [m.id for m in select_independent(ens)] == ["y", "z", "x"]


def test_select_independent_drops_duplicate():
    v = np.array([1, 2], dtype=complex)
    ens = SourceEnsemble(
        messages=(SourceMessage("first", v, 0.5), SourceMessage("second", v.copy(), 0.5)),
        ambient_dim=2,
    )
    assert [m.id for m in select_independent(ens)] == ["first"]


def test_codebook_register_and_lengths(codebook):
    assert codebook.spec == RegisterSpec(k=2, r=2)
    assert codebook.code_dim == 4
    assert codebook.code_lengths == EXPECTED_CODE_LENGTHS


def test_codebook_lengths_are_numeral_lengths(codebook):
    for i, length in enumerate(codebook.code_lengths, start=1):
        assert length == (math.ceil(math.log2(i)) if i > 1 else 0)
        assert length == significant_length(i - 1, 2)


def test_encoder_matches_reference_matrix(codebook):
    np.testing.assert_allclose(codebook.encoder.real, EXPECTED_BASIS, atol=1e-5)
    np.testing.assert_allclose(codebook.encoder.imag, 0, atol=1e-12)


def test_decoder_is_conjugate_transpose(codebook):
    np.testing.assert_allclose(codebook.decoder, codebook.encoder.conj().T)
    np.testing.assert_allclose(codebook.decoder.real, EXPECTED_BASIS.T, atol=1e-5)


def test_decoder_inverts_encoder_on_span(codebook):
    np.testing.assert_allclose(codebook.decoder @ codebook.encoder, np.eye(4), atol=1e-9)


def test_base_length_table(codebook):
    assert codebook.base_lengths == EXPECTED_BASE_LENGTHS


def test_encode_most_probable_message(ensemble, codebook):
    state = encode(codebook, ensemble.find("a").unit_amps())
    np.testing.assert_allclose(state.amps, [1, 0, 0, 0], atol=1e-12)


def test_encode_second_basis_vector(codebook):
    state = encode(codebook, codebook.basis[1])
    np.testing.assert_allclose(state.amps, [0, 1, 0, 0], atol=1e-12)


def test_encode_rejects_vector_outside_span():
    ens = SourceEnsemble(
        messages=(
            SourceMessage("x", np.array([1, 0, 0], dtype=complex), 0.6),
            SourceMessage("y", np.array([0, 1, 0], dtype=complex), 0.4),
        ),
        ambient_dim=3,
    )
    cb = build_codebook(ens, k=2)
    with pytest.raises(ValueError, match="source space"):
        encode(cb, np.array([0, 0, 1], dtype=complex))


# a and b span a two-dimensional code in C^4; c = 2b - a lies in their span, e does not
SPAN_A = np.array([1, 1, 1, 1], dtype=complex)
SPAN_B = np.array([1, 2, 1, 1], dtype=complex)
SPAN_E = np.array([1, 0, 1, 0], dtype=complex)


@pytest.mark.parametrize(
    "x, outside, accepted",
    [
        pytest.param(2 * SPAN_B - SPAN_A, 0.0, True, id="c=2b-a"),
        pytest.param(2 * SPAN_B - SPAN_A, 1e-7, True, id="c+1e-7"),
        pytest.param(2 * SPAN_B - SPAN_A, 1e-5, False, id="c+1e-5"),
        pytest.param(SPAN_E, 0.0, False, id="e"),
    ],
)
def test_encode_refuses_states_whose_codeword_is_not_unit(x, outside, accepted):
    # with w a unit orthogonal to the span, the codeword of sqrt(1 - t^2) c + t w
    # has norm sqrt(1 - t^2): unit within UNIT_TOL only for t below about
    # sqrt(2 * UNIT_TOL) = 1.4e-6
    cb = build_codebook(SourceEnsemble((SourceMessage("a", SPAN_A, 0.6), SourceMessage("b", SPAN_B, 0.4)), 4))
    w = normalize(SPAN_E)
    w = normalize(w - (cb.basis.conj() @ w) @ cb.basis)
    x = math.sqrt(1 - outside**2) * normalize(x) + outside * w
    # one row outside the span refuses the whole stack
    stack = np.array([normalize(SPAN_A), x, normalize(SPAN_B)])
    if accepted:
        assert abs(np.vdot(x, decode(cb, encode(cb, x)))) ** 2 >= 1 - 1e-12
        assert encode_many(cb, stack).shape == (3, cb.spec.dim)
    else:
        with pytest.raises(ValueError, match="vector lies outside the source space"):
            encode(cb, x)
        with pytest.raises(ValueError, match="vector lies outside the source space"):
            encode_many(cb, stack)


def test_encode_rejects_non_unit_input(codebook):
    with pytest.raises(ValueError, match="unit"):
        encode(codebook, np.array([1, 1, 1, 1], dtype=complex))


@pytest.mark.parametrize("scale, accepted", [(1 + 5e-13, True), (1 - 5e-13, True), (1 + 2e-12, False), (1 - 2e-12, False)])
def test_encode_many_unit_margin(codebook, scale, accepted):
    # one row of the stack off by more than UNIT_TOL refuses the whole stack
    x = codebook.basis.copy()
    x[2] *= scale
    if accepted:
        assert encode_many(codebook, x).shape == (4, codebook.spec.dim)
    else:
        with pytest.raises(ValueError, match="encode input must be a unit vector"):
            encode_many(codebook, x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_encode_many_rejects_nan_and_inf_rows(codebook, bad):
    x = codebook.basis.copy()
    x[1, 0] = bad
    with pytest.raises(ValueError, match="encode input must be a unit vector"):
        encode_many(codebook, x)


def test_encode_many_of_no_rows_is_empty(codebook):
    assert encode_many(codebook, np.zeros((0, 4), dtype=complex)).shape == (0, codebook.spec.dim)


def test_decode_codeword_recovers_message(ensemble, codebook):
    state = VariableLengthState(codebook.spec, np.array([1, 0, 0, 0], dtype=complex))
    np.testing.assert_allclose(decode(codebook, state), ensemble.find("a").unit_amps(), atol=1e-12)


def test_decode_encode_round_trip(ensemble, codebook):
    for msg in ensemble.messages:
        x = msg.unit_amps()
        decoded = decode(codebook, encode(codebook, x))
        np.testing.assert_allclose(decoded, x, atol=1e-10)


def test_decode_rejects_states_off_code_space():
    eye = np.eye(3, dtype=complex)
    ens = SourceEnsemble(
        messages=tuple(SourceMessage(f"m{i}", eye[i], 1 / 3) for i in range(3)),
        ambient_dim=3,
    )
    cb = build_codebook(ens, k=2)  # d = 3 inside a 2-qubit register
    assert cb.spec.r == 2
    bad = VariableLengthState(cb.spec, np.array([0, 0, 0, 1], dtype=complex))
    with pytest.raises(ValueError, match="code space"):
        decode(cb, bad)


def test_round_trip_preserves_phase_factor(codebook):
    rng = np.random.default_rng(7)
    (x,) = random_units_in_span(rng, codebook.basis, 1)
    phase = np.exp(1j * 0.37)
    decoded = decode(codebook, encode(codebook, phase * x))
    np.testing.assert_allclose(decoded, phase * x, atol=1e-10)


def test_isometry_on_random_span_vectors(codebook):
    rng = np.random.default_rng(13)
    pairs = random_units_in_span(rng, codebook.basis, 2000)
    for x, y in zip(pairs[0::2], pairs[1::2]):
        lhs = np.vdot(codebook.encoder @ x, codebook.encoder @ y)
        assert abs(lhs - np.vdot(x, y)) <= 1e-9


def test_losslessness_on_random_span_vectors(codebook):
    rng = np.random.default_rng(17)
    for x in random_units_in_span(rng, codebook.basis, 1000):
        decoded = decode(codebook, encode(codebook, x))
        assert abs(np.vdot(x, decoded)) ** 2 >= 1 - 1e-12


def test_base_length_soundness(ensemble, codebook):
    for msg in ensemble.messages:
        state = encode(codebook, msg.unit_amps())
        base = codebook.base_lengths[msg.id]
        tail = state.amps[codebook.spec.k**base :]
        if tail.size:
            assert float(np.max(np.abs(tail))) <= 1e-12


def test_density_matrix_reference_entries(ensemble):
    sigma = density_matrix(ensemble).matrix
    np.testing.assert_allclose(sigma.real, EXPECTED_DENSITY_MATRIX, atol=1e-5)
    np.testing.assert_allclose(sigma.imag, 0, atol=1e-12)


def test_density_matrix_pure_state_is_projector():
    v = normalize(np.array([1, 1j], dtype=complex))
    ens = SourceEnsemble(messages=(SourceMessage("x", v, 1.0),), ambient_dim=2)
    sigma = density_matrix(ens).matrix
    np.testing.assert_allclose(sigma @ sigma, sigma, atol=1e-12)
    assert np.trace(sigma) == pytest.approx(1)


def test_density_matrix_uniform_orthonormal_is_maximally_mixed():
    eye = np.eye(4, dtype=complex)
    ens = SourceEnsemble(
        messages=tuple(SourceMessage(f"m{i}", eye[i], 0.25) for i in range(4)),
        ambient_dim=4,
    )
    np.testing.assert_allclose(density_matrix(ens).matrix, np.eye(4) / 4, atol=1e-12)


def test_code_length_operator_reference(codebook, ensemble):
    # the code-length observable sum_i L_i |omega_i><omega_i|, from code_lengths
    assert codebook.code_lengths == (0, 1, 2, 2)
    sigma = density_matrix(ensemble).matrix
    in_ambient = (codebook.basis.T * np.array(codebook.code_lengths)) @ codebook.basis.conj()
    mean_measured = float(np.real(np.trace(sigma @ in_ambient)))
    avg_base = sum(m.probability * codebook.base_lengths[m.id] for m in ensemble.messages)
    assert mean_measured <= avg_base + 1e-12
    assert avg_base == pytest.approx(0.5, abs=1e-12)


def test_probabilities_must_sum_to_one():
    v = np.array([1, 0], dtype=complex)
    with pytest.raises(ValueError, match="sum"):
        SourceEnsemble(
            messages=(SourceMessage("x", v, 0.5), SourceMessage("y", v, 0.4)),
            ambient_dim=2,
        )


UNNORMALIZED_DOC = {
    "k": 2,
    "ambientDim": 2,
    "normalize": False,
    "messages": [
        {"id": "x", "p": 0.75, "amps": [[1, 0], [0, 2]]},
        {"id": "y", "p": 0.25, "amps": [[3, 0], [4, 0]]},
    ],
}


@pytest.mark.parametrize("source", ["reference", "unnormalized file"])
def test_unit_amps_is_one_stored_read_only_state(source):
    if source == "reference":
        ens = reference_ensemble()
    else:
        ens = parse_ensemble(json.dumps(UNNORMALIZED_DOC)).ensemble
    for msg in ens.messages:
        unit = msg.unit_amps()
        assert unit is msg.unit_amps()
        assert not unit.flags.writeable
        assert unit.tobytes() == normalize(msg.amps).tobytes()


def test_zero_message_is_rejected():
    with pytest.raises(ValueError, match="message 'z': cannot normalize a near-zero vector"):
        SourceMessage("z", np.zeros(3), 1.0)


@pytest.mark.parametrize("amps", [[1e200, 0], [1e155, 1e155j], [1e308, 1e308]])
def test_message_whose_norm_overflows_is_rejected(amps):
    # the norm used to overflow to inf, warn, and leave an all-zero "unit" state
    with pytest.raises(ValueError, match="message 'a': .*norm overflows a float"):
        SourceMessage("a", np.array(amps), 1.0)


def test_random_ensembles_round_trip():
    rng = np.random.default_rng(23)
    for trial in range(25):
        ens = random_ensemble(rng, int(rng.integers(2, 7)), int(rng.integers(3, 13)))
        cb = build_codebook(ens, k=2)
        for msg in ens.messages:
            x = msg.unit_amps()
            decoded = decode(cb, encode(cb, x))
            assert abs(np.vdot(x, decoded)) ** 2 >= 1 - 1e-9


@pytest.mark.parametrize(
    "basis, match",
    [
        (np.eye(3), "does not fit"),  # three rows in a one-qubit register
        (np.zeros((0, 2)), "does not fit"),
        (np.array([1.0, 0.0]), "2-d"),
        (np.zeros((1, 0)), "at least one column"),
        (np.array([[np.nan, 1.0]]), "NaN"),
    ],
)
def test_codebook_constructor_checks(basis, match):
    with pytest.raises(ValueError, match=match):
        Codebook(spec=RegisterSpec(k=2, r=1), basis=basis, base_lengths={}, lengths=LengthDistribution({0: 1.0}))


@pytest.mark.parametrize("missing", [2, 7])
def test_codebook_refuses_a_base_length_missing_from_its_lengths(codebook, missing):
    base_lengths = {**codebook.base_lengths, "e": missing}
    with pytest.raises(ValueError, match=f"base length {missing} is missing"):
        Codebook(codebook.spec, codebook.basis, base_lengths, LengthDistribution({0: 0.5, 1: 0.5}))
    with pytest.raises(ValueError, match=f"base length {missing} is missing"):
        dataclasses.replace(codebook, base_lengths=base_lengths, lengths=LengthDistribution({0: 0.5, 1: 0.5}))


def test_codebook_stores_only_its_basis(codebook):
    init_fields = [f.name for f in dataclasses.fields(Codebook) if f.init]
    assert init_fields == ["spec", "basis", "base_lengths", "lengths"]
    for matrix in (codebook.basis, codebook.encoder, codebook.decoder):
        assert not matrix.flags.writeable
    flipped = dataclasses.replace(codebook, basis=-codebook.basis)
    np.testing.assert_array_equal(flipped.encoder, -codebook.encoder)
    np.testing.assert_array_equal(flipped.decoder, -codebook.decoder)
    assert flipped.code_lengths == codebook.code_lengths
    # the side-channel table is derived from the lengths, as the matrices are from the basis
    assert codebook.table == build_huffman(codebook.lengths)
    skewed = dataclasses.replace(codebook, lengths=LengthDistribution({0: 0.1, 1: 0.1, 2: 0.8}))
    assert skewed.table == build_huffman(skewed.lengths) != codebook.table
    assert skewed.table.codewords[2] == "1"


def test_codebook_consistency_passes_on_reference(ensemble, codebook):
    assert check_codebook_consistency(ensemble, codebook, np.random.default_rng(3), 1e-9) == (True, "ok")


def test_codebook_consistency_names_isometry_violation(ensemble, codebook):
    basis = codebook.basis.copy()
    basis[0, 0] += 0.05
    tampered = dataclasses.replace(codebook, basis=basis)
    ok, detail = check_codebook_consistency(ensemble, tampered, np.random.default_rng(3), 1e-9)
    assert not ok and detail.startswith("isometry violated by")


def test_codebook_consistency_names_understated_base_length():
    ens = random_ensemble(np.random.default_rng(5), 6, 9)
    cb = build_codebook(ens, k=3)
    victim = next(m.id for m in ens.messages if cb.base_lengths[m.id] > 0)
    understated = dataclasses.replace(cb, base_lengths={**cb.base_lengths, victim: cb.base_lengths[victim] - 1})
    ok, detail = check_codebook_consistency(ens, understated, np.random.default_rng(3), 1e-9)
    assert not ok
    assert detail == f"message {victim!r} has amplitude beyond its base length"


def test_minimal_register_sizes():
    # d independent directions need the smallest r with k^r >= d
    eye = np.eye(5, dtype=complex)
    for d, expected_r in [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3)]:
        ens = SourceEnsemble(
            messages=tuple(SourceMessage(f"m{i}", eye[i], 1.0 / d) for i in range(d)),
            ambient_dim=5,
        )
        assert build_codebook(ens, k=2).spec.r == expected_r


def _loop_select_independent(ensemble, tol=1e-9):
    """Per-vector modified Gram-Schmidt selection: the reference for the matrix-form pass."""
    kept, basis = [], []
    for msg in sorted(ensemble.messages, key=lambda m: -m.probability):
        residual = msg.unit_amps()
        for w in basis:
            residual = residual - np.vdot(w, residual) * w
        rnorm = np.linalg.norm(residual)
        if rnorm > tol:
            kept.append(msg.id)
            basis.append(residual / rnorm)
    return kept, np.array(basis)


def test_matrix_core_matches_per_vector_loops():
    rng = np.random.default_rng(41)
    for trial in range(30):
        ambient = int(rng.integers(2, 9))
        ens = random_ensemble(rng, ambient, int(rng.integers(1, 2 * ambient)))
        cb = build_codebook(ens, k=int(rng.choice([2, 3])))
        kept, basis = _loop_select_independent(ens)
        assert [m.id for m in select_independent(ens)] == kept
        np.testing.assert_allclose(np.array(cb.basis), basis, atol=1e-12)
        d = cb.code_dim
        for msg in ens.messages:
            overlaps = cb.encoder[:d] @ msg.unit_amps()
            supported = [cb.code_lengths[i] for i in range(d) if abs(overlaps[i]) > 1e-12]
            assert cb.base_lengths[msg.id] == (max(supported) if supported else 0)
        sigma = sum(m.probability * np.outer(m.unit_amps(), m.unit_amps().conj()) for m in ens.messages)
        np.testing.assert_allclose(density_matrix(ens).matrix, sigma, atol=1e-14)


def test_density_matrix_keeps_its_spectrum(ensemble):
    sigma = density_matrix(ensemble)
    np.testing.assert_array_equal(sigma.eigenvalues, hermitian_eigenvalues(sigma.matrix))
    assert not sigma.eigenvalues.flags.writeable


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8])
def test_near_dependent_ensembles_round_trip(eps):
    # 40 states v0 + eps * v_i in dimension 40: single-pass Gram-Schmidt loses
    # orthogonality here and the session then rejects its own messages
    ens = near_dependent_ensemble(np.random.default_rng(7), 40, 40, eps)
    cb = build_codebook(ens)
    basis = np.array(cb.basis)
    assert np.max(np.abs(basis @ basis.conj().T - np.eye(cb.code_dim))) <= 1e-12
    transcript = run_session(ens, cb, n=200, seed=3)
    assert min(r.fidelity for r in transcript.records) >= 1 - 1e-9
