import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vlqc import protocol
from vlqc.cli import report_document
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
from vlqc.ensemble_io import dump_ensemble, ensemble_hash, load_ensemble, parse_ensemble
from vlqc.linalg import hermitian_eigenvalues, normalize
from vlqc.message_space import RegisterSpec, VariableLengthState, significant_length, support_lengths
from vlqc.metrics import compile_report
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
from vlqc.protocol import run_session, transcript_lines
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


@pytest.mark.parametrize(
    "probs",
    [
        [np.float32(0.25), np.float32(0.75)],
        [Fraction(1, 4), Fraction(3, 4)],
        [np.float64(0.25), np.float64(0.75)],
        [1],
    ],
    ids=["float32", "Fraction", "float64", "int"],
)
def test_a_real_probability_is_stored_as_a_float(tmp_path, probs):
    states = [np.array([1, 0], dtype=complex), np.array([0.6, 0.8j])][: len(probs)]
    ensemble = SourceEnsemble(tuple(SourceMessage(f"m{i}", v, p) for i, (v, p) in enumerate(zip(states, probs))), 2)
    floats = SourceEnsemble(tuple(SourceMessage(m.id, m.amps, float(p)) for m, p in zip(ensemble.messages, probs)), 2)
    for m, p in zip(ensemble.messages, probs):
        assert type(m.probability) is float and m.probability == p
    # the hash, a session and the file writer all take the stored float
    assert ensemble_hash(ensemble) == ensemble_hash(floats)
    assert run_session(ensemble, build_codebook(ensemble), n=5, seed=1).ensemble_hash == ensemble_hash(floats)
    dump_ensemble(ensemble, 2, tmp_path / "e.json")
    assert ensemble_hash(load_ensemble(tmp_path / "e.json").ensemble) == ensemble_hash(floats)


@pytest.mark.parametrize("p", [True, np.True_, "0.5", None], ids=["bool", "np.bool_", "str", "None"])
@pytest.mark.parametrize("build", [SourceMessage, SourceMessage.of_finite], ids=["constructor", "of_finite"])
def test_a_probability_that_is_not_a_real_number_is_refused(p, build):
    with pytest.raises(ValueError, match="message 'x': probability must be a real number"):
        build("x", np.array([1, 0], dtype=complex), p)


@pytest.mark.parametrize("p", [10**400, Fraction(10**400, 3)], ids=["int", "Fraction"])
@pytest.mark.parametrize("build", [SourceMessage, SourceMessage.of_finite], ids=["constructor", "of_finite"])
def test_a_probability_too_large_for_a_float_is_refused(p, build):
    # float(p) raises OverflowError; the refusal is the rule's ValueError, naming the message
    with pytest.raises(ValueError, match="message 'x': probability is too large for a float"):
        build("x", np.array([1, 0], dtype=complex), p)


@pytest.mark.parametrize("p", [float("inf"), np.longdouble("1e400")], ids=["float", "longdouble"])
@pytest.mark.parametrize("build", [SourceMessage, SourceMessage.of_finite], ids=["constructor", "of_finite"])
def test_an_infinite_probability_is_refused_by_the_message(p, build):
    # float() turns the longdouble into inf without raising; the message refuses it, not a later sum
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="message 'x': probability must be finite, got inf"):
        build("x", np.array([1, 0], dtype=complex), p)


def test_the_constructor_copies_its_amps_and_of_finite_keeps_them():
    v = np.array([3, 4j])
    msg = SourceMessage("x", v, 1.0)
    v[0] = 0
    assert msg.amps.tolist() == [3, 4j] and not msg.amps.flags.writeable
    kept = SourceMessage.of_finite("x", v, 1.0)
    assert kept.amps is v and not v.flags.writeable


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
    # the matrices are derived on first use and kept; they cannot be set or deleted
    assert codebook.encoder is codebook.encoder and codebook.decoder is codebook.decoder
    for name in ("encoder", "decoder"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(codebook, name, np.zeros(1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(codebook, name)
    flipped = dataclasses.replace(codebook, basis=-codebook.basis)
    assert "encoder" not in vars(flipped) and "decoder" not in vars(flipped)
    np.testing.assert_array_equal(flipped.encoder, -codebook.encoder)
    np.testing.assert_array_equal(flipped.decoder, -codebook.decoder)
    assert flipped.code_lengths == codebook.code_lengths
    # the side-channel table is derived from the lengths, as the matrices are from the basis
    assert codebook.table == build_huffman(codebook.lengths)
    skewed = dataclasses.replace(codebook, lengths=LengthDistribution({0: 0.1, 1: 0.1, 2: 0.8}))
    assert skewed.table == build_huffman(skewed.lengths) != codebook.table
    assert skewed.table.codewords[2] == "1"


def _reference_encoder(basis, dim):
    """The k^r-wide encoder: conj(basis) over dim - code_dim zero rows."""
    encoder = np.zeros((dim, basis.shape[1]), dtype=complex)
    encoder[: len(basis)] = np.conj(basis)
    return encoder


def _reference_codewords(basis, dim, rows):
    """Each row's codeword as one k^r-wide matvec per row."""
    return np.matmul(_reference_encoder(basis, dim), rows[:, :, None])[:, :, 0]


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([2, 3, 36]),
    ambient=st.integers(2, 40),
    extra=st.integers(-3, 3),
)
@settings(max_examples=40, deadline=None)
@example(seed=1, k=36, ambient=37, extra=0)
@example(seed=2, k=36, ambient=37, extra=3)
@example(seed=3, k=3, ambient=10, extra=-3)
def test_code_width_products_equal_the_register_width_encoder_bit_for_bit(seed, k, ambient, extra):
    # m below, at and above d; k = 36 at d = 37 is the register jump from r = 1 to r = 2
    ens = random_ensemble(np.random.default_rng(seed), ambient, max(1, ambient + extra))
    cb = build_codebook(ens, k=k)
    units = np.array([m.unit_amps() for m in ens.messages])
    reference = _reference_codewords(cb.basis, k**cb.spec.r, units)
    assert encode_many(cb, units).tobytes() == reference.tobytes()
    assert [cb.base_lengths[m.id] for m in ens.messages] == support_lengths(reference, k).tolist()
    encoder = _reference_encoder(cb.basis, k**cb.spec.r)
    assert cb.encoder.tobytes() == encoder.tobytes()
    # the conjugate gives the zero block's imaginary parts the sign -0.0, and the copy is C-ordered
    assert cb.decoder.tobytes() == encoder.conj().T.copy().tobytes()
    assert cb.decoder.flags.c_contiguous


def test_a_session_across_the_register_jump_writes_the_register_width_transcript(monkeypatch):
    ens = random_ensemble(np.random.default_rng(11), 37, 40)
    cb = build_codebook(ens, k=36)
    assert (cb.code_dim, cb.spec.r) == (37, 2)
    lines = transcript_lines(run_session(ens, cb, n=200, seed=5))
    monkeypatch.setattr(
        protocol,
        "encode_many",
        lambda codebook, x: _reference_codewords(codebook.basis, codebook.spec.dim, np.asarray(x, dtype=complex)),
    )
    assert transcript_lines(run_session(ens, cb, n=200, seed=5)) == lines


def test_no_register_width_matrix_is_built_before_a_decode():
    ens = random_ensemble(np.random.default_rng(4), 37, 37)
    tracemalloc.start()
    try:
        cb = build_codebook(ens, k=36)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cb.spec.dim == 36**2
    # one k^r x d complex matrix is 767232 bytes here
    assert peak < cb.spec.dim * cb.ambient_dim * np.dtype(complex).itemsize
    report_document(ens, cb, compile_report(ens, cb))
    assert "encoder" not in vars(cb) and "decoder" not in vars(cb)


@pytest.mark.parametrize(
    "make",
    [
        lambda: SourceMessage("a", np.array([3, 4]), 1.0),
        reference_ensemble,
        reference_codebook,
        lambda: density_matrix(reference_ensemble()),
        lambda: VariableLengthState(RegisterSpec(2, 1), np.array([0.6, 0.8])),
        lambda: run_session(reference_ensemble(), reference_codebook(), n=20, seed=1),
    ],
    ids=["SourceMessage", "SourceEnsemble", "Codebook", "DensityMatrix", "VariableLengthState", "SessionTranscript"],
)
def test_array_holding_values_are_equal_only_to_themselves(make):
    # value equality would compare array fields, whose truth value is ambiguous
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_codes_and_registers_compare_by_value():
    first, second = reference_codebook(), reference_codebook()
    assert first.spec == second.spec and hash(first.spec) == hash(second.spec)
    assert first.lengths == second.lengths
    assert first.table == second.table


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
    # the sender's own refusal, naming the victim
    assert (victim, detail) == ("m0", "message 'm0': state has support beyond length 0")


def test_codebook_consistency_reports_a_message_the_codebook_does_not_know(ensemble):
    other = build_codebook(random_ensemble(np.random.default_rng(5), 4, 6), k=2)
    assert check_codebook_consistency(ensemble, other, np.random.default_rng(3), 1e-9) == (
        False,
        "message 'a' is unknown to this codebook",
    )


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


def _exact_dot(w, x):
    """<w|x> over Q(i), each entry an (re, im) pair of Fractions or ints."""
    re = sum(a * c + b * d for (a, b), (c, d) in zip(w, x))
    im = sum(a * d - b * c for (a, b), (c, d) in zip(w, x))
    return re, im


def _exact_selection(vectors, probabilities, k):
    """Gram-Schmidt over Q(i), unnormalized, visiting the most probable vector
    first: the kept positions, and each vector's exact base length, the
    significant length of the last i with <w_i|x> != 0."""
    kept, basis = [], []
    for pos in sorted(range(len(vectors)), key=lambda i: -probabilities[i]):
        residual = [(Fraction(a), Fraction(b)) for a, b in vectors[pos]]
        for w in basis:
            (pr, pi), (nr, _) = _exact_dot(w, residual), _exact_dot(w, w)
            tr, ti = pr / nr, pi / nr
            residual = [(c - (tr * a - ti * b), d - (tr * b + ti * a)) for (a, b), (c, d) in zip(w, residual)]
        if any(c or d for c, d in residual):
            kept.append(pos)
            basis.append(residual)
    lengths = []
    for x in vectors:
        last = max(i for i, w in enumerate(basis) if any(_exact_dot(w, x)))
        lengths.append(significant_length(last, k))
    return kept, lengths


@st.composite
def gaussian_integer_ensembles(draw):
    """Nonzero vectors with entries in {-3..3} + i{-3..3}, d 2-6 and m 2-10,
    under distinct probabilities; with m > d, or by chance, some are dependent."""
    d, m = draw(st.integers(2, 6)), draw(st.integers(2, 10))
    entry = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    vector = st.lists(entry, min_size=d, max_size=d).filter(lambda v: any(a or b for a, b in v))
    vectors = draw(st.lists(vector, min_size=m, max_size=m))
    weights = draw(st.lists(st.integers(1, 1000), min_size=m, max_size=m, unique=True))
    probabilities = [w / sum(weights) for w in weights]
    return vectors, probabilities, draw(st.sampled_from([2, 3]))


@given(gaussian_integer_ensembles())
@settings(max_examples=60, deadline=None)
def test_selection_and_base_lengths_match_exact_arithmetic(drawn):
    vectors, probabilities, k = drawn
    ens = SourceEnsemble(
        tuple(
            SourceMessage(f"m{i}", np.array([complex(a, b) for a, b in v]), p)
            for i, (v, p) in enumerate(zip(vectors, probabilities))
        ),
        len(vectors[0]),
    )
    kept, lengths = _exact_selection(vectors, probabilities, k)
    assert [m.id for m in select_independent(ens)] == [f"m{i}" for i in kept]
    assert build_codebook(ens, k=k).base_lengths == {f"m{i}": n for i, n in enumerate(lengths)}


def _ill_conditioned_ensemble(scale: int, d: int = 64, combinations: int = 300, seed: int = 0):
    """d Gaussian-integer states v_i = scale * c + e_i, with one shared c and
    perturbations e_i of entries +-1 +-i, weighted 2^-(i+1) (the last 2^-(d-1), so
    they sum to 1), then ``combinations`` low-weight messages, each an exact
    integer combination of v_1..v_j whose last coefficient is nonzero: its exact
    base length is significant_length(j - 1). Returns the ensemble and those lengths."""
    rng = np.random.default_rng(seed)
    c = rng.integers(-3, 4, size=d) + 1j * rng.integers(-3, 4, size=d)
    v = [scale * c + rng.choice([-1, 1], size=d) + 1j * rng.choice([-1, 1], size=d) for _ in range(d)]
    messages = [SourceMessage(f"v{i}", v[i], 2.0 ** -min(i + 1, d - 1)) for i in range(d)]
    expected = {}
    for t in range(combinations):
        j = int(rng.integers(1, d + 1))
        coefficients = [*rng.integers(-3, 4, size=j - 1).tolist(), int(rng.choice([-3, -2, -1, 1, 2, 3]))]
        x = sum(a * v[i] for i, a in enumerate(coefficients))
        messages.append(SourceMessage(f"x{t}", x, 2.0 ** -(d + 8)))
        expected[f"x{t}"] = significant_length(j - 1, 2)
    return SourceEnsemble(tuple(messages), d), expected


@pytest.mark.parametrize(
    "scale",
    [
        10**3,
        pytest.param(
            10**5,
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 7: an absolute AMP_TOL cut reads selection noise as support, "
                "so some combinations get longer base lengths than exact arithmetic gives",
            ),
        ),
    ],
)
def test_ill_conditioned_combinations_get_their_exact_base_lengths(scale):
    ens, expected = _ill_conditioned_ensemble(scale)
    codebook = build_codebook(ens, k=2)
    assert [m.id for m in select_independent(ens)] == [f"v{i}" for i in range(64)]
    assert {i: codebook.base_lengths[i] for i in expected} == expected


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
