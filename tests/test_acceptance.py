"""End-to-end acceptance checks at frozen tolerances.

Each check prints one pass/fail line; run ``pytest -s tests/test_acceptance.py``
to see them. Tolerances are pinned here and nowhere loosened: 5e-5 for values
known to six significant digits, 1e-5 for printed matrix entries, 1e-12 for
exact arithmetic identities, 1e-9 for bound slack and fidelities.
"""

import functools
import math

import numpy as np
import pytest

from vlqc.cli import main
from vlqc.codec import build_codebook, density_matrix
from vlqc.ensemble_io import dump_ensemble
from vlqc.message_space import (
    RegisterSpec,
    VariableLengthState,
    length_probabilities,
    measure_length,
)
from vlqc.metrics import (
    compile_report,
    dephasing_entropy_check,
    no_go_block_code,
    no_go_universal,
    raw_information_classical,
)
from vlqc.protocol import run_session, verify_lossless, write_transcript
from vlqc.reference_example import (
    EXPECTED_BASE_LENGTHS,
    EXPECTED_BASIS,
    EXPECTED_DECODER,
    EXPECTED_DENSITY_MATRIX,
    EXPECTED_ENCODER,
    REFERENCE_K,
    reference_codebook,
    reference_ensemble,
)
from vlqc.sidechannel import (
    LengthDistribution,
    build_huffman,
    expected_code_length,
    length_distribution,
    shannon_entropy,
)
from vlqc.verify import (
    grid_distributions,
    optimal_prefix_mean_twentieths,
    random_density,
    random_ensemble,
    random_unitary,
)

SIX_DIGITS = 5e-5
MATRIX_ENTRY = 1e-5
EXACT = 1e-12
SLACK = 1e-9

ACCEPTANCE_SEED = 20260810


def criterion(num: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL  {description}")
                raise
            print(f"[criterion {num:02d}] PASS  {description}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def ensemble():
    return reference_ensemble()


@pytest.fixture(scope="module")
def codebook():
    return reference_codebook()


@pytest.fixture(scope="module")
def report(ensemble, codebook):
    return compile_report(ensemble, codebook)


@pytest.fixture(scope="module")
def random_subjects():
    """100 random ensembles (ambient dims 2..6, 3..12 messages), fixed seed."""
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    subjects = []
    for _ in range(100):
        ens = random_ensemble(rng, int(rng.integers(2, 7)), int(rng.integers(3, 13)))
        subjects.append((ens, build_codebook(ens, k=2)))
    return subjects


@criterion(1, "Shannon entropy of the reference ensemble")
def test_criterion_01_shannon_entropy(report):
    assert abs(report.shannon_entropy_bits - 2.02945) <= SIX_DIGITS


@criterion(2, "classical raw information of the reference ensemble")
def test_criterion_02_raw_classical(report, ensemble):
    assert abs(report.raw_classical_bits - 3.32193) <= SIX_DIGITS
    assert report.raw_classical_bits == raw_information_classical(len(ensemble.messages))


@criterion(3, "all 16 density-matrix entries (validates 1/60 weights + normalization)")
def test_criterion_03_density_matrix(ensemble):
    sigma = density_matrix(ensemble).matrix
    assert np.max(np.abs(sigma.real - EXPECTED_DENSITY_MATRIX)) <= MATRIX_ENTRY
    assert np.max(np.abs(sigma.imag)) <= MATRIX_ENTRY


@criterion(4, "von Neumann entropy of the density matrix")
def test_criterion_04_von_neumann(report):
    assert abs(report.von_neumann_entropy_bits - 0.571241) <= SIX_DIGITS


@criterion(5, "orthonormal basis components, sign-exact")
def test_criterion_05_basis(codebook):
    basis = np.array(codebook.basis)
    assert np.max(np.abs(basis.real - EXPECTED_BASIS)) <= MATRIX_ENTRY
    assert np.max(np.abs(basis.imag)) <= MATRIX_ENTRY


@criterion(6, "encoder and decoder matrices; decoder inverts encoder")
def test_criterion_06_encoder_decoder(codebook):
    assert np.max(np.abs(codebook.encoder.real - EXPECTED_ENCODER)) <= MATRIX_ENTRY
    assert np.max(np.abs(codebook.encoder.imag)) <= MATRIX_ENTRY
    assert np.max(np.abs(codebook.decoder.real - EXPECTED_DECODER)) <= MATRIX_ENTRY
    assert np.max(np.abs(codebook.decoder.imag)) <= MATRIX_ENTRY
    identity = codebook.decoder @ codebook.encoder
    assert np.max(np.abs(identity - np.eye(codebook.ambient_dim))) <= SLACK


@criterion(7, "base-length table, exact integers")
def test_criterion_07_base_lengths(codebook):
    assert codebook.base_lengths == EXPECTED_BASE_LENGTHS


@criterion(8, "length distribution, Huffman mean, side-channel entropy")
def test_criterion_08_side_channel(ensemble, codebook, report):
    dist = length_distribution(ensemble, codebook.base_lengths)
    assert abs(dist.probs[0] - 0.6) <= EXACT
    assert abs(dist.probs[1] - 0.3) <= EXACT
    assert abs(dist.probs[2] - 0.1) <= EXACT
    assert abs(report.huffman_mean_bits - 1.4) <= EXACT
    assert abs(report.side_channel_entropy_bits - 1.29546) <= SIX_DIGITS


@criterion(9, "code information and all three compression rates")
def test_criterion_09_rates(report):
    total = report.avg_base_length_bits + report.side_channel_entropy_bits
    assert abs(report.avg_base_length_bits - 0.5) <= EXACT
    assert abs(report.rate_quantum - 0.25) <= EXACT
    assert abs(total - 1.79546) <= SIX_DIGITS
    assert abs(report.rate_total - 0.897731) <= SIX_DIGITS
    assert abs(report.rate_effective - 0.95) <= EXACT


@criterion(10, "ordering facts: Ic < S, Itot < H, Itot > S")
def test_criterion_10_orderings(report):
    total = report.avg_base_length_bits + report.side_channel_entropy_bits
    assert report.avg_base_length_bits < report.von_neumann_entropy_bits
    assert total < report.shannon_entropy_bits
    assert total > report.von_neumann_entropy_bits


@criterion(11, "round-trip losslessness: 10 seeds x 10^4 reference messages + random ensembles")
def test_criterion_11_losslessness(ensemble, codebook, random_subjects):
    for seed in range(1, 11):
        transcript = run_session(ensemble, codebook, n=10_000, seed=seed)
        assert verify_lossless(transcript, ensemble, tol=1e-9)
        assert min(r.fidelity for r in transcript.records) >= 1 - 1e-9
    for trial, (ens, cb) in enumerate(random_subjects):
        transcript = run_session(ens, cb, n=200, seed=trial)
        assert verify_lossless(transcript, ens, tol=1e-9)


@criterion(12, "entropy lower bound Ic + I' >= S on every random ensemble")
def test_criterion_12_lower_bound(random_subjects, ensemble, codebook, report):
    total = report.avg_base_length_bits + report.side_channel_entropy_bits
    assert total >= report.von_neumann_entropy_bits - SLACK
    for ens, cb in random_subjects:
        from vlqc.metrics import ensemble_code_information, von_neumann_entropy

        avg_base = ensemble_code_information(ens, cb)
        dist = length_distribution(ens, cb.base_lengths)
        side = shannon_entropy(dist.probs.values())
        entropy = von_neumann_entropy(density_matrix(ens))
        assert avg_base + side >= entropy - SLACK


@criterion(13, "Huffman optimality on the 0.05 grid; Shannon chain everywhere")
def test_criterion_13_huffman(random_subjects):
    for counts in grid_distributions():
        dist = LengthDistribution({i: c / 20 for i, c in enumerate(counts)})
        table = build_huffman(dist)
        mean = expected_code_length(table, dist)
        assert round(mean * 20) == optimal_prefix_mean_twentieths(tuple(sorted(counts)))
        entropy = shannon_entropy(dist.probs.values())
        assert entropy - SLACK <= mean < entropy + 1.0
    for ens, cb in random_subjects:
        dist = length_distribution(ens, cb.base_lengths)
        table = build_huffman(dist)
        mean = expected_code_length(table, dist)
        entropy = shannon_entropy(dist.probs.values())
        assert entropy - SLACK <= mean < entropy + 1.0


@criterion(14, "no-go scans: block codes never compress; universal compression impossible")
def test_criterion_14_no_go():
    for dim_v in range(1, 65):
        for k in range(2, 5):
            for n in range(0, 7):
                verdict = no_go_block_code(dim_v, k, n)
                assert not (verdict.feasible and verdict.compressive)
    for k in range(2, 5):
        for r in range(1, 11):
            for s in range(0, r):
                verdict = no_go_universal(k, r, s)
                assert verdict.block_dim > verdict.target_dim
                assert not verdict.block_to_variable_feasible


@criterion(15, "dephasing never lowers entropy on 100 random (state, basis) pairs")
def test_criterion_15_dephasing():
    rng = np.random.default_rng(ACCEPTANCE_SEED + 1)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        sigma = random_density(rng, dim)
        basis = list(random_unitary(rng, dim).T)
        assert dephasing_entropy_check(sigma, basis, tol=SLACK)


@criterion(16, "session statistics and length-measurement frequencies within 3 sigma")
def test_criterion_16_statistics(ensemble, codebook):
    n = 10_000
    transcript = run_session(ensemble, codebook, n=n, seed=ACCEPTANCE_SEED)
    qubits = transcript.total_qubits / n
    bits = transcript.total_classical_bits / n
    assert 0.48 <= qubits <= 0.52
    assert 1.36 <= bits <= 1.44

    rng = np.random.default_rng(ACCEPTANCE_SEED + 2)
    spec = RegisterSpec(k=2, r=2)
    amps = np.zeros(4, dtype=complex)
    amps[[1, 3]] = 1 / math.sqrt(2)
    state = VariableLengthState(spec, amps)
    samples = 100_000
    counts = {1: 0, 2: 0}
    for _ in range(samples):
        counts[measure_length(state, rng).length] += 1
    expected = length_probabilities(state)
    for outcome, p in [(1, expected[1]), (2, expected[2])]:
        stderr = math.sqrt(p * (1 - p) / samples)
        assert abs(counts[outcome] / samples - p) <= 3 * stderr


@criterion(17, "determinism: identical seeds give byte-identical transcripts")
def test_criterion_17_determinism(tmp_path, ensemble, codebook):
    ensemble_path = tmp_path / "reference.json"
    dump_ensemble(ensemble, REFERENCE_K, ensemble_path)
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    for out in (first, second):
        code = main(
            [
                "simulate",
                "--ensemble",
                str(ensemble_path),
                "--n",
                "1000",
                "--seed",
                "424242",
                "--out",
                str(out),
            ]
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    # and the in-process path agrees with the CLI path
    direct = tmp_path / "direct.jsonl"
    from vlqc.ensemble_io import load_ensemble

    loaded = load_ensemble(ensemble_path)
    write_transcript(run_session(loaded.ensemble, build_codebook(loaded.ensemble, k=loaded.k), 1000, 424242), direct)
    assert direct.read_bytes() == first.read_bytes()


@criterion(0, "reference example command reproduces every frozen value")
def test_criterion_00_example_command(capsys):
    assert main(["example"]) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out
