import math

import numpy as np
import pytest

from vlqc.codec import SourceEnsemble, SourceMessage, build_codebook, density_matrix
from vlqc.metrics import (
    compile_report,
    compression_rates,
    dephasing_entropy_check,
    ensemble_code_information,
    lower_bound_check,
    no_go_block_code,
    no_go_universal,
    quantum_kraft_trace,
    raw_information_classical,
    raw_information_quantum,
    upper_bound_check,
    von_neumann_entropy,
)
from vlqc.reference_example import reference_codebook, reference_ensemble
from vlqc.sidechannel import LengthDistribution
from vlqc.verify import random_density, random_ensemble, random_unitary


@pytest.fixture(scope="module")
def ensemble():
    return reference_ensemble()


@pytest.fixture(scope="module")
def codebook():
    return reference_codebook()


@pytest.fixture(scope="module")
def report(ensemble, codebook):
    return compile_report(ensemble, codebook)


def test_raw_information_classical():
    assert raw_information_classical(10) == pytest.approx(3.32193, abs=5e-5)
    assert raw_information_classical(1) == 0
    assert raw_information_classical(4) == 2


def test_raw_information_quantum():
    assert raw_information_quantum(4) == 2
    assert raw_information_quantum(1) == 0
    assert raw_information_quantum(2**7) == 7


def test_von_neumann_entropy_reference(ensemble):
    assert von_neumann_entropy(density_matrix(ensemble)) == pytest.approx(0.571241, abs=5e-5)


def test_von_neumann_entropy_pure_state():
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0


def test_von_neumann_entropy_maximally_mixed():
    assert von_neumann_entropy(np.eye(8) / 8) == pytest.approx(3.0, abs=1e-12)


def test_von_neumann_entropy_rejects_non_density():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([0.5, 0.6]))
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([1.5, -0.5]))


def test_ensemble_code_information_reference(ensemble, codebook):
    assert ensemble_code_information(ensemble, codebook) == pytest.approx(0.5, abs=1e-12)


def test_ensemble_code_information_zero_lengths(ensemble, codebook):
    import dataclasses

    flat = dataclasses.replace(codebook, base_lengths={m.id: 0 for m in ensemble.messages})
    assert ensemble_code_information(ensemble, flat) == 0.0


def test_ensemble_code_information_block_lengths(ensemble, codebook):
    import dataclasses

    n = 3
    block = dataclasses.replace(
        codebook, base_lengths={m.id: n for m in ensemble.messages}, lengths=LengthDistribution({n: 1.0})
    )
    assert ensemble_code_information(ensemble, block) == pytest.approx(n * math.log2(2))


def test_compression_rates_reference(report):
    assert report.rate_quantum == pytest.approx(0.25, abs=1e-12)
    assert report.rate_total == pytest.approx(0.897731, abs=5e-5)
    assert report.rate_effective == pytest.approx(0.95, abs=1e-12)


def test_compression_rates_requires_positive_raw():
    with pytest.raises(ValueError, match="positive"):
        compression_rates(0.5, 1.0, 1.4, 0.0)


def test_quantum_kraft_trace_reference(codebook):
    value, within = quantum_kraft_trace(codebook.code_lengths, 2)
    assert value == pytest.approx(2.0)
    assert within is False


def test_quantum_kraft_trace_prefix_lengths():
    value, within = quantum_kraft_trace([1, 2, 3, 3], 2)
    assert value == pytest.approx(1.0)
    assert within is True


def test_quantum_kraft_trace_single_empty_codeword():
    value, within = quantum_kraft_trace([0], 2)
    assert value == pytest.approx(1.0)
    assert within is True


def test_lower_bound_reference(report):
    result = lower_bound_check(
        report.avg_base_length_bits,
        report.side_channel_entropy_bits,
        report.von_neumann_entropy_bits,
    )
    assert result.satisfied
    assert result.slack == pytest.approx(1.79546 - 0.571241, abs=5e-5)
    # the quantum channel alone legitimately dips below the entropy
    assert result.quantum_only_slack < 0


def test_lower_bound_pure_state_ensemble():
    assert lower_bound_check(0.0, 0.0, 0.0).satisfied


def test_lower_bound_detects_violation():
    assert not lower_bound_check(0.1, 0.1, 1.0).satisfied


def test_upper_bound_reference(report, codebook):
    assert upper_bound_check(report.avg_base_length_bits, codebook.code_dim, 2)


def test_upper_bound_boundary_and_violation():
    assert upper_bound_check(2 * math.log2(3), 3, 3)
    assert not upper_bound_check(math.log2(4) + math.log2(2) + 1, 4, 2)


def test_no_go_block_code_equality_case():
    verdict = no_go_block_code(4, 2, 2)
    assert verdict.feasible
    assert verdict.code_information_bits == pytest.approx(2.0)
    assert verdict.code_information_bits >= verdict.raw_information_bits - 1e-12
    assert not verdict.compressive


def test_no_go_block_code_infeasible():
    assert not no_go_block_code(4, 2, 1).feasible


def test_no_go_block_code_loose_fit():
    verdict = no_go_block_code(3, 2, 2)
    assert verdict.feasible
    assert verdict.code_information_bits > verdict.raw_information_bits
    assert not verdict.compressive


def test_no_go_block_scan_never_compressive():
    for dim_v in range(1, 65):
        for k in range(2, 5):
            for n in range(0, 7):
                verdict = no_go_block_code(dim_v, k, n)
                assert not (verdict.feasible and verdict.compressive)


@pytest.mark.parametrize(
    "k, r, s, feasible",
    [(2, 3, 2, False), (2, 3, 3, True), (3, 2, 1, False)],
)
def test_no_go_universal_examples(k, r, s, feasible):
    verdict = no_go_universal(k, r, s)
    assert verdict.block_to_variable_feasible is feasible


def test_no_go_universal_exact_counts():
    verdict = no_go_universal(2, 3, 2)
    assert (verdict.block_dim, verdict.target_dim) == (8, 7)


def test_no_go_universal_scan():
    for k in range(2, 5):
        for r in range(1, 11):
            for s in range(0, r):
                verdict = no_go_universal(k, r, s)
                assert not verdict.block_to_variable_feasible
                assert not verdict.variable_to_variable_feasible
                assert verdict.block_dim > verdict.target_dim


def test_dephasing_reference_basis(ensemble, codebook):
    sigma = density_matrix(ensemble)
    assert dephasing_entropy_check(sigma, list(codebook.basis))


def test_dephasing_equality_when_diagonal():
    sigma = np.diag([0.7, 0.2, 0.1])
    basis = [np.eye(3, dtype=complex)[i] for i in range(3)]
    assert dephasing_entropy_check(sigma, basis)


def test_dephasing_random_pairs():
    rng = np.random.default_rng(41)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        sigma = random_density(rng, dim)
        basis = list(random_unitary(rng, dim).T)
        assert dephasing_entropy_check(sigma, basis)


def test_dephasing_requires_complete_basis():
    sigma = np.diag([0.5, 0.5])
    with pytest.raises(ValueError, match="span"):
        dephasing_entropy_check(sigma, [np.array([1, 0], dtype=complex)])


def test_report_is_deterministic(ensemble, codebook, report):
    again = compile_report(ensemble, codebook)
    assert again == report  # bit-identical fields


def test_report_lower_bound_on_random_ensembles():
    rng = np.random.default_rng(97)
    checked = 0
    for _ in range(100):
        ens = random_ensemble(rng, int(rng.integers(2, 7)), int(rng.integers(3, 13)))
        cb = build_codebook(ens, k=2)
        if cb.code_dim < 2:
            continue
        rep = compile_report(ens, cb)
        assert rep.lower_bound_satisfied
        assert rep.upper_bound_satisfied
        assert (
            rep.avg_base_length_bits + rep.side_channel_entropy_bits
            >= rep.von_neumann_entropy_bits - 1e-9
        )
        checked += 1
    assert checked >= 90


def test_entropy_never_exceeds_shannon(ensemble, report):
    assert report.von_neumann_entropy_bits <= report.shannon_entropy_bits + 1e-12
    rng = np.random.default_rng(53)
    for _ in range(50):
        ens = random_ensemble(rng, int(rng.integers(2, 6)), int(rng.integers(3, 10)))
        entropy = von_neumann_entropy(density_matrix(ens))
        from vlqc.sidechannel import shannon_entropy

        assert entropy <= shannon_entropy(ens.probabilities()) + 1e-9


def test_report_degenerate_one_dimensional_source():
    v = np.array([1, 1], dtype=complex)
    ens = SourceEnsemble(
        messages=(SourceMessage("x", v, 0.5), SourceMessage("y", 2 * v, 0.5)),
        ambient_dim=2,
    )
    cb = build_codebook(ens, k=2)
    assert cb.code_dim == 1 and cb.spec.r == 0
    with pytest.raises(ValueError, match="source space of dimension < 2"):
        compile_report(ens, cb)
