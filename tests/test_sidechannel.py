import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlqc.reference_example import reference_codebook, reference_ensemble
from vlqc.sidechannel import (
    LengthDistribution,
    PrefixCodeTable,
    build_huffman,
    decode_lengths,
    encode_lengths,
    expected_code_length,
    is_prefix_free,
    kraft_sum,
    length_distribution,
    shannon_entropy,
)
from vlqc.verify import GRID_MAX_SYMBOLS, grid_distributions, optimal_prefix_mean_twentieths

REFERENCE_DIST = LengthDistribution({0: 0.6, 1: 0.3, 2: 0.1})
REFERENCE_TABLE = PrefixCodeTable({0: "1", 1: "01", 2: "00"})


def test_length_distribution_reference():
    ensemble = reference_ensemble()
    codebook = reference_codebook()
    dist = length_distribution(ensemble, codebook.base_lengths)
    assert set(dist.probs) == {0, 1, 2}
    assert dist.probs[0] == pytest.approx(0.6, abs=1e-12)
    assert dist.probs[1] == pytest.approx(0.3, abs=1e-12)
    assert dist.probs[2] == pytest.approx(0.1, abs=1e-12)


def test_length_distribution_single_message():
    ensemble = reference_ensemble()
    dist = length_distribution(ensemble, {m.id: 3 for m in ensemble.messages})
    assert set(dist.probs) == {3}
    assert dist.probs[3] == pytest.approx(1.0)


def test_length_distribution_missing_id():
    ensemble = reference_ensemble()
    with pytest.raises(ValueError, match="base length"):
        length_distribution(ensemble, {})


def test_huffman_reference_expected_length():
    table = build_huffman(REFERENCE_DIST)
    assert expected_code_length(table, REFERENCE_DIST) == pytest.approx(1.4, abs=1e-12)


def test_huffman_reference_codewords_are_deterministic():
    # the tie-break rule pins the exact codewords, not just their lengths
    assert build_huffman(REFERENCE_DIST).codewords == {0: "1", 1: "01", 2: "00"}


def test_huffman_single_symbol_gets_one_bit():
    table = build_huffman(LengthDistribution({5: 1.0}))
    assert table.codewords == {5: "0"}
    assert expected_code_length(table, LengthDistribution({5: 1.0})) == 1.0


def test_huffman_uniform_four_is_balanced():
    dist = LengthDistribution({i: 0.25 for i in range(4)})
    table = build_huffman(dist)
    assert sorted(len(w) for w in table.codewords.values()) == [2, 2, 2, 2]


def test_grid_distributions_are_the_recursive_compositions():
    """The grid against its recursive enumeration: first part ascending, then the rest."""
    expected = []

    def compose(remaining, parts, prefix):
        if parts == 1:
            expected.append(tuple(prefix + [remaining]))
            return
        for first in range(1, remaining - parts + 2):
            compose(remaining - first, parts - 1, prefix + [first])

    for symbols in range(2, GRID_MAX_SYMBOLS + 1):
        compose(20, symbols, [])
    assert grid_distributions() == expected
    assert len(expected) == 5035


def test_huffman_optimal_on_probability_grid():
    for counts in grid_distributions():
        dist = LengthDistribution({i: c / 20 for i, c in enumerate(counts)})
        table = build_huffman(dist)
        mean_twentieths = round(expected_code_length(table, dist) * 20)
        assert mean_twentieths == optimal_prefix_mean_twentieths(tuple(sorted(counts)))


def test_expected_code_length_missing_symbol():
    with pytest.raises(ValueError, match="missing"):
        expected_code_length(PrefixCodeTable({0: "0"}), REFERENCE_DIST)


def test_shannon_entropy_reference_lengths():
    assert shannon_entropy(REFERENCE_DIST.probs.values()) == pytest.approx(1.29546, abs=5e-5)


def test_shannon_entropy_point_mass():
    assert shannon_entropy([1.0]) == 0.0


def test_shannon_entropy_reference_messages():
    probs = [m.probability for m in reference_ensemble().messages]
    assert shannon_entropy(probs) == pytest.approx(2.02945, abs=5e-5)


def test_shannon_entropy_rejects_negative():
    with pytest.raises(ValueError):
        shannon_entropy([-0.1, 1.1])


def test_encode_lengths_single():
    assert encode_lengths(REFERENCE_TABLE, [0]) == "1"


def test_encode_lengths_concatenates():
    assert encode_lengths(REFERENCE_TABLE, [0, 1, 2]) == "10100"


def test_encode_lengths_empty():
    assert encode_lengths(REFERENCE_TABLE, []) == ""


def test_encode_lengths_unknown_value():
    with pytest.raises(ValueError, match="missing"):
        encode_lengths(REFERENCE_TABLE, [7])


def test_decode_lengths_inverse():
    assert decode_lengths(REFERENCE_TABLE, "10100", 3) == [0, 1, 2]


def test_decode_lengths_single():
    assert decode_lengths(REFERENCE_TABLE, "1", 1) == [0]


def test_decode_lengths_trailing_bits_strict():
    with pytest.raises(ValueError, match="unread"):
        decode_lengths(REFERENCE_TABLE, "11", 1)


def test_decode_lengths_exhausted_mid_codeword():
    with pytest.raises(ValueError, match="exhausted"):
        decode_lengths(REFERENCE_TABLE, "0", 1)


def test_decode_unmatchable_prefix():
    table = PrefixCodeTable({0: "00", 1: "01"})
    with pytest.raises(ValueError, match="no codeword"):
        decode_lengths(table, "10", 1)


@pytest.mark.parametrize("bits", ["x1", "12", "1x0"])
def test_decode_rejects_characters_other_than_bits(bits):
    with pytest.raises(ValueError, match="no codeword"):
        decode_lengths(REFERENCE_TABLE, bits, 2)


@given(st.integers(0, 100_000))
@settings(max_examples=80, deadline=None)
def test_stream_round_trip_random(seed):
    rng = np.random.default_rng(seed)
    symbols = int(rng.integers(1, 9))
    probs = rng.random(symbols) + 0.05
    probs /= probs.sum()
    dist = LengthDistribution({i: float(p) for i, p in enumerate(probs)})
    table = build_huffman(dist)
    seq = [int(x) for x in rng.integers(0, symbols, size=int(rng.integers(0, 500)))]
    assert decode_lengths(table, encode_lengths(table, seq), len(seq)) == seq


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_shannon_bound_random(seed):
    rng = np.random.default_rng(seed)
    symbols = int(rng.integers(2, 9))
    probs = rng.random(symbols) + 0.05
    probs /= probs.sum()
    dist = LengthDistribution({i: float(p) for i, p in enumerate(probs)})
    table = build_huffman(dist)
    entropy = shannon_entropy(dist.probs.values())
    mean = expected_code_length(table, dist)
    assert entropy - 1e-9 <= mean < entropy + 1.0
    assert is_prefix_free(table.codewords.values())
    assert kraft_sum((len(w) for w in table.codewords.values()), 2) <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "lengths, k, expected",
    [
        ([0, 1, 2, 2], 2, 2.0),
        ([1, 2, 3, 3], 2, 1.0),
        ([1], 2, 0.5),
    ],
)
def test_kraft_sum(lengths, k, expected):
    assert kraft_sum(lengths, k) == pytest.approx(expected)


def test_kraft_sum_above_one_flags_inadmissible_codeword_set():
    # short non-prefix numerals exceed 1; that surplus is the side-channel's job
    assert kraft_sum([0, 1, 2, 2], 2) > 1.0


@pytest.mark.parametrize(
    "words, expected",
    [
        (["1", "01", "00"], True),
        (["0", "01"], False),
        (["0", "10", "110", "111"], True),
        (["0", "0"], False),
    ],
)
def test_is_prefix_free(words, expected):
    assert is_prefix_free(words) is expected


def test_table_rejects_prefix_collision():
    with pytest.raises(ValueError, match="prefix"):
        PrefixCodeTable({0: "0", 1: "01"})


def test_distribution_requires_unit_sum():
    with pytest.raises(ValueError, match="sum"):
        LengthDistribution({0: 0.5, 1: 0.4})


def test_distribution_requires_positive_probabilities():
    with pytest.raises(ValueError, match="positive"):
        LengthDistribution({0: 0.0, 1: 1.0})


@pytest.mark.parametrize(
    "probs",
    [
        {True: 0.5, 2: 0.5},
        {np.bool_(False): 0.5, 2: 0.5},
        {1.0: 0.5, 2: 0.5},
        {"1": 0.5, 2: 0.5},
        {1: True},
        {1: np.bool_(True)},
    ],
)
def test_distribution_rejects_bool_and_non_integer_lengths_and_bool_probabilities(probs):
    with pytest.raises(ValueError):
        LengthDistribution(probs)


def test_distribution_stores_numpy_integer_lengths_as_int():
    dist = LengthDistribution({np.int64(1): 0.5, np.int32(2): np.float64(0.5)})
    assert dist.probs == {1: 0.5, 2: 0.5}
    assert all(type(length) is int for length in dist.probs)
    table = build_huffman(dist)
    lengths = decode_lengths(table, encode_lengths(table, [2, 1]), 2)
    assert lengths == [2, 1] and all(type(length) is int for length in lengths)
