"""Lossless variable-length quantum coding.

Encode a known ensemble of pure states into variable-length codewords over a
k-ary quantum register, ship each codeword's base length through a classical
Huffman-coded side-channel, and recover every message with perfect fidelity.
The package also computes the associated information measures (Shannon and
von Neumann entropies, compression rates, Kraft sums) and checks the bounds
they must satisfy.
"""

from .codec import (
    Codebook,
    DensityMatrix,
    SourceEnsemble,
    SourceMessage,
    build_codebook,
    decode,
    density_matrix,
    encode,
    select_independent,
)
from .linalg import gram_schmidt, hermitian_eigenvalues, normalize
from .message_space import (
    LengthMeasurementOutcome,
    RegisterSpec,
    VariableLengthState,
    base_length,
    dim_general_message_space,
    length_probabilities,
    length_projector_indices,
    measure_length,
    significant_length,
    support_lengths,
)
from .metrics import (
    CompressionReport,
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
from .protocol import (
    SessionTranscript,
    TransmissionRecord,
    alice_send,
    bob_receive,
    read_transcript,
    replay_decode,
    run_session,
    transcript_lines,
    verify_lossless,
    write_transcript,
)
from .sidechannel import (
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

__version__ = "0.1.0"
