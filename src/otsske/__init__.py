"""Session-based one-time signatures with full key-exposure tolerance,
plus an attestation protocol simulation and benchmark tooling."""

from .backend import available_backends, load_backend
from .errors import (
    BufferCorruptionError,
    DecodeError,
    OtsSkeError,
    ParameterError,
    ProtocolError,
    RepresentationError,
    SessionBudgetError,
    SessionConsumedError,
    UnsupportedSecurityLevelError,
)
from .groups import (
    DeterministicRandomness,
    GroupParams,
    SourceElement,
    SystemRandomness,
    TargetElement,
    hash_to_scalar,
    pair,
    pairing_counter,
    random_nonzero_scalar,
    random_scalar,
    reset_pairing_counter,
    setup,
    tagged_hash,
)
from .scheme import (
    CompressedSignature,
    FullSignature,
    IndexSelection,
    MasterSecret,
    PublicKey,
    SchemeParams,
    SessionKeyMaterial,
    aggregate,
    decompose,
    encode_index,
    gen_session,
    index_point,
    keygen_setup,
    prp_select,
    sign_compressed,
    sign_full,
    subkeys_at,
    verify_compressed,
    verify_full,
)

__version__ = "1.0.0"
