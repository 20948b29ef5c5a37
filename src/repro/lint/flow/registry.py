"""The source / sink / sanitizer / declassifier registry.

This file is the analysis's trusted computing base: everything the flow
engine believes about names lives here, so auditing the analyzer means
auditing this table.  Four kinds of declarations:

* **Sources** introduce taint: secret-named identifiers (the same token
  heuristic RP103 uses), scalar-sampling calls (``random_scalar``,
  ``secrets.token_bytes``), and raw pairing outputs (``pair``,
  ``pair_with_precomp``, ``pair_h1``, ``multi_pair``), which are
  DERIVED — a pre-KDF pairing value must reach a KDF before it may
  escape.
* **Sanitizers** clear taint: the KDF family, ``mask_bytes`` (the
  paper's H2), hashes/HMAC, MACs, the DEM (its outputs are
  ciphertexts), and ``ct.bytes_eq`` (a constant-time boolean).
* **Declassifiers** clear taint for a *structural* reason: group scalar
  multiplication and modexp are the scheme's one-way functions — ``aG``
  is public even though ``a`` is not.
* **Sinks** are where taint must not arrive: rendering (RP201),
  persistence/serialization (RP203).  Branch tests (RP202) and
  untracked third-party calls (RP204) are positional, not named, so
  they live in the transfer functions.

To declare a new source/sanitizer/declassifier, add its terminal call
name to the matching frozenset below (see docs/STATIC_ANALYSIS.md for
the contract each table entry asserts).
"""

from __future__ import annotations

from repro.lint.flow.lattice import DERIVED, SECRET
from repro.lint.rules.base import name_tokens

# -- name heuristics (shared vocabulary with RP102/RP103) -------------------

# Unlike RP103's token list this omits "seed": in this tree seeds name
# deterministic *test* rng inputs (benchmarks, fixtures), and the flow
# engine would propagate that taint through every benchmark harness.
SECRET_NAME_TOKENS = frozenset(
    {"sk", "secret", "private", "password", "passphrase"}
)
PUBLIC_NAME_TOKENS = frozenset(
    {"public", "pub", "label", "path", "name", "id", "bytes", "len", "hash"}
)

# -- sources ----------------------------------------------------------------

# Call name -> taint level of the result, regardless of arguments.
SOURCE_CALLS: dict[str, int] = {
    # Scalar sampling: every secret scalar in the scheme (s, a, r) is
    # born here.  Generic rng draws (`rng.random()` etc.) are *not*
    # sources — simulations and Miller–Rabin draw public randomness.
    "random_scalar": SECRET,
    "token_bytes": SECRET,
}

# Raw pairing results: DERIVED at minimum, even on public arguments —
# they are exactly the "pre-KDF pairing value" of the scheme and must
# pass mask_bytes/derive_key before leaving the crypto layer.
PAIRING_CALLS = frozenset(
    {"pair", "pair_with_precomp", "pair_h1", "multi_pair"}
)
PAIRING_LEVEL = DERIVED

# -- sanitizers -------------------------------------------------------------

SANITIZER_CALLS = frozenset(
    {
        # KDF family / the paper's H2.
        "derive_key",
        "derive_subkeys",
        "mask_bytes",
        "hash_to_scalar",
        "hash_to_bytes",
        # Hashes and MACs.
        "sha256",
        "sha512",
        "blake2b",
        "blake2s",
        "compute_mac",
        "verify_mac",
        # Constant-time comparison: a sanctioned one-bit output.
        "bytes_eq",
        "compare_digest",
        # The DEM: outputs are ciphertexts / authenticated plaintexts.
        "keystream",
        "stream_xor",
        "aead_encrypt",
        "aead_decrypt",
    }
)

# Attribute receivers whose entire API is sanitizing (`hmac.new(...)`,
# `hashlib.sha256(...)`).
SANITIZER_MODULES = frozenset({"hashlib", "hmac"})

# -- declassifiers ----------------------------------------------------------

DECLASSIFIER_CALLS = frozenset(
    {
        # Group one-way operations: aG reveals a only via discrete log.
        "mul",
        "multi_scalar_mult",
        "negate",
        "hash_to_g1",
        "pow",  # 3-arg modexp idiom; `**` on scalars still propagates
        # Rng constructors return generator *handles*, not secret
        # material — secrets enter through `random_scalar`, not here.
        "seeded_rng",
        "system_rng",
        # Predicates / metadata: reveal membership or size, not value.
        "in_group",
        "is_identity",
        "len",
        "type",
        "bool",
        "id",
        "isinstance",
        "issubclass",
    }
)

# -- sinks ------------------------------------------------------------------

# RP201 rendering sinks (plain-name calls).
RENDER_CALLS = frozenset({"print", "repr", "ascii", "format"})
# RP201 rendering sinks (attribute calls), keyed by method name.
LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)
LOG_RECEIVER_TOKENS = frozenset({"logging", "logger", "log"})
WARN_CALLS = frozenset({"warn"})
STDIO_RECEIVERS = frozenset({"stdout", "stderr"})

# RP203 persistence sinks: attribute calls that put bytes somewhere
# durable, and the stdlib serializers.
PERSIST_METHODS = frozenset({"write", "write_bytes", "write_text"})
SERIALIZE_MODULE_CALLS = frozenset({"dumps", "dump"})  # json./pickle./marshal.
SERIALIZER_MODULES = frozenset({"json", "pickle", "marshal"})

# Function *definitions* with these names are serialization boundaries:
# returning a concretely tainted value from one is RP203 (the secret
# left the process without a KDF).
SERIALIZER_DEF_NAMES = frozenset(
    {"to_bytes", "to_json", "to_dict", "serialize", "export", "hex", "__bytes__"}
)


def is_serializer_name(name: str) -> bool:
    return name in SERIALIZER_DEF_NAMES or name.endswith("_to_bytes")


# -- RP204: the tracked world ----------------------------------------------

# Imports from these roots are tracked (stdlib we model or know to be
# inert) — anything else imported and then called with a SECRET argument
# is an untracked third-party boundary.
TRACKED_MODULE_ROOTS = frozenset(
    {
        "repro",
        "abc",
        "argparse",
        "ast",
        "base64",
        "binascii",
        "collections",
        "contextlib",
        "copy",
        "dataclasses",
        "enum",
        "functools",
        "hashlib",
        "heapq",
        "hmac",
        "io",
        "itertools",
        "json",
        "math",
        "operator",
        "os",
        "pathlib",
        "pickle",
        "random",
        "re",
        "secrets",
        "statistics",
        "struct",
        "sys",
        "textwrap",
        "time",
        "typing",
        "unittest",
        "warnings",
    }
)


def is_tracked_module(module: str) -> bool:
    return module.split(".", 1)[0] in TRACKED_MODULE_ROOTS


# -- name predicates --------------------------------------------------------


def is_secret_name(identifier: str) -> bool:
    tokens = name_tokens(identifier)
    return bool(tokens & SECRET_NAME_TOKENS) and not tokens & PUBLIC_NAME_TOKENS


def is_public_name(identifier: str) -> bool:
    return bool(name_tokens(identifier) & PUBLIC_NAME_TOKENS)
