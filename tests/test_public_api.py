"""Public API surface: exports exist, are documented, and stay stable.

A downstream user imports from these locations; this test pins the
surface so a refactor that silently drops or undocuments a public name
fails here rather than in their code.
"""

import importlib

import pytest

PUBLIC_SURFACE = {
    "repro": [
        "PairingGroup", "GTElement", "ParameterSet", "PARAMETER_SETS",
        "get_parameter_set", "TimedReleaseScheme",
        "IdentityTimedReleaseScheme", "PassiveTimeServer",
        "TimeBoundKeyUpdate",
    ],
    "repro.core": [
        "ServerKeyPair", "ServerPublicKey", "UserKeyPair", "UserPublicKey",
        "PassiveTimeServer", "TimeBoundKeyUpdate", "epoch_label",
        "TimedReleaseScheme", "TRECiphertext", "IdentityTimedReleaseScheme",
        "IDTRECiphertext", "BLSSignatureScheme",
    ],
    "repro.core.fujisaki_okamoto": ["FOTimedReleaseScheme", "FOTRECiphertext"],
    "repro.core.react": ["ReactTimedReleaseScheme", "ReactTRECiphertext"],
    "repro.core.hybrid_tre": ["HybridTimedReleaseScheme", "HybridTRECiphertext"],
    "repro.core.multiserver": [
        "MultiServerTimedReleaseScheme", "MultiServerUserKeyPair",
        "MultiServerCiphertext",
    ],
    "repro.core.policylock": [
        "PolicyLockScheme", "ThresholdPolicyScheme", "ConjunctionCiphertext",
        "DisjunctionCiphertext", "ThresholdPolicyCiphertext",
    ],
    "repro.core.key_insulation": [
        "SafeDevice", "InsecureDevice", "EpochKey", "decrypt_with_epoch_key",
    ],
    "repro.core.certification": [
        "CertificateAuthority", "Certificate", "verify_rekeyed_public_key",
    ],
    "repro.core.threshold": [
        "ThresholdTimeServer", "ThresholdServerMember", "UpdateShare",
        "lagrange_coefficient_at_zero",
    ],
    "repro.core.resilient": [
        "ResilientTimeServer", "ResilientTRE", "ResilientUpdate", "NodeKey",
        "HierarchicalTimeTree", "epoch_path", "left_cover",
    ],
    "repro.core.tlock": [
        "DrandStyleBeacon", "TimelockEncryption", "Type3TimedRelease",
        "RoundSignature", "round_label",
    ],
    "repro.core.timeserver": ["verify_archive"],
    "repro.baselines": [
        "HashedElGamal", "ExponentialElGamal", "BonehFranklinIBE",
        "HybridPkeIbeTimedRelease", "TimeLockPuzzle", "RivestKeyReleaseServer",
        "RivestPublicKeyServer", "MontTimeVault",
    ],
    "repro.baselines.cot": [
        "COTTimeServer", "COTReceiver", "seal_message", "run_cot_session",
    ],
    "repro.pairing.bn254": ["BN254", "bn254"],
    "repro.sim": [
        "UniformLatency", "NormalJitterLatency",
        "UnicastLink", "BroadcastChannel", "MetricsCollector",
    ],
    "repro.sim.scenarios": [
        "run_programming_contest", "run_sealed_bid_auction",
        "run_threshold_beacon",
    ],
    "repro.analysis": ["format_table"],
    "repro.analysis.costmodel": [
        "OpBudget", "SchemeCost", "TRE_COST", "IDTRE_COST", "HYBRID_COST",
        "multiserver_cost", "resilient_cost",
    ],
    "repro.service": [
        "TimeServerNode", "LocalNodeTransport", "ResilientTimeClient",
        "Deadline", "ExponentialBackoff", "CircuitBreaker",
        "FaultPlan", "FaultyTransport", "FaultyChannel",
        "VirtualTimeLoop", "run_virtual",
    ],
    "repro.cli": ["main", "build_parser"],
    "repro.errors": [
        "ReproError", "ParameterError", "KeyValidationError",
        "DecryptionError", "UpdateVerificationError",
        "UpdateNotAvailableError", "PolicyError", "ProtocolError",
        "SimulationError", "EncodingError", "ServiceError",
        "TransientServiceError", "PermanentServiceError",
        "ServiceTimeoutError", "ServiceUnavailableError",
        "CircuitOpenError",
    ],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    for name in PUBLIC_SURFACE[module_name]:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
def test_public_items_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} has no module docstring"
    for name in PUBLIC_SURFACE[module_name]:
        item = getattr(module, name)
        if callable(item) and not isinstance(item, (int, dict)):
            assert getattr(item, "__doc__", None), (
                f"{module_name}.{name} is undocumented"
            )


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)
