"""The comparator schemes the experiments run, implemented for real.

§2.1 time-lock puzzles      → :mod:`repro.baselines.timelock_puzzle`
§2.2 Rivest's server        → :mod:`repro.baselines.rivest_server`
§2.2 Di Crescenzo's COT     → :mod:`repro.baselines.cot`
§2.2 Mont's HP time vault   → :mod:`repro.baselines.mont_vault`
footnote 3 hybrid PKE+IBE   → :mod:`repro.baselines.hybrid_pke_ibe`
building blocks             → :mod:`repro.baselines.elgamal`,
                              :mod:`repro.baselines.bf_ibe`

These are not strawmen: each one actually encrypts and decrypts, so the
benchmarks in ``benchmarks/`` compare real work against real work.
"""

from repro.baselines.elgamal import ExponentialElGamal, HashedElGamal
from repro.baselines.bf_ibe import BonehFranklinIBE
from repro.baselines.hybrid_pke_ibe import HybridPkeIbeTimedRelease
from repro.baselines.timelock_puzzle import TimeLockPuzzle
from repro.baselines.rivest_server import RivestKeyReleaseServer, RivestPublicKeyServer
from repro.baselines.mont_vault import MontTimeVault

__all__ = [
    "HashedElGamal",
    "ExponentialElGamal",
    "BonehFranklinIBE",
    "HybridPkeIbeTimedRelease",
    "TimeLockPuzzle",
    "RivestKeyReleaseServer",
    "RivestPublicKeyServer",
    "MontTimeVault",
]
