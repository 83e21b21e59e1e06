"""Centralized MSR erasure codes with small sub-packetization.

Library layout:

  field          GF(p) arithmetic (scalar elements and int64 array kernels)
  mixedradix     (a, b) symbol coordinates; the only digit arithmetic (digits, shifts)
  grs            Vandermonde-parity GRS words: syndromes, encode, erasure decode
  hamming        Ham(2, w) coset partition used by the Hadamard repair scheme
  constructions  the code families (C1..C4, Hadamard): build, encode, reconstruct
  repair         repair plans (one orbit builder), helper aggregation, center repair
  audit          cut-set bounds, transcript verification, sub-packetization table
  storage        file-backed cluster simulator with download accounting
  cli            command-line entry point (`msrcodes`)
"""

from .constructions import (CodeSpec, Codeword, Family, build, encode,
                            encode_blocks, mds_reconstruct, verify_planes)
from .errors import (CorruptionError, DataLossError, FieldMismatchError,
                     MsrError, ParameterError, ScenarioError)
from .field import FieldElement, PrimeField
from .repair import center_repair, helper_aggregate, plan, repair_from_codeword

__version__ = "0.1.0"

__all__ = [
    "CodeSpec", "Codeword", "Family", "build", "encode", "encode_blocks",
    "mds_reconstruct", "verify_planes", "PrimeField", "FieldElement",
    "plan", "helper_aggregate", "center_repair", "repair_from_codeword",
    "MsrError", "ParameterError", "FieldMismatchError", "CorruptionError",
    "DataLossError", "ScenarioError", "__version__",
]
