"""Centralized MSR erasure codes with small sub-packetization.

Library layout:

  field          GF(p) arithmetic on ints and int64 arrays
  mixedradix     digit_table and shift_digits, the only digit arithmetic
  grs            GRS kernels that build erasure tables, and one that applies them
  hamming        Hamming-code syndromes that pick the Hadamard repair's base planes
  constructions  the code families (C1..C4, Hadamard): build, encode, reconstruct
  repair         repair plans (one orbit builder), helper aggregation, center repair
  audit          cut-set bounds, the repair record and its check, Table 1
  storage        file-backed cluster simulator with download accounting
  cli            command-line entry point (`msrcodes`)
"""

from .constructions import (CodeSpec, Codeword, Family, build, encode,
                            encode_blocks, mds_reconstruct, verify_planes)
from .errors import CorruptionError, DataLossError, MsrError, ParameterError
from .field import PrimeField
from .repair import center_repair, helper_aggregate, plan, repair_from_codeword

__version__ = "0.1.0"

__all__ = [
    "CodeSpec", "Codeword", "Family", "build", "encode", "encode_blocks",
    "mds_reconstruct", "verify_planes", "PrimeField",
    "plan", "helper_aggregate", "center_repair", "repair_from_codeword",
    "MsrError", "ParameterError", "CorruptionError", "DataLossError",
    "__version__",
]
