"""Quantization and timely-coding toolkit.

Modules:
    core      bit I/O, seed derivation, quantizer contract
    rotation  randomized Hadamard transform
    scalar    coordinate-wise uniform quantizer, modulo quantizer
    adaptive  tetra-iterated / geometric range ladders (ATUQ, AGUQ, AGUQ+)
    vector    RATQ, subsampled RATQ, A-RATQ, SimQ, SimQ+, split quantizer
    sideinfo  RMQ, DAQ, RDAQ families (decoder-side information)
    catalog   the table of every code: domain, side information, error bound
    dme       distributed mean estimation protocol and bounds
    optim     quantized PSGD / mirror descent / phase scheme
    aoi       minimum-age and minimum-delay source codes
    cli       benchmark entry points
"""

from .core import BitReader, BitString, Quantizer, SeedPath

__all__ = ["BitReader", "BitString", "Quantizer", "SeedPath"]
__version__ = "0.1.0"
