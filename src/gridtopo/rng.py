"""Deterministic seeded randomness for direction tie-breaking.

Every random decision in the pipeline is a single coin flip keyed by
(seed, label), where the label is a stable identifier such as a line
id. Keyed derivation makes each decision independent of iteration
order and lets independent stages (or threads) draw without sharing
generator state.

The generator is xorshift64* seeded through an FNV-1a hash of the
label mixed with the user seed.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_SEED_MIX = 0x9E3779B97F4A7C15  # 2^64 / golden ratio


def _fnv1a(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _xorshift64star(state: int) -> int:
    state &= _MASK64
    state ^= (state >> 12)
    state ^= (state << 25) & _MASK64
    state ^= (state >> 27)
    return (state * 0x2545F4914F6CDD1D) & _MASK64


def coin(seed: int, label: str) -> bool:
    """Deterministic fair coin for the given (seed, label) pair."""
    state = _fnv1a(label.encode("utf-8")) ^ ((seed * _SEED_MIX) & _MASK64)
    # The first word is discarded; low-entropy labels warm up. A zero
    # state (a seed that cancels the label's hash) stays zero: False.
    return bool(_xorshift64star(_xorshift64star(state)) >> 63)
