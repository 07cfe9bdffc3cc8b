"""Shared low-level utilities: bit manipulation, deterministic RNG streams
and ASCII table rendering.

These helpers are deliberately free of any simulator state so they can be
property-tested in isolation and reused by every subsystem.
"""

from repro.util.bitops import (
    bit_count,
    byte_mask,
    iter_set_bits,
    lowest_set_bit,
    mask_covers,
    mask_to_ranges,
    masks_overlap,
    reduce_mask,
    spread_mask,
)
from repro.util.rng import DeterministicRng, derive_seed
from repro.util.tables import format_series, format_table, percent

__all__ = [
    "DeterministicRng",
    "bit_count",
    "byte_mask",
    "derive_seed",
    "format_series",
    "format_table",
    "iter_set_bits",
    "lowest_set_bit",
    "mask_covers",
    "mask_to_ranges",
    "masks_overlap",
    "percent",
    "reduce_mask",
    "spread_mask",
]
