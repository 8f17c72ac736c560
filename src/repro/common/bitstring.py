"""Bit-level helpers for SORE tuple construction.

The SORE scheme (paper Section V.B) works on the binary expansion of
*b*-bit non-negative integers, indexing bits from 1 (most significant) to
*b* (least significant), with ``v_{|i-1}`` denoting the prefix of bits
1..i-1.  These helpers implement that exact indexing convention once so the
scheme, the tests and the leakage analysis all agree on it.
"""

from __future__ import annotations

from .errors import ParameterError


def check_value_fits(value: int, bits: int) -> None:
    """Validate that ``value`` is a non-negative integer below ``2**bits``."""
    if bits <= 0:
        raise ParameterError(f"bit width must be positive, got {bits}")
    if value < 0:
        raise ParameterError(f"SORE operates on non-negative integers, got {value}")
    if value >> bits:
        raise ParameterError(f"value {value} does not fit in {bits} bits")


def bit_at(value: int, i: int, bits: int) -> int:
    """Return bit ``i`` of ``value`` using the paper's 1-based MSB-first index.

    ``bit_at(v, 1, b)`` is the most significant of the *b* bits and
    ``bit_at(v, b, b)`` the least significant.
    """
    if not 1 <= i <= bits:
        raise ParameterError(f"bit index {i} out of range [1, {bits}]")
    return (value >> (bits - i)) & 1


def prefix_bits(value: int, i: int, bits: int) -> str:
    """Return ``v_{|i-1}``: the string of bits 1..i-1 of ``value``.

    For ``i == 1`` this is the empty prefix, matching the paper where the
    first tuple carries no prefix.
    """
    if not 1 <= i <= bits:
        raise ParameterError(f"bit index {i} out of range [1, {bits}]")
    return "".join(str(bit_at(value, k, bits)) for k in range(1, i))


def to_bits(value: int, bits: int) -> str:
    """Render ``value`` as a ``bits``-character binary string (MSB first)."""
    check_value_fits(value, bits)
    return format(value, f"0{bits}b")


def from_bits(bit_str: str) -> int:
    """Parse an MSB-first binary string back into an integer."""
    if bit_str == "":
        return 0
    if any(c not in "01" for c in bit_str):
        raise ParameterError(f"not a binary string: {bit_str!r}")
    return int(bit_str, 2)


def first_differing_bit(x: int, y: int, bits: int) -> int | None:
    """Return the smallest 1-based index where ``x`` and ``y`` differ.

    Returns ``None`` when the values are equal.  This is exactly the quantity
    the paper's leakage discussion (Section VI.A) says SORE reveals among
    tokens or among ciphertexts.
    """
    check_value_fits(x, bits)
    check_value_fits(y, bits)
    if x == y:
        return None
    diff = x ^ y
    return bits - diff.bit_length() + 1


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR of two equal-length strings (index payload masking)."""
    if len(a) != len(b):
        raise ParameterError(f"xor_bytes length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def int_to_bytes(value: int, length: int | None = None) -> bytes:
    """Big-endian byte encoding; minimal length unless ``length`` is given."""
    if value < 0:
        raise ParameterError("cannot encode negative integers")
    if length is None:
        length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Inverse of :func:`int_to_bytes`."""
    return int.from_bytes(data, "big")
