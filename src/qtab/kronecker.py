"""Polynomials packed into one int: the Kronecker substitution.

A polynomial with integer coefficients is held as its value at q = 2^k (von
zur Gathen & Gerhard, *Modern Computer Algebra*, 8.4): ``+`` adds, ``<< k*s``
multiplies by q^s, an int product multiplies and a mask of the low k*(c+1)
bits truncates above degree c.  Int arithmetic is exact for every k; k
matters where digits are read.  Once every coefficient lies in [0, 2^k), the
base-2^k digits are the coefficients (``digits``); once every one lies in
[-2^(k-1), 2^(k-1)), so are the balanced digits (``balanced``).

Every k is a whole number of bytes, k = 8 * step, and ``step_above`` is the
one width rule: the fewest bytes that put a bound below 2^k.  Digits of 1, 2,
4 or 8 bytes are read by one buffer cast of the int's bytes, digits of 3, 5,
6 or 7 bytes by a cast once each is padded to a native word, and wider ones
by ``struct.iter_unpack``; all are linear in the number of digits."""

from __future__ import annotations

import struct
import sys
from itertools import repeat
from operator import itemgetter
from typing import Sequence

# the format of a native unsigned int, per size in bytes
_CASTS = {memoryview(bytes(8)).cast(fmt).itemsize: fmt for fmt in "BHIQ"}
# the narrowest native word that holds a digit of up to 8 bytes; the casts
# read little-endian bytes only on a little-endian host
_WORD = {step: min(size for size in _CASTS if size >= step) for step in range(1, 9)}
if sys.byteorder != "little":
    _WORD = {}


def step_above(bound: int) -> int:
    """The fewest bytes per digit, at least 1, with 2^(8*step) > bound >= 0."""
    return (bound.bit_length() + 7) // 8 or 1


def pack(coeffs: Sequence[int], step: int) -> int:
    """The polynomial with these coefficients (index = exponent of q)
    evaluated at q = 2^(8*step), by Horner's rule."""
    value, k = 0, 8 * step
    for c in reversed(coeffs):
        value = (value << k) + c
    return value


def digits(value: int, step: int) -> list[int]:
    """The base-2^(8*step) digits of value >= 0, least significant first."""
    return _read(value, step, -(-value.bit_length() // (8 * step)))


def balanced(value: int, step: int) -> list[int]:
    """The digits in [-2^(8*step - 1), 2^(8*step - 1)) of value, least
    significant first, possibly ending in zeros: adding 2^(8*step - 1) at
    every digit moves them into [0, 2^(8*step)), where they read as plain
    digits."""
    count = (abs(value).bit_length() + 1) // (8 * step) + 1
    halves = int.from_bytes((bytes(step - 1) + b"\x80") * count, "little")
    half = 1 << 8 * step - 1
    return [d - half for d in _read(value + halves, step, count)]


def _read(value: int, step: int, count: int) -> list[int]:
    """The count lowest base-2^(8*step) digits of value >= 0."""
    raw = value.to_bytes(step * count, "little")
    size = _WORD.get(step)
    if size is None:
        chunks = map(itemgetter(0), struct.iter_unpack(f"{step}s", raw))
        return list(map(int.from_bytes, chunks, repeat("little")))
    if size != step:
        words = bytearray(size * count)
        for b in range(step):
            words[b::size] = raw[b::step]
        raw = words
    return memoryview(raw).cast(_CASTS[size]).tolist()
