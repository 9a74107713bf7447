"""Random number generation for stimuli.

The paper offloads random number generation to the FPGA because "reading
a 32 bit random number from the FPGA is noticeably faster compared to
the standard rand() function in C" — worth "an extra 50 % simulation
speed" (section 8).  :class:`HardwareLfsr` models the FPGA block: a
32-bit Galois LFSR (maximal-length polynomial), bit-exact and cheap to
synthesise.  :class:`SoftwareRand` models the C ``rand()`` it replaced
(the classic BSD linear congruential generator), so the RNG-offload
ablation benchmark compares the real algorithms.
"""

from __future__ import annotations

import functools

import numpy as np

#: Maximal-length 32-bit Galois LFSR feedback mask (taps 32, 30, 26, 25 —
#: polynomial 0xA3000000 reversed for right-shift form).
GALOIS_MASK = 0xA3000000


def _shift_once(state: int) -> int:
    lsb = state & 1
    state >>= 1
    if lsb:
        state ^= GALOIS_MASK
    return state


def _build_jump_tables():
    """Byte lookup tables for jumping the LFSR 32 steps at once.

    The 32-step advance is linear over GF(2), so the new state is the
    XOR of per-byte images: precompute the image of every byte value at
    every byte position (4 x 256 words), exactly the trick a software
    CRC uses.  :meth:`HardwareLfsr.next_u32` stays bit-identical to 32
    single shifts (asserted by the test suite).
    """
    # image of each single-bit state after 32 shifts
    bit_image = []
    for bit in range(32):
        s = 1 << bit
        for _ in range(32):
            s = _shift_once(s)
        bit_image.append(s)
    tables = []
    for byte_pos in range(4):
        table = []
        for value in range(256):
            image = 0
            for bit in range(8):
                if (value >> bit) & 1:
                    image ^= bit_image[byte_pos * 8 + bit]
            table.append(image)
        tables.append(tuple(table))
    return tuple(tables)


_JUMP = _build_jump_tables()


def _single_shift_map(mask: int, width: int):
    """Images of each basis state under one right-shift step.

    The Galois step is linear over GF(2): characterise it by where it
    sends each single-bit state.  Bit 0 carries the feedback (the lsb
    pops out and XORs the mask in); every other bit just moves right.
    """
    images = []
    for bit in range(width):
        state = 1 << bit
        lsb = state & 1
        state >>= 1
        if lsb:
            state ^= mask
        images.append(state)
    return images


def _apply_map(images, state: int) -> int:
    out = 0
    bit = 0
    while state:
        if state & 1:
            out ^= images[bit]
        state >>= 1
        bit += 1
    return out


def _compose_map(outer, inner):
    """The map ``x -> outer(inner(x))`` (matrix product over GF(2))."""
    return [_apply_map(outer, image) for image in inner]


def lfsr_jump(state: int, steps: int, mask: int = GALOIS_MASK, width: int = 32) -> int:
    """Closed-form image of ``steps`` single LFSR shifts.

    Square-and-multiply on the GF(2) shift matrix: O(width^2 log steps)
    instead of O(steps), bit-identical to iterating :func:`_shift_once`
    ``steps`` times (the hypothesis suite asserts this over random
    widths, tap masks and distances).  This is what lets quiescence
    fast-forward advance the traffic RNG over a skipped window, and the
    farm cross-check a resumed checkpoint's RNG against its word count.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if not 0 <= state < (1 << width):
        raise ValueError(f"state must be a {width}-bit value")
    acc = _single_shift_map(mask, width)
    result = state
    while steps:
        if steps & 1:
            result = _apply_map(acc, result)
        steps >>= 1
        if steps:
            acc = _compose_map(acc, acc)
    return result


#: register reads the C traffic scan looks ahead per dependency step
#: (``repro_gen_be`` unrolls them by hand).
LOOKAHEAD = 4


@functools.lru_cache(maxsize=None)
def lookahead_tables():
    """Byte tables of ``J^1 .. J^LOOKAHEAD``, ``J`` one register read.

    ``[LOOKAHEAD, 4, 256]`` ``uint32``: row ``k - 1`` holds the images
    of every byte value at every byte position after ``k`` reads, so
    the ``k``-th next word of a state is four lookups XORed — and the
    ``LOOKAHEAD`` next words are independent of one another.  Built by
    composing the GF(2) step map (five squarings for one read, one
    product per further row), never by stepping; the result is shared
    and read-only.
    """
    read = _single_shift_map(GALOIS_MASK, 32)
    for _ in range(5):  # 2**5 shifts
        read = _compose_map(read, read)
    bits = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(np.uint32)
    tables = np.empty((LOOKAHEAD, 4, 256), dtype=np.uint32)
    images = read
    for row in tables:
        columns = np.array(images, dtype=np.uint32).reshape(4, 1, 8)
        row[:] = np.bitwise_xor.reduce(bits * columns, axis=2)  # [value, bit]
        images = _compose_map(read, images)
    if tables[0].tolist() != [list(table) for table in _JUMP]:
        raise AssertionError("composed jump tables differ from the stepped ones")
    tables.setflags(write=False)
    return tables


class HardwareLfsr:
    """The FPGA's 32-bit LFSR random number generator.

    One :meth:`next_u32` corresponds to one read of the RNG register
    through the memory interface (32 shifts happen inside the FPGA
    between reads, so successive words are decorrelated).
    """

    def __init__(self, seed: int = 0xDEADBEEF) -> None:
        if not 0 < seed < 2**32:
            raise ValueError("seed must be a non-zero 32-bit value")
        self.state = seed
        self.words_read = 0

    def _shift(self) -> int:
        lsb = self.state & 1
        self.state = _shift_once(self.state)
        return lsb

    def next_u32(self) -> int:
        """Advance 32 shifts and return the register value."""
        s = self.state
        self.state = (
            _JUMP[0][s & 0xFF]
            ^ _JUMP[1][(s >> 8) & 0xFF]
            ^ _JUMP[2][(s >> 16) & 0xFF]
            ^ _JUMP[3][s >> 24]
        )
        self.words_read += 1
        return self.state

    def jump(self, words: int) -> int:
        """Advance ``words`` register reads in closed form.

        Bit-identical to calling :meth:`next_u32` ``words`` times (each
        read is 32 shifts, so this is one ``lfsr_jump`` of ``32*words``
        steps) but O(log words).  Returns the new state — the value the
        last of those reads would have returned (for ``words == 0`` the
        state is unchanged).
        """
        if words < 0:
            raise ValueError("words must be non-negative")
        if words:
            self.state = lfsr_jump(self.state, 32 * words)
            self.words_read += words
        return self.state

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        span = (2**32 // bound) * bound
        while True:
            value = self.next_u32()
            if value < span:
                return value % bound

    def bernoulli(self, probability: float) -> bool:
        """True with the given probability (16.16 fixed-point threshold,
        as the hardware comparator would implement it)."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        threshold = int(probability * 2**32)
        return self.next_u32() < threshold


class SoftwareRand:
    """The C standard library ``rand()`` the ARM used before offloading:
    the classic BSD/glibc TYPE_0 linear congruential generator."""

    RAND_MAX = 0x7FFFFFFF

    def __init__(self, seed: int = 1) -> None:
        self.state = seed & 0x7FFFFFFF
        self.calls = 0

    def rand(self) -> int:
        self.state = (self.state * 1103515245 + 12345) & 0x7FFFFFFF
        self.calls += 1
        return self.state

    def next_u32(self) -> int:
        """Two calls to build a 32-bit word (rand() yields 31 bits)."""
        high = self.rand() & 0xFFFF
        low = self.rand() & 0xFFFF
        return (high << 16) | low

    def next_below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.rand() % bound

    def bernoulli(self, probability: float) -> bool:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        return self.rand() < probability * self.RAND_MAX
