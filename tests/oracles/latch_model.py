"""One-byte-per-bit model of the latch protocol.

:class:`repro.flash.latches.LatchBank` holds both latches as packed
``uint64`` words.  :class:`BitLatchModel` is the plain reading of
Figures 3, 4 and 6 over 0/1 ``uint8`` pages: initializing the S-latch
fills it with ones, a sense ANDs into it (or stores the complement on
an inverse sense), a transfer ORs it onto the C-latch, and the XOR
command XORs the two.  Tests drive both through the same steps and
compare the unpacked contents.
"""

from __future__ import annotations

import numpy as np


class BitLatchModel:
    """S/C latches as 0/1 byte pages, no protocol checks."""

    def __init__(self, page_bits: int) -> None:
        self.sense = np.zeros(page_bits, dtype=np.uint8)
        self.cache = np.zeros(page_bits, dtype=np.uint8)

    def init_sense(self) -> None:
        self.sense[:] = 1

    def init_cache(self) -> None:
        self.cache[:] = 0

    def capture(self, page: np.ndarray, *, inverse: bool = False) -> None:
        page = np.asarray(page, dtype=np.uint8)
        if inverse:
            self.sense = 1 - page
        else:
            self.sense = self.sense & page

    def transfer_to_cache(self) -> None:
        self.cache = self.cache | self.sense

    def xor_into_cache(self) -> None:
        self.cache = self.cache ^ self.sense

    def load_cache(self, page: np.ndarray) -> None:
        self.cache = np.asarray(page, dtype=np.uint8).copy()

    def run(self, steps, pages) -> "BitLatchModel":
        """Replay a :meth:`LatchBank.capture_batch` step sequence for
        one lane: ``steps`` holds ISCM flag objects (sense steps) and
        ``None`` (the latch XOR command); ``pages`` supplies one 0/1
        page per sense step, in order."""
        pages = iter(pages)
        for step in steps:
            if step is None:
                self.xor_into_cache()
                continue
            if step.init_cache:
                self.init_cache()
            if step.init_sense:
                self.init_sense()
            self.capture(next(pages), inverse=step.inverse)
            if step.transfer:
                self.transfer_to_cache()
        return self
