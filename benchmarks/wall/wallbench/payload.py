"""Deterministic payloads and the reference model they are checked against.

Every page a workload writes is a pure function of ``(seed, op_id,
page-in-op)``: a 16-byte header naming the op and the page, followed by a
slice of one seeded random pool.  Expected bytes are therefore *recomputed*
when a read is verified — the benchmark never holds a second copy of a blob
— and any page read back can be checked for tearing on its own, without
knowing which version it came from.
"""

from __future__ import annotations

import random
import struct

#: magic, op id, page-in-op, 6 pad bytes.
HEADER = struct.Struct("<4sIH6x")
MAGIC = b"BSWB"
POOL_BYTES = 1 << 20


class Payloads:
    """Page and patch bytes for one ``(seed, page_size)``."""

    def __init__(self, seed: int, page_size: int):
        self.page_size = page_size
        self.body_bytes = page_size - HEADER.size
        self.pool = random.Random(f"wallbench-{seed}").randbytes(
            POOL_BYTES + page_size
        )

    @staticmethod
    def body_start(op_id: int, index: int) -> int:
        """Where in the pool the body of a page starts."""
        return (op_id * 2654435761 + index * 40503) % POOL_BYTES

    def page(self, op_id: int, index: int) -> bytes:
        """The full page ``index`` of whole-page update ``op_id``."""
        start = self.body_start(op_id, index)
        return (
            HEADER.pack(MAGIC, op_id, index)
            + self.pool[start:start + self.body_bytes]
        )

    def pages(self, op_id: int, count: int) -> bytes:
        return b"".join(self.page(op_id, index) for index in range(count))

    def patch(self, op_id: int, size: int) -> bytes:
        """The bytes of unaligned (sub-page) update ``op_id``."""
        start = self.body_start(op_id, 0xFFFF)
        return self.pool[start:start + size]

    def page_is_intact(self, data: bytes, start: int = 0) -> bool:
        """True when the page at ``data[start:]`` is exactly one page some
        whole-page update wrote — not torn between two updates, not
        corrupted."""
        magic, op_id, index = HEADER.unpack_from(data, start)
        body = self.body_start(op_id, index)
        return magic == MAGIC and data.startswith(
            self.pool[body:body + self.body_bytes], start + HEADER.size
        )


class Reference:
    """What every page of a blob's newest version must contain.

    Pages are kept as *recipes* — ``(op_id, page-in-op, patches)`` — not as
    bytes; updates are folded in version order.  Recipes are immutable
    tuples, so :meth:`frozen` (the expected content of the version current
    at the time of the call) is a shallow list copy.
    """

    def __init__(self, payloads: Payloads):
        self._payloads = payloads
        self._pages: list[tuple[int, int, tuple]] = []

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def size(self) -> int:
        return len(self._pages) * self._payloads.page_size

    def frozen(self) -> "Reference":
        copy = Reference(self._payloads)
        copy._pages = list(self._pages)
        return copy

    def append(self, op_id: int, count: int) -> None:
        self._pages.extend((op_id, index, ()) for index in range(count))

    def write(self, first_page: int, op_id: int, count: int) -> None:
        for index in range(count):
            self._pages[first_page + index] = (op_id, index, ())

    def patch(self, offset: int, op_id: int, size: int) -> None:
        """Fold an unaligned write of ``size`` bytes at byte ``offset``."""
        page_size = self._payloads.page_size
        done = 0
        while done < size:
            page, start = divmod(offset + done, page_size)
            length = min(size - done, page_size - start)
            writer, index, patches = self._pages[page]
            self._pages[page] = (
                writer, index, patches + ((start, op_id, done, length, size),)
            )
            done += length

    def page_bytes(self, page: int) -> bytes:
        writer, index, patches = self._pages[page]
        data = self._payloads.page(writer, index)
        if not patches:
            return data
        patched = bytearray(data)
        for start, op_id, skip, length, size in patches:
            patched[start:start + length] = self._payloads.patch(op_id, size)[
                skip:skip + length
            ]
        return bytes(patched)

    def matches(self, data: bytes, offset: int) -> bool:
        """True when ``data`` is what bytes ``[offset, offset + len(data))``
        must read as.  Compared page by page, in place: the expected bytes
        of a whole read are never assembled."""
        payloads = self._payloads
        page_size = payloads.page_size
        position = 0
        while position < len(data):
            page, low = divmod(offset + position, page_size)
            high = min(page_size, low + len(data) - position)
            writer, index, patches = self._pages[page]
            if patches or low < HEADER.size:
                piece = self.page_bytes(page)[low:high]
            else:
                body = payloads.body_start(writer, index) - HEADER.size
                piece = payloads.pool[body + low:body + high]
            if not data.startswith(piece, position):
                return False
            position += high - low
        return True
