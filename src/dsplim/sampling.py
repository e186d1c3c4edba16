"""Deterministic, stream-splittable random streams.

The evaluation harness needs reproducibility that survives parallel
scheduling: every work item (dataset, channel, simulation cell) draws
from its own stream, derived from the user seed plus a stable content
hash of the task coordinates.  Two handles with
the same (seed, stream_id) always produce the same variates; distinct
stream_ids give statistically independent PCG64 streams.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 20090201


def derive_stream_id(kind: str, *indices: int) -> int:
    """Stable 64-bit stream id from a task kind and integer coordinates.

    Uses SHA-256 rather than Python's salted hash() so ids are
    reproducible across processes and runs.
    """
    h = hashlib.sha256()
    h.update(kind.encode("utf-8"))
    for ix in indices:
        h.update(b"\x00")
        h.update(int(ix).to_bytes(16, "little", signed=True))
    return int.from_bytes(h.digest()[:8], "little")


@dataclass
class RngHandle:
    """A single-owner random stream.

    The underlying generator is created lazily from
    SeedSequence(seed, spawn_key=stream_id) and is stateful once used;
    create one handle per work item instead of sharing.
    """

    seed: int = DEFAULT_SEED
    stream_id: int = 0
    _gen: np.random.Generator | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            key = (self.stream_id & 0xFFFFFFFF, self.stream_id >> 32)
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=key)
            self._gen = np.random.Generator(np.random.PCG64(seq))
        return self._gen

    def split(self, kind: str, *indices: int) -> "RngHandle":
        """Fresh handle for a sub-task, independent of this one."""
        return RngHandle(self.seed, derive_stream_id(kind, *indices))
