"""Mutation epochs: the dirty-tracking clock behind incremental snapshots.

Every kernel object that the checkpoint plane captures carries a
``dirty_epoch`` stamp.  A :class:`MutationClock` hands out monotonically
increasing ticks; mutating an object stamps it with the current tick and
registers it in the owner's dirty set.  At a checkpoint barrier the
snapshot layer asks "what moved since the last barrier?" and enumerates
exactly the stamped objects — O(changed), never O(state).

The clock is deliberately *per owner* (one per :class:`Filesystem`), not
process-global: the diagnosis plane routinely runs two kernels side by
side in one interpreter, and their dirty sets must not interleave.

Invariants the checkpoint plane relies on:

* Stamps only ever grow; ``advance()`` at a barrier fences the epoch so
  post-barrier mutations are distinguishable from pre-barrier ones.
* Stamping is *observation-free*: nothing in the kernel ever branches on
  a ``dirty_epoch``, so tracking cannot perturb guest-visible behaviour
  (the resume-identity gate depends on this).
"""

from __future__ import annotations


class Stamp:
    """A host-only version stamp shared by every object whose state one
    checkpoint section holds (a kernel's pipes): each mutation bumps
    ``version``, and a delta snapshot re-captures the section only when
    it moved (:func:`repro.ckpt.snapshot.section_stamps`).  Like dirty
    epochs, stamps are observation-free and never snapshotted."""

    __slots__ = ("version",)

    def __init__(self) -> None:
        self.version = 0


class MutationClock:
    """A monotonic tick source for dirty-epoch stamps."""

    __slots__ = ("_tick",)

    def __init__(self) -> None:
        self._tick = 1

    @property
    def tick(self) -> int:
        """The current epoch: stamps handed out until the next fence."""
        return self._tick

    def advance(self) -> int:
        """Fence the epoch (called at checkpoint barriers); returns the
        epoch that just closed."""
        closed = self._tick
        self._tick += 1
        return closed
