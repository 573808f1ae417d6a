"""Version stamps: the change detectors behind incremental snapshots.

A checkpoint delta re-captures a payload section only when the state
it holds moved since the delta's base.  A :class:`Stamp` is one such
detector for a section whose state is spread over many objects.

Stamping is *observation-free*: nothing in the kernel ever branches on
a stamp, so tracking cannot perturb guest-visible behaviour (the
resume-identity gate depends on this).
"""

from __future__ import annotations


class Stamp:
    """A host-only version stamp shared by every object whose state one
    checkpoint section holds (a kernel's pipes): each mutation bumps
    ``version``, and a delta snapshot re-captures the section only when
    it moved (:func:`repro.ckpt.snapshot.section_stamps`).  Stamps are
    observation-free and never snapshotted."""

    __slots__ = ("version",)

    def __init__(self) -> None:
        self.version = 0
