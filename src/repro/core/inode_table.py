"""Virtual inode and mtime tables (paper §5.5).

Real inode numbers are irreproducible (allocation order, recycling), yet
programs compare them to detect identical files — so DetTrace maintains a
lazily-populated map from real inodes to dense virtual inodes, and a
parallel map to virtual mtimes:

* files that existed in the initial container image get virtual mtime 0;
* files created during the run get the next value of a virtual mtime
  clock (so configure-style skew checks see sensible, increasing times);
* when the OS recycles a real inode for a *new* file, the stale mapping
  must be replaced, which is why creation is detected at ``open`` by
  comparing path existence before and after (§5.5).
"""

from __future__ import annotations

from typing import Dict, Optional


class InodeTable:
    """real inode -> (virtual inode, virtual mtime)."""

    FIRST_VIRTUAL_INO = 1

    def __init__(self):
        self._vino: Dict[int, int] = {}
        self._vmtime: Dict[int, int] = {}
        self._next_vino = self.FIRST_VIRTUAL_INO
        self._mtime_clock = 0

    # -- virtual inodes -----------------------------------------------------

    def virtual_ino(self, real_ino: int) -> int:
        """Map lazily: unseen inodes existed in the initial image."""
        if real_ino not in self._vino:
            self._vino[real_ino] = self._next_vino
            self._next_vino += 1
        return self._vino[real_ino]

    def register_new_file(self, real_ino: int) -> int:
        """A file was just created, possibly on a recycled real inode.

        Always allocates a fresh virtual inode (dropping any stale
        mapping) and stamps the file with the next virtual mtime.
        """
        self._vino[real_ino] = self._next_vino
        self._next_vino += 1
        self._mtime_clock += 1
        self._vmtime[real_ino] = self._mtime_clock
        return self._vino[real_ino]

    # -- virtual mtimes --------------------------------------------------------

    def virtual_mtime(self, real_ino: int) -> int:
        """0 for initial-image files, else the creation-time stamp."""
        return self._vmtime.get(real_ino, 0)

    def touch(self, real_ino: int) -> int:
        """An explicit utime: stamp the file with the next virtual mtime
        (the "could easily be added" extension of §5.5 that keeps
        touch-driven rebuilds working)."""
        self._mtime_clock += 1
        self._vmtime[real_ino] = self._mtime_clock
        return self._mtime_clock

    @property
    def mappings(self) -> int:
        return len(self._vino)

    @property
    def mtime_clock(self) -> int:
        return self._mtime_clock
