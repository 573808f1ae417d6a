"""Run keys: the content address of one container run.

DetTrace's thesis makes a container run a *pure function* of its
inputs: the initial filesystem state (the image), the container
configuration, the program and its argv/environment, and — for the few
surfaces a config may deliberately leave un-determinized — the machine
the run executes on.  :func:`run_key` hashes exactly those inputs into
one sha256 digest, the address under which ``repro.cache`` memoizes the
run's outcome.

Key composition (the DESIGN "Cache invariants" contract):

* **image fingerprint** — a digest of the image's *declaration*, the
  inputs ``Image.install`` consumes: the directory list and working
  directory; every declared file's path, mode and content hash, in
  declaration order; every registered guest binary and every setup
  function, hashed structurally through its code object (memoized per
  code object) and the closure values and defaults it binds, so
  editing a guest program moves the key; and every published download
  URL body.  Nothing is installed, so nothing host-jittered (boot
  epochs, inode bases) can reach the fingerprint.  The declaration is
  at least as fine as the installed tree: two declarations of one tree
  may get different keys (a miss, never a wrong hit).  Code reached
  only through a module global of a binary or setup function is not
  covered; closure values are keyed by their ``repr``.
* **config fingerprint** — :meth:`ContainerConfig.fingerprint`, which
  already covers every determinism-relevant knob and excludes the
  operational ones (``checkpoint``, ``cache``).
* **program coordinates** — the command path, argv vector and the
  exact environment the guest will see (``config.env_for``).
* **host component** — the machine spec name always (identity files
  like ``/etc/hostname`` may be un-canonicalized by config); when any
  mechanism of :data:`repro.core.config.MECHANISMS` is off the run may
  genuinely depend on the boot, so the *full* host identity joins the
  key and distinct boots simply never collide.
* **code component** — :func:`code_digest`, one digest of every
  ``.py`` source of the ``repro`` package (kernel, handlers, guest
  runtime and libc) and the interpreter version, so only the code that
  wrote an entry can read it back.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import sys
import types
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import MECHANISMS, ContainerConfig
from ..cpu.machine import HostEnvironment

#: The ``repro`` package: the code every run executes.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@functools.lru_cache(maxsize=1)
def code_digest() -> str:
    """One sha256 over ``sys.version`` and every ``.py`` file of the
    ``repro`` package, each as its relative path, length and bytes, in
    path order.  Computed once per process.

    Any edit to the simulator moves every key, which costs misses,
    never a wrong hit.
    """
    sources = []
    for dirpath, _dirnames, filenames in os.walk(_PACKAGE_DIR):
        rel = os.path.relpath(dirpath, _PACKAGE_DIR).replace(os.sep, "/")
        sources.extend((rel + "/" + name, os.path.join(dirpath, name))
                       for name in filenames if name.endswith(".py"))
    h = hashlib.sha256(sys.version.encode())
    for rel, path in sorted(sources):
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(b"%s\0%d\0" % (rel.encode(), len(data)))
        h.update(data)
    return h.hexdigest()


@functools.lru_cache(maxsize=4096)
def _code_digest(code: types.CodeType) -> str:
    """Structural digest of a code object and the code nested in it.

    Memoized: code objects are immutable and compare by value.  Nested
    code is digested structurally, never through ``repr`` (which embeds
    a memory address); other constants are covered by ``repr``, except
    that a frozenset's members are sorted first, since a set literal in
    a membership test compiles to one and its iteration order follows
    the hash seed.
    """
    h = hashlib.sha256(code.co_code)
    h.update(repr((code.co_names, code.co_varnames,
                   code.co_argcount)).encode())
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            h.update(_code_digest(const).encode())
        elif isinstance(const, frozenset):
            h.update(repr(sorted(map(repr, const))).encode())
        else:
            h.update(repr(const).encode())
    return h.hexdigest()


def _code_fingerprint(fn: Any, reprs: Dict[int, Tuple[Any, bytes]],
                      _depth: int = 0) -> str:
    """Digest of a callable: its code and the values its closure and
    defaults bind (the ``with_args`` bindings of every workload binary),
    or just its code digest when it binds nothing.  Builtins and
    callables without code fall back to their qualified name."""
    code = getattr(fn, "__code__", None)
    if code is None or _depth > 8:
        return _sha(repr(getattr(fn, "__qualname__", fn)).encode())
    closure = getattr(fn, "__closure__", None)
    defaults = (getattr(fn, "__defaults__", None),
                getattr(fn, "__kwdefaults__", None))
    if closure is None and defaults == (None, None):
        return _code_digest(code)
    h = hashlib.sha256(_code_digest(code).encode())
    for cell in closure or ():
        _hash_value(h, cell.cell_contents, reprs, _depth)
    _hash_value(h, defaults, reprs, _depth)
    return h.hexdigest()


def _hash_value(h, value: Any, reprs: Dict[int, Tuple[Any, bytes]],
                depth: int) -> None:
    """Feed one bound value to *h* as a self-delimiting item: a tuple
    item by item, a callable by its fingerprint, anything else by its
    length-prefixed ``repr``, so no two value lists feed *h* alike.
    *reprs* memoizes each ``repr`` for one image by ``id`` and holds the
    object, so the id stays unique: every binary of a package binds the
    same spec."""
    if type(value) is tuple:
        h.update(b"T%d|" % len(value))
        for item in value:
            _hash_value(h, item, reprs, depth)
    elif callable(value):
        h.update(b"F" + _code_fingerprint(value, reprs, depth + 1).encode())
    else:
        entry = reprs.get(id(value))
        if entry is None:
            entry = reprs[id(value)] = (value, repr(value).encode())
        h.update(b"R%d|" % len(entry[1]))
        h.update(entry[1])


def image_fingerprint(image, working_dir: str = "/build") -> str:
    """Digest of *image*'s declaration: what ``Image.install`` consumes,
    in the order it consumes it (a later file on one path replaces an
    earlier one's bytes but keeps its mode).  Nothing is installed."""
    reprs: Dict[int, Tuple[Any, bytes]] = {}
    declaration = {
        "dirs": image._dirs,
        "working_dir": working_dir,
        "files": [[path, mode, _sha(data)]
                  for path, data, mode in image._files],
        "binaries": {path: _code_fingerprint(fn, reprs)
                     for path, fn in image.registry._programs.items()},
        "urls": {url: _sha(body) for url, body in image._urls.items()},
        "setup": [_code_fingerprint(fn, reprs) for fn in image._setup_fns],
    }
    return _sha(json.dumps(declaration, sort_keys=True).encode("utf-8"))


def _host_component(config: ContainerConfig,
                    host: HostEnvironment) -> Dict[str, Any]:
    component: Dict[str, Any] = {"machine": host.machine.name}
    if not all(getattr(config, name) for name in MECHANISMS):
        # An ablated run may observe the boot: key on all of it.
        component.update({
            "boot_epoch": host.boot_epoch,
            "entropy_seed": host.entropy_seed,
            "pid_start": host.pid_start,
            "inode_start": host.inode_start,
            "dirent_hash_salt": host.dirent_hash_salt,
        })
    return component


@dataclasses.dataclass(frozen=True)
class RunKey:
    """The content address of one (image, config, program, host) run."""

    digest: str
    components: Dict[str, Any] = dataclasses.field(default_factory=dict,
                                                   hash=False, compare=False)

    def __str__(self) -> str:
        return self.digest


def run_key(image, config: ContainerConfig, command: str,
            argv: Optional[List[str]], host: HostEnvironment) -> RunKey:
    """Compute the :class:`RunKey` for ``DetTrace(config).run(image,
    command, argv, host)``."""
    components = {
        "code": code_digest(),
        "image": image_fingerprint(image, config.working_dir),
        "config": config.fingerprint(),
        "command": command,
        "argv": list(argv) if argv is not None else [command],
        "env": config.env_for(host.env),
        "host": _host_component(config, host),
    }
    blob = json.dumps(components, sort_keys=True).encode("utf-8")
    return RunKey(digest=_sha(blob), components=components)
