"""The resume tape: replayable inputs for guest generator frames.

Guest programs are Python generators; their suspended stack frames are
the one piece of run state that cannot be serialized.  They *can* be
reconstructed, though, because guest code is pure between yields: it
touches only its own locals, ``proc.memory``, ``proc.argv`` and
``proc.env`` — never the kernel — so re-driving a fresh generator with
the exact sequence of values/exceptions the kernel originally sent it
lands it in an identical suspended frame.

The tape is that sequence, recorded in *global* order across all
threads (interleaving matters: guests read shared ``proc.memory``
between yields).  Entry kinds:

``("send", tid, value)`` / ``("throw", tid, exc)``
    One pass through the kernel's generator choke point.
``("push", tid, signum, saved_value, saved_exc)``
    A signal-handler frame push, with the (value, exc) pair the kernel
    saved in ``Thread.saved_resumes``.
``("spawn", tid, path, argv, env)`` / ``("exec", tid, path, argv, env)``
    Root-frame creation at boot/fork-exec and at execve.  argv/env are
    copied *at record time*: replayed guest code must observe the
    historical values, not whatever a later execve installed.
``("tspawn", tid, caller_tid)``
    A sibling-thread spawn; the guest function is recovered during
    fast-forward from the caller's suspended ``spawn_thread`` op.
``("sigact", tid, signum)``
    A ``sigaction`` syscall *executed* (distinct from yielded: under the
    tracer the execution may happen well after the yield, or never).
    Fast-forward applies the handler update here and computes the old
    disposition itself — which is how unserializable handler callables
    round-trip (see :data:`OPAQUE`).

Values are recorded with a shallow copy (guests mutate received lists
in place, e.g. sorting a dirent batch) and *encoded* only at snapshot
time: exceptions become rebuildable capsules, callables/generators
become the :data:`OPAQUE` sentinel, which decode substitutes from
replay-derived state.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple


class _Opaque:
    """Sentinel for values that cannot cross a snapshot (callables,
    generators).  The only such value a guest ever receives back from
    the kernel is a previously-installed signal handler (the old
    disposition returned by ``sigaction``); restore substitutes it from
    the fast-forward's own handler reconstruction."""

    _instance: Optional["_Opaque"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<opaque>"

    def __reduce__(self):
        return (_Opaque, ())


OPAQUE = _Opaque()


def shallow_copy(value: Any) -> Any:
    """Record-time copy guarding against in-place guest mutation."""
    if isinstance(value, list):
        return list(value)
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, bytearray):
        return bytes(value)
    return value


def encode_value(value: Any) -> Any:
    """Snapshot-time encoding: make *value* picklable.

    Exceptions become ``("exc", module, qualname, args, dict)`` capsules
    rebuilt without calling ``__init__`` (kernel errors like
    ``SyscallError`` have custom constructor signatures).  Callables and
    generators become :data:`OPAQUE`.  Containers recurse shallowly.
    """
    if isinstance(value, BaseException):
        return ("exc", type(value).__module__, type(value).__qualname__,
                tuple(encode_value(a) for a in value.args),
                {k: encode_value(v) for k, v in vars(value).items()
                 if k not in ("__traceback__",)})
    if callable(value) or hasattr(value, "send"):
        return OPAQUE
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, tuple):
        return tuple(encode_value(v) for v in value)
    if isinstance(value, dict):
        return {k: encode_value(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return type(value)(encode_value(v) for v in value)
    if isinstance(value, bytearray):
        return bytes(value)
    return value


def _resolve_exc_class(module: str, qualname: str):
    import importlib

    try:
        mod = importlib.import_module(module)
        obj: Any = mod
        for part in qualname.split("."):
            obj = getattr(obj, part)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            return obj
    except Exception:
        pass
    return RuntimeError


def decode_value(value: Any, opaque_sub: Optional[Callable[[], Any]] = None) -> Any:
    """Invert :func:`encode_value`.

    *opaque_sub*, when given, supplies the live replacement for an
    :data:`OPAQUE` sentinel (the fast-forward's pending old-handler
    slot).  An OPAQUE with no substitution available is a checkpoint
    the restore cannot honour.
    """
    if value is OPAQUE or isinstance(value, _Opaque):
        if opaque_sub is None:
            raise ValueError("opaque value in snapshot with no substitution")
        return opaque_sub()
    if isinstance(value, tuple):
        if len(value) == 5 and value[0] == "exc" and isinstance(value[1], str):
            _tag, module, qualname, args, state = value
            cls = _resolve_exc_class(module, qualname)
            exc = cls.__new__(cls)
            exc.args = tuple(decode_value(a, opaque_sub) for a in args)
            for k, v in state.items():
                try:
                    setattr(exc, k, decode_value(v, opaque_sub))
                except Exception:
                    pass
            return exc
        return tuple(decode_value(v, opaque_sub) for v in value)
    if isinstance(value, list):
        return [decode_value(v, opaque_sub) for v in value]
    if isinstance(value, dict):
        return {k: decode_value(v, opaque_sub) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return type(value)(decode_value(v, opaque_sub) for v in value)
    return value


def encode_tape(entries: List[Tuple]) -> List[Tuple]:
    """Snapshot-time encoding of the whole tape."""
    out: List[Tuple] = []
    for entry in entries:
        kind = entry[0]
        if kind == "send":
            out.append(("send", entry[1], encode_value(entry[2])))
        elif kind == "throw":
            out.append(("throw", entry[1], encode_value(entry[2])))
        elif kind == "push":
            out.append(("push", entry[1], entry[2],
                        encode_value(entry[3]), encode_value(entry[4])))
        else:  # spawn / exec / tspawn / sigact: already plain data
            out.append(entry)
    return out
