"""Deterministic fault plans.

A :class:`FaultPlan` is a list of :class:`FaultRule`\\ s keyed exclusively
on *deterministic coordinates* — container pid (nspid), the per-process
syscall index, the syscall name, and container path prefixes.  Wall time
never appears anywhere in a plan: given the same image and the same plan,
every rule fires at exactly the same point of the guest's execution, which
is what makes an injected failure itself reproducible (the paper's
quasi-determinism guarantee, §2/§5.9, exercised as an executable
property by :mod:`repro.faults.verify`).

Plans serialize to/from JSON so the CLI can load them with
``--faults plan.json``::

    {"rules": [
        {"fault": "eio", "syscall": "write", "path_prefix": "/build",
         "start": 4, "count": 3},
        {"fault": "short_read", "syscall": "read", "keep_bytes": 1},
        {"fault": "signal", "signum": 10, "start": 7, "count": 2},
        {"fault": "disk_full", "bytes": 4096},
        {"fault": "eagain", "syscall": "read", "count": 5,
         "transient": true}
    ]}
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..kernel.errors import Errno

#: Fault kinds that inject an errno into the matched syscall.
ERRNO_FAULTS: Dict[str, Errno] = {
    "enospc": Errno.ENOSPC,
    "eio": Errno.EIO,
    "eintr": Errno.EINTR,
    "eagain": Errno.EAGAIN,
    "enfile": Errno.ENFILE,
    "emfile": Errno.EMFILE,
    "enomem": Errno.ENOMEM,
}

#: Fault kinds that truncate an IO transfer instead of failing it.
SHORT_IO_FAULTS = ("short_read", "short_write")

#: Fault kind that delivers a signal at the matched syscall dispatch.
SIGNAL_FAULT = "signal"

#: Fault kind consulted by the filesystem: a deterministic free-space cap
#: keyed on total bytes written (never on wall time).
DISK_FULL_FAULT = "disk_full"

#: Fault kind consulted by the event loop: crash the whole run (as a
#: simulated host kill — OOM, preemption, power loss) at a fixed event
#: tick.  The coordinate is the kernel's event counter, so the crash
#: point is as reproducible as any syscall-level fault; the checkpoint
#: plane (repro.ckpt) uses it to exercise crash-resume identity.
KILL_FAULT = "kill"

#: Every recognised kind, in a fixed documentation order.
ALL_FAULT_KINDS: Tuple[str, ...] = tuple(ERRNO_FAULTS) + SHORT_IO_FAULTS + (
    SIGNAL_FAULT, DISK_FULL_FAULT, KILL_FAULT)

#: Syscalls that ENOMEM targets by default (fork/mmap analogues).
NOMEM_SYSCALLS = ("spawn_process", "spawn_thread", "execve")

#: Syscalls that fd-exhaustion targets by default.
FD_SYSCALLS = ("open", "pipe", "dup", "dup2", "socket", "socketpair",
               "mkfifo", "inotify_init", "perf_event_open")

#: args keys that name container paths (for path_prefix matching).
_PATH_ARGS = ("path", "old", "new", "target", "linkpath", "script")


class FaultPlanError(ValueError):
    """A plan (or plan file) is malformed."""


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One deterministic injection rule.

    Coordinates (all optional filters; a rule with none matches every
    syscall dispatch of every process):

    * ``pid`` — container (namespace) pid;
    * ``syscall`` — a syscall name or tuple of names;
    * ``path_prefix`` — absolute container path prefix, matched against
      path arguments and against the opened path behind fd arguments;
    * ``start``/``stride``/``count`` — the storm window over the
      per-process syscall index: fire at indices ``start``,
      ``start + stride``, … at most ``count`` times per process.
    """

    fault: str
    pid: Optional[int] = None
    syscall: Optional[Tuple[str, ...]] = None
    path_prefix: Optional[str] = None
    start: int = 0
    stride: int = 1
    count: int = 1
    #: For ``signal`` faults: the signal number delivered.
    signum: int = 10
    #: For ``short_read``/``short_write``: bytes allowed through.
    keep_bytes: int = 1
    #: For ``disk_full``: the byte cap on cumulative written data.
    bytes: int = 0
    #: For ``kill``: the event tick at which the run crashes.
    at_tick: Optional[int] = None
    #: Transient rules stop firing after the attempt they are scoped to —
    #: the supervised-run layer's model of "the storm passed"; they make a
    #: failed attempt *retryable*.  ``attempts`` widens the scope: a
    #: transient rule fires on attempts 0..attempts-1.
    transient: bool = False
    attempts: int = 1

    def __post_init__(self):
        if self.fault not in ALL_FAULT_KINDS:
            raise FaultPlanError(
                "unknown fault kind %r (expected one of %s)"
                % (self.fault, ", ".join(ALL_FAULT_KINDS)))
        if self.stride < 1 or self.count < 1 or self.start < 0:
            raise FaultPlanError(
                "rule %r needs start >= 0, stride >= 1, count >= 1" % self.fault)
        if self.fault == DISK_FULL_FAULT and self.bytes <= 0:
            raise FaultPlanError("disk_full rule needs a positive 'bytes' cap")
        if self.fault == KILL_FAULT and (self.at_tick is None
                                         or self.at_tick < 0):
            raise FaultPlanError("kill rule needs 'at_tick' >= 0")
        if self.fault != KILL_FAULT and self.at_tick is not None:
            raise FaultPlanError("'at_tick' only applies to kill rules")

    # -- matching -------------------------------------------------------

    def names(self) -> Optional[Tuple[str, ...]]:
        """The syscall-name filter, defaulted per fault kind."""
        if self.syscall is not None:
            return self.syscall
        if self.fault == "enomem":
            return NOMEM_SYSCALLS
        if self.fault in ("enfile", "emfile"):
            return FD_SYSCALLS
        if self.fault == "short_read":
            return ("read",)
        if self.fault == "short_write":
            return ("write",)
        return None

    def in_window(self, index: int, fired: int) -> bool:
        """Does per-process syscall *index* fall in the storm window,
        given the rule already fired *fired* times for that process?"""
        if fired >= self.count:
            return False
        if index < self.start:
            return False
        return (index - self.start) % self.stride == 0

    def active_on_attempt(self, attempt: int) -> bool:
        """Transient rules model storms that pass: they are scoped to the
        first ``attempts`` supervised attempts only."""
        if not self.transient:
            return True
        return attempt < self.attempts

    @property
    def errno(self) -> Optional[Errno]:
        return ERRNO_FAULTS.get(self.fault)

    # -- (de)serialization ----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"fault": self.fault}
        defaults = FaultRule(fault=self.fault, bytes=self.bytes or 1,
                             at_tick=self.at_tick)
        for field in dataclasses.fields(self):
            if field.name == "fault":
                continue
            value = getattr(self, field.name)
            if field.name == "bytes":
                if self.fault == DISK_FULL_FAULT:
                    out["bytes"] = value
                continue
            if field.name == "at_tick":
                if value is not None:
                    out["at_tick"] = value
                continue
            if value != getattr(defaults, field.name):
                out[field.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FaultRule":
        if not isinstance(raw, dict):
            raise FaultPlanError("fault rule must be an object, got %r" % (raw,))
        data = dict(raw)
        fault = data.pop("fault", None)
        if not isinstance(fault, str):
            raise FaultPlanError("fault rule missing its 'fault' kind: %r" % (raw,))
        syscall: Union[None, str, Sequence[str]] = data.pop("syscall", None)
        if isinstance(syscall, str):
            syscall = (syscall,)
        elif syscall is not None:
            syscall = tuple(str(s) for s in syscall)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise FaultPlanError("unknown fault rule fields: %s"
                                 % ", ".join(sorted(unknown)))
        try:
            return cls(fault=fault, syscall=syscall, **data)
        except TypeError as err:
            raise FaultPlanError("bad fault rule %r: %s" % (raw, err))


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable set of fault rules.

    Rule order matters deterministically: for one syscall dispatch the
    first matching syscall-level rule wins (signal rules are independent
    and all fire).
    """

    rules: Tuple[FaultRule, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))

    def __bool__(self) -> bool:
        return bool(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def disk_cap(self, attempt: int = 0) -> Optional[int]:
        """The tightest ``disk_full`` cap active on *attempt*, if any."""
        caps = [rule.bytes for rule in self.rules
                if rule.fault == DISK_FULL_FAULT and rule.active_on_attempt(attempt)]
        return min(caps) if caps else None

    def kill_tick(self, attempt: int = 0) -> Optional[int]:
        """The earliest ``kill`` tick active on *attempt*, if any."""
        ticks = [rule.at_tick for rule in self.rules
                 if rule.fault == KILL_FAULT and rule.at_tick is not None
                 and rule.active_on_attempt(attempt)]
        return min(ticks) if ticks else None

    # -- (de)serialization ----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"rules": [rule.to_dict() for rule in self.rules]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: Any) -> "FaultPlan":
        if isinstance(raw, list):
            raw = {"rules": raw}
        if not isinstance(raw, dict):
            raise FaultPlanError("fault plan must be an object or list, got %r"
                                 % type(raw).__name__)
        rules = raw.get("rules", [])
        if not isinstance(rules, list):
            raise FaultPlanError("'rules' must be a list")
        return cls(rules=tuple(FaultRule.from_dict(r) for r in rules))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            raw = json.loads(text)
        except ValueError as err:
            raise FaultPlanError("fault plan is not valid JSON: %s" % err)
        return cls.from_dict(raw)

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def storm(fault: str, **kwargs) -> FaultPlan:
    """Convenience: a single-rule plan."""
    return FaultPlan(rules=(FaultRule(fault=fault, **kwargs),))
