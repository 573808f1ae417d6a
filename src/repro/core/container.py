"""The DetTrace container facade and the native baseline runner.

``DetTrace.run(image, command)`` is the library's primary entry point: it
boots a fresh simulated kernel from the image, attaches the determinizing
tracer, runs the command tree to completion and returns a
:class:`ContainerResult` whose output tree is — by the paper's thesis — a
pure function of the image and the container configuration.

``DetTrace.run_supervised`` layers a babysitter on top: bounded retry
with deterministic virtual-time backoff for failures classified as
transient by the fault plane, and graceful degradation everywhere — any
abort still yields the partial output tree plus a structured
:class:`~repro.faults.report.CrashReport`.

``NativeRunner`` executes the same image with no tracer at all, observing
the full irreproducibility of the host (the reprotest baseline).

Neither runner ever lets an exception unwind out of a run: every failure
mode — timeout, deadlock, unsupported operation, kernel panic, injected
fault storm — maps to a classified status (the paper's quasi-determinism
contract, §2/§5.9: a run either reproduces or fails *reproducibly*).
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Dict, List, Optional

from ..cpu.machine import HostEnvironment
from ..faults.report import AttemptRecord, CrashReport
from ..kernel.errors import DeadlockError, KernelPanic, SimTimeout
from ..kernel.kernel import EVENTS_PROCESSED, SYSCALL_PREFIX, Kernel
from ..obs.collector import Collector
from ..obs.metrics import Metrics
from ..obs.trace import TraceLog
from ..tracer.events import TraceCounters
from .config import ContainerConfig, FIXED_ASLR_BASE
from .errors import (
    BusyWaitError,
    ContainerError,
    ContainerTimeout,
    UnsupportedSyscallError,
)
from .image import Image, canonicalize_identity_files
from .namespaces import UidGidMap
from .tracer import DetTraceTracer

#: Result status values.
OK = "ok"
UNSUPPORTED = "unsupported"
TIMEOUT = "timeout"
DEADLOCK = "deadlock"
#: The run aborted outside the classified set — kernel panic, event-budget
#: livelock, or an unclassified internal error — but was still degraded
#: into a result instead of unwinding.
CRASHED = "crashed"
#: A supervised run failed transiently and then succeeded on a retry.
RETRIED = "retried"
#: The run completed after resuming from a crash-consistent checkpoint
#: (repro.ckpt) instead of restarting from scratch.
RESUMED = "resumed"

#: Statuses under which the guest completed with an exit status.
_SUCCESS_STATUSES = (OK, RETRIED, RESUMED)


@dataclasses.dataclass
class ContainerResult:
    """Everything observable from one run."""

    status: str
    exit_code: Optional[int]
    error: str
    stdout: str
    stderr: str
    #: {path relative to the build dir: file bytes} — the artifacts.
    output_tree: Dict[str, bytes]
    #: The Table 2 view of the run's counters; None when no tracer ran.
    counters: Optional[TraceCounters]
    syscall_count: int
    #: Virtual wall-clock duration of the whole run.
    wall_time: float
    host: HostEnvironment
    #: --debug trace lines (empty unless ContainerConfig.debug > 0).
    #: A rendered-string compatibility view over the structured events.
    debug_log: List[str] = dataclasses.field(default_factory=list)
    #: Deterministic observability snapshot (repro.obs) — populated on
    #: every exit path, including crashes, so metrics and crash reports
    #: always agree.
    metrics: Optional[Metrics] = None
    #: Structured event trace (repro.obs.trace), present only when
    #: ``ContainerConfig.observe`` was set.  ``trace.to_json()`` is
    #: byte-identical across reruns of the same image + config + plan.
    trace: Optional[TraceLog] = None
    #: How many supervised attempts produced this result (1 = no retry).
    attempts: int = 1
    #: Did transient-classified fault rules fire during the (final) run?
    transient_faults: bool = False
    #: Structured account of failures/injections (None for clean runs).
    crash_report: Optional[CrashReport] = None
    #: Filesystem hot-path cache counters (resolve/dirent hits+misses)
    #: for perf tracking; purely diagnostic, never part of the
    #: reproducible output surface.
    fs_cache_stats: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Run-cache disposition (repro.cache), None when no cache was in
    #: play: {"outcome": "hit"|"miss"|"store"|"verify_ok"|
    #: "verify_mismatch"|"uncacheable", "key": <run-key digest>,
    #: "executed": bool, ...}; verify mismatches also carry "report"
    #: (a DivergenceReport), and a store the cache directory refused
    #: carries "error".
    #: Purely operational — never part of the reproducible surface.
    cache: Optional[Dict[str, Any]] = None

    @property
    def succeeded(self) -> bool:
        return self.status in _SUCCESS_STATUSES and self.exit_code == 0

    @property
    def syscall_rate(self) -> float:
        """Syscalls per virtual second (Figure 5's x-axis)."""
        if self.wall_time <= 0:
            return 0.0
        return self.syscall_count / self.wall_time


def _decode_exit(proc, status: str, error: str):
    """Exit code for a normal exit; None (with a note) for signal death."""
    if proc is None or status not in _SUCCESS_STATUSES or proc.exit_status is None:
        return None, error
    signal = proc.exit_status & 0x7F
    if signal:
        return None, error or ("init killed by signal %d" % signal)
    return (proc.exit_status >> 8) & 0xFF, error


def _collect_output_tree(kernel: Kernel, build_dir: str) -> Dict[str, bytes]:
    """Files under *build_dir*, keyed by path relative to it."""
    out: Dict[str, bytes] = {}
    prefix = build_dir.rstrip("/") + "/"
    for path, content in kernel.fs.snapshot().items():
        if path.startswith(prefix):
            out[path[len(prefix):]] = content
    return out


def _classify(err: BaseException):
    """Map an exception escaping the kernel loop to a (status, error)."""
    from ..faults.injector import KilledAtTick

    if isinstance(err, KilledAtTick):
        return CRASHED, str(err)
    if isinstance(err, SimTimeout):
        return TIMEOUT, "virtual deadline exceeded"
    if isinstance(err, ContainerTimeout):
        return TIMEOUT, str(err)
    if isinstance(err, (UnsupportedSyscallError, BusyWaitError)):
        return UNSUPPORTED, str(err)
    if isinstance(err, DeadlockError):
        return DEADLOCK, str(err)
    if isinstance(err, KernelPanic):
        return CRASHED, "kernel panic: %s" % err
    if isinstance(err, ContainerError):
        return CRASHED, str(err)
    return CRASHED, "unclassified %s: %s" % (type(err).__name__, err)


def _finish(kernel: Kernel, build_dir: str, host: HostEnvironment,
            status: str, exit_code: Optional[int],
            error: str) -> ContainerResult:
    """Assemble the result from whatever state the kernel ended in.

    Owns *all* result decoration — debug log, metrics, Table 2 counters,
    trace, crash report, partial output tree — so every exit path
    (including timeout/deadlock/crash) carries the kernel's final state.
    All observability flows through the kernel's collector (repro.obs),
    which exists from the first line of a run: events buffered before a
    panic are never dropped, and crash reports and metrics agree.
    Never raises: collection failures degrade to empty fields recorded
    in the error string.
    """
    obs = kernel.obs
    # The event loop keeps its tick as a plain int; record it once here.
    obs.counters[EVENTS_PROCESSED] = kernel.events_processed
    try:
        output_tree = _collect_output_tree(kernel, build_dir)
    except Exception as err:  # pragma: no cover - snapshot never raises today
        output_tree = {}
        error = error or ("output tree unavailable: %s" % err)
    try:
        stdout, stderr = kernel.stdout.text(), kernel.stderr.text()
    except Exception:  # pragma: no cover
        stdout, stderr = "", ""
    try:
        metrics = Metrics.from_run(obs)
    except Exception:  # pragma: no cover
        metrics = None
    trace = obs.trace_log() if obs.trace_enabled else None
    injector = kernel.faults
    report = None
    if status != OK or (injector is not None and injector.injected):
        report = CrashReport(
            status=status,
            error=error,
            fault_trace=list(injector.trace) if injector is not None else [],
            last_syscalls=obs.recent_syscalls.events(),
        )
    return ContainerResult(
        status=status,
        exit_code=exit_code,
        error=error,
        stdout=stdout,
        stderr=stderr,
        output_tree=output_tree,
        counters=TraceCounters.of(obs),
        syscall_count=obs.total(SYSCALL_PREFIX),
        wall_time=kernel.clock.now,
        host=host,
        debug_log=obs.render_debug(),
        metrics=metrics,
        trace=trace,
        transient_faults=bool(injector is not None and injector.transient_fired),
        crash_report=report,
        fs_cache_stats={
            "resolve_hits": kernel.fs.resolve_hits,
            "resolve_misses": kernel.fs.resolve_misses,
            "dirent_hits": kernel.fs.dirent_hits,
            "dirent_misses": kernel.fs.dirent_misses,
        },
    )


class DetTrace:
    """A reproducible container (paper §5)."""

    def __init__(self, config: Optional[ContainerConfig] = None):
        self.config = config or ContainerConfig()
        #: The CheckpointManager of the currently executing run, when
        #: checkpointing is configured — lets a host signal handler call
        #: ``active_ckpt.request()`` to snapshot at the next barrier.
        self.active_ckpt = None

    def run(self, image: Image, command: str,
            argv: Optional[List[str]] = None,
            host: Optional[HostEnvironment] = None,
            _attempt: int = 0) -> ContainerResult:
        """Run *command* from *image* inside a fresh container.

        Never raises: every failure mode degrades to a classified
        :class:`ContainerResult` (status CRASHED at worst), carrying the
        partial output tree and a crash report.

        When ``config.cache`` is set the run is memoized by its content
        address (:mod:`repro.cache`): a hit returns the stored result
        with zero guest execution; ``verify`` mode executes anyway and
        compares.  Retry attempts (``_attempt > 0``) bypass the cache —
        their fault coordinates differ from the keyed run.
        """
        cfg = self.config
        host = host or HostEnvironment()
        if cfg.cache is not None and cfg.cache.mode != "off" and _attempt == 0:
            return self._run_cached(image, command, argv, host)
        return self._execute(image, command, argv, host, _attempt)

    def _run_cached(self, image: Image, command: str,
                    argv: Optional[List[str]],
                    host: HostEnvironment) -> ContainerResult:
        """The cache-aware run path (``config.cache`` set, attempt 0)."""
        from ..cache import RunCache

        cfg = self.config
        cache_cfg = cfg.cache
        rc = RunCache(cache_cfg.directory)
        key = rc.key_for(image, cfg, command, argv, host)
        cached = rc.lookup(key)

        if cache_cfg.mode in ("read", "write") and cached is not None:
            cached.host = host
            self._stamp_cache(cached, "hit", key, executed=False)
            return cached

        result = self._execute(image, command, argv, host, 0)

        if cache_cfg.mode == "verify" and cached is not None:
            # The key leaves out the boot, so the entry may come from
            # another host: compare across hosts.
            from ..diag import ACROSS_HOSTS, RunCapture, diff_captures

            report = diff_captures(
                RunCapture.from_result(result, "fresh-run"),
                RunCapture.from_result(cached, "cached-entry"),
                scope=ACROSS_HOSTS)
            if report.diverged:
                self._stamp_cache(result, "verify_mismatch", key,
                                  executed=True, report=report)
            else:
                self._stamp_cache(result, "verify_ok", key, executed=True)
        elif cache_cfg.mode in ("write", "verify"):
            failure: Dict[str, Any] = {}
            try:
                sha256 = rc.store_result(key, result)
            except OSError as err:
                # A full disk or a broken store loses the entry, never
                # the result that was just computed.
                sha256, failure = None, {"error": str(err)}
            if sha256 is not None:
                self._stamp_cache(result, "store", key, executed=True,
                                  object_sha256=sha256)
            else:
                self._stamp_cache(result, "uncacheable", key, executed=True,
                                  **failure)
        else:  # read-mode miss: executed, nothing written
            self._stamp_cache(result, "miss", key, executed=True)
        return result

    @staticmethod
    def _stamp_cache(result: ContainerResult, outcome: str, key,
                     executed: bool, **extra) -> None:
        """Attach the cache disposition + its metrics counters.

        The counters land on the *returned* result only, after any
        store, and captures leave ``cache/`` counters out, so a lookup
        can never poison the deterministic metrics of a future hit.
        """
        record: Dict[str, Any] = {"outcome": outcome, "key": key.digest,
                                  "executed": executed}
        record.update(extra)
        result.cache = record
        if result.metrics is not None:
            counters = result.metrics.counters
            counter = {"hit": "cache/hit", "store": "cache/store",
                       "miss": "cache/miss", "uncacheable": "cache/miss",
                       "verify_ok": "cache/verify_ok",
                       "verify_mismatch": "cache/verify_mismatch"}[outcome]
            counters[counter] = counters.get(counter, 0) + 1

    def _execute(self, image: Image, command: str,
                 argv: Optional[List[str]], host: HostEnvironment,
                 _attempt: int,
                 restored: Optional[tuple] = None) -> ContainerResult:
        """One real (uncached) container execution.

        Boots *command* on a fresh kernel, or, given *restored* (the
        ``(info, payload)`` pair :meth:`RecoveryManager.load` returns),
        restores the snapshot into it and continues from there.
        """
        cfg = self.config
        kernel = Kernel(host)
        # The collector exists before anything can fail, so every exit
        # path — including a crash before the tracer is even built —
        # flows through it (crash reports and metrics always agree).
        kernel.obs = Collector(trace=cfg.observe, debug=cfg.debug)
        proc = None
        status, error = OK, ""
        try:
            self._prepare(kernel, image, _attempt)
            if cfg.checkpoint is not None:
                from ..ckpt import CheckpointManager, restore

                mgr = CheckpointManager(
                    cfg.checkpoint.directory, every=cfg.checkpoint.every,
                    keep=cfg.checkpoint.keep, fingerprint=cfg.fingerprint(),
                    full_every=cfg.checkpoint.full_every)
                if restored is not None:
                    # Before the manager is installed: restore's
                    # fast-forward must not record into the new tape.
                    mgr.tape = restore(kernel, restored[1])
                    mgr.last_barrier = restored[0].barrier
                # Installed before boot: the resume tape must cover the
                # guest's whole life, starting with the init spawn.
                kernel.ckpt = self.active_ckpt = mgr
            if restored is None:
                proc = kernel.boot(command, argv=argv,
                                   env=cfg.env_for(host.env), uid=0,
                                   cwd_path=cfg.working_dir)
            elif kernel.processes:
                proc = kernel.processes[0]
            kernel.run(deadline=cfg.timeout, max_events=cfg.max_events)
        except Exception as err:
            status, error = _classify(err)
        exit_code, error = _decode_exit(proc, status, error)
        return _finish(kernel, cfg.working_dir, host, status, exit_code,
                       error)

    def _prepare(self, kernel: Kernel, image: Image, _attempt: int) -> None:
        """Configure a fresh kernel up to (but excluding) boot.

        Shared verbatim by :meth:`run` and :meth:`resume`: a restored
        kernel must be prepared by exactly the code path a normal run
        uses, so device closures, handler tables and the seccomp filter
        are the same live objects in both worlds.
        """
        cfg = self.config
        if cfg.disable_aslr:
            kernel.aslr_override = FIXED_ASLR_BASE
        kernel.serialize_threads = cfg.serialize_threads
        kernel.busy_wait_budget = cfg.busy_wait_budget
        kernel.fs.cache_enabled = cfg.fs_caches
        if cfg.deterministic_pids:
            kernel.enable_pid_namespace(1)
        kernel.default_uid = 0 if cfg.map_user_to_root else 1000

        image.install(kernel, cfg.working_dir)
        canonicalize_identity_files(kernel)

        tracer = DetTraceTracer(cfg, uidmap=UidGidMap(
            host_uid=1000,
            uid_overrides=tuple(sorted(cfg.uid_map.items())),
            gid_overrides=tuple(sorted(cfg.gid_map.items()))))
        if cfg.deterministic_randomness:
            self._replace_random_devices(kernel, tracer)
        tracer.attach(kernel)
        if cfg.fault_plan is not None:
            injector = kernel.install_faults(cfg.fault_plan, attempt=_attempt)
            injector.obs = kernel.obs

    def resume(self, image: Image, command: str,
               argv: Optional[List[str]] = None,
               host: Optional[HostEnvironment] = None,
               _attempt: int = 0) -> ContainerResult:
        """Resume the newest valid checkpoint and run to completion.

        The snapshot carries the host environment (mid-state RNG streams
        included), so the *host* argument is ignored — a resumed run is
        a continuation of the interrupted one, not a new sample.  Raises
        :class:`repro.ckpt.JournalError` when the journal holds no valid
        snapshot for this config; every later failure degrades to a
        classified result like :meth:`run`.  A resumed run that finishes
        cleanly reports status ``RESUMED``.
        """
        cfg = self.config
        if cfg.checkpoint is None:
            raise ValueError("resume() requires ContainerConfig.checkpoint")
        from ..ckpt import RecoveryManager

        info, payload = RecoveryManager(  # JournalError when none valid
            cfg.checkpoint.directory, fingerprint=cfg.fingerprint()).load()
        result = self._execute(image, command, argv, payload["host"],
                               _attempt, restored=(info, payload))
        if result.status == OK:
            result.status = RESUMED
        return result

    def run_supervised(self, image: Image, command: str,
                       argv: Optional[List[str]] = None,
                       host: Optional[HostEnvironment] = None,
                       max_retries: Optional[int] = None,
                       backoff: Optional[float] = None) -> ContainerResult:
        """Run with bounded retry under the fault plane's transient storms.

        An attempt is retried only when it failed *and* transient-
        classified fault rules fired during it (the deterministic model
        of "the environment misbehaved, try again").  Each retry charges
        a deterministic, exponentially growing virtual-time backoff; the
        attempt number is itself a fault-plan coordinate, so the whole
        attempt sequence — and therefore the final result — is a pure
        function of image + plan.  A run that failed and then succeeded
        reports status ``RETRIED``; a run that exhausted its retries
        keeps its final classified status.  The returned result always
        carries the full attempt log on its crash report.
        """
        cfg = self.config
        if max_retries is None:
            max_retries = cfg.max_retries
        if backoff is None:
            backoff = cfg.retry_backoff
        attempt_log: List[AttemptRecord] = []
        total_wall = 0.0
        next_backoff = 0.0
        attempt = 0
        #: The fault-plan attempt coordinate of the most recent
        #: execution; a resume *continues* that attempt rather than
        #: starting a new one, so it stays put across resumed retries.
        run_attempt = 0
        result: Optional[ContainerResult] = None
        while True:
            if (attempt > 0 and result is not None
                    and result.status == CRASHED
                    and self._resumable()):
                # Prefer continuing the crashed attempt from its newest
                # checkpoint over a full restart: all completed work is
                # kept, and the identity guarantee makes the combined
                # run indistinguishable from an uninterrupted one.
                result = self.resume(image, command, argv=argv,
                                     _attempt=run_attempt)
            else:
                run_attempt = attempt
                result = self.run(image, command, argv=argv, host=host,
                                  _attempt=run_attempt)
            total_wall += next_backoff + result.wall_time
            faults_fired = (len(result.crash_report.fault_trace)
                            if result.crash_report is not None else 0)
            attempt_log.append(AttemptRecord(
                attempt=attempt, status=result.status,
                exit_code=result.exit_code, error=result.error,
                faults_injected=faults_fired,
                transient=result.transient_faults, backoff=next_backoff))
            attempt += 1
            retryable = (not result.succeeded and result.transient_faults
                         and attempt <= max_retries)
            if not retryable:
                break
            # Deterministic virtual-time backoff: doubles per retry and
            # never consults the host clock.
            next_backoff = backoff * (2 ** (attempt - 1))
        result.attempts = attempt
        result.wall_time = total_wall
        if attempt > 1 and result.status == OK and result.exit_code == 0:
            result.status = RETRIED
        # A successful resume keeps its more specific RESUMED status.
        if result.crash_report is None and (attempt > 1 or result.status != OK):
            result.crash_report = CrashReport(status=result.status,
                                              error=result.error)
        if result.crash_report is not None:
            result.crash_report.status = result.status
            result.crash_report.attempt_log = attempt_log
            if cfg.checkpoint is not None:
                # Persist crash forensics next to the snapshots it may be
                # recovered with; write_json is atomic, so an interrupted
                # supervisor never leaves a truncated report behind.
                try:
                    result.crash_report.write_json(os.path.join(
                        cfg.checkpoint.directory, "crash-report.json"))
                except OSError:
                    pass  # forensics are best-effort; the run result stands
        return result

    def _resumable(self) -> bool:
        """Is there a valid checkpoint to continue from?"""
        cfg = self.config
        if cfg.checkpoint is None:
            return False
        from ..ckpt import RecoveryManager

        return RecoveryManager(cfg.checkpoint.directory,
                               fingerprint=cfg.fingerprint()).latest() is not None

    @staticmethod
    def _replace_random_devices(kernel: Kernel, tracer: DetTraceTracer) -> None:
        """Back /dev/random and /dev/urandom with the container PRNG (§5.2)."""
        for name in ("random", "urandom"):
            node = kernel.fs.resolve(kernel.fs.root, kernel.fs.root, "/dev/" + name)
            node.dev_read = tracer.prng.bytes


class NativeRunner:
    """The irreproducible baseline: same image, no tracer."""

    def __init__(self, timeout: float = 7200.0, fault_plan=None):
        self.timeout = timeout
        self.fault_plan = fault_plan

    def run(self, image: Image, command: str,
            argv: Optional[List[str]] = None,
            host: Optional[HostEnvironment] = None) -> ContainerResult:
        host = host or HostEnvironment()
        kernel = Kernel(host)
        build_dir = host.build_path
        proc = None
        status, error = OK, ""
        try:
            if self.fault_plan is not None:
                kernel.install_faults(self.fault_plan)
            image.install(kernel, build_dir)
            proc = kernel.boot(command, argv=argv, env=dict(host.env),
                               uid=1000, cwd_path=build_dir)
            kernel.run(deadline=self.timeout)
        except Exception as err:
            status, error = _classify(err)
        exit_code, error = _decode_exit(proc, status, error)
        return _finish(kernel, build_dir, host, status, exit_code, error)
