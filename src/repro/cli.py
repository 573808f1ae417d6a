"""Command-line interface mirroring the paper's artifact appendix.

The artifact's workflow is ``./bin/dettrace <command>`` against a chroot
image; ours is::

    python -m repro run date                 # the appendix's demo
    python -m repro run -- ls -l /bin
    python -m repro run --native date        # the irreproducible baseline
    python -m repro run --seed 7 sha256sum /etc/hostname
    python -m repro script build.sh          # run a shell script reproducibly
    python -m repro selftest                 # the appendix's `make test`

``run`` boots a minimal container image with the busybox toolbox
installed (the analog of the appendix's debootstrap chroot) and executes
one command inside it.  ``--native`` runs the same image without the
tracer; ``--boot N`` picks a different simulated machine boot, which
changes native output but never DetTrace output.
"""

from __future__ import annotations

import argparse
import sys as _sys
from typing import List, Optional

from .core import (
    CheckpointConfig,
    ContainerConfig,
    DetTrace,
    Image,
    NativeRunner,
    OK,
    RESUMED,
    RETRIED,
)
from .cpu.machine import ALL_MACHINES, SKYLAKE_CLOUDLAB, HostEnvironment
from .faults import FaultPlan, FaultPlanError
from .guest.coreutils import COREUTILS_PATHS, install_coreutils
from .obs.report import format_metrics, format_table2_summary


def base_image() -> Image:
    """A minimal chroot-like image with the toolbox installed."""
    image = Image()
    install_coreutils(image)
    image.add_file("/etc/motd", "welcome to the container\n")
    return image


def _host(args) -> HostEnvironment:
    machine = ALL_MACHINES.get(args.machine, SKYLAKE_CLOUDLAB)
    return HostEnvironment(machine=machine, entropy_seed=args.boot,
                           boot_epoch=1.6e9 + args.boot * 1009.0,
                           pid_start=1000 + args.boot * 13,
                           inode_start=100_000 + args.boot * 997,
                           dirent_hash_salt=args.boot)


def _resolve(name: str) -> Optional[str]:
    if name.startswith("/"):
        return name
    return COREUTILS_PATHS.get(name)


def _load_faults(args) -> Optional[FaultPlan]:
    if not getattr(args, "faults", None):
        return None
    try:
        return FaultPlan.from_file(args.faults)
    except (OSError, FaultPlanError) as err:
        raise SystemExit("repro: cannot load fault plan %s: %s"
                         % (args.faults, err))


def _cache_config(args) -> "Optional[object]":
    directory = getattr(args, "cache_dir", None)
    if not directory:
        return None
    from .core import CacheConfig

    return CacheConfig(directory=directory,
                       mode=getattr(args, "cache_mode", "write"))


def _report_cache(result) -> Optional[int]:
    """Surface the run-cache disposition; 70 on a verify mismatch."""
    record = getattr(result, "cache", None)
    if record is None:
        return None
    _sys.stderr.write("[cache %s %s]\n"
                      % (record["outcome"], record["key"][:16]))
    if record["outcome"] != "verify_mismatch":
        return None
    report = record["report"]
    _sys.stderr.write(report.format() + "\n")
    _sys.stderr.write("repro: cached entry does not match re-execution "
                      "(%s)\n" % report.classification)
    return 70


def _checkpoint_config(args) -> Optional[CheckpointConfig]:
    directory = getattr(args, "checkpoint_dir", None)
    if not directory:
        if getattr(args, "resume", False):
            raise SystemExit("repro: --resume requires --checkpoint-dir")
        return None
    return CheckpointConfig(
        directory=directory,
        every=getattr(args, "checkpoint_every", 0),
        keep=getattr(args, "checkpoint_keep", 3),
        full_every=getattr(args, "checkpoint_full_every", 4))


def _install_sigterm(container):
    """SIGTERM requests a snapshot at the next virtual-time barrier, so
    an orderly kill (systemd stop, preemption notice) leaves a resumable
    journal.  Returns a restore thunk for the previous handler."""
    import signal

    def _on_term(_signum, _frame):
        manager = container.active_ckpt
        if manager is not None:
            manager.request()

    try:
        previous = signal.signal(signal.SIGTERM, _on_term)
    except ValueError:  # not the main thread (embedded use)
        return lambda: None
    return lambda: signal.signal(signal.SIGTERM, previous)


def _run_container(args, image, path, argv) -> "object":
    plan = _load_faults(args)
    config = ContainerConfig(prng_seed=args.seed, fault_plan=plan,
                             observe=bool(getattr(args, "trace_out", None)),
                             checkpoint=_checkpoint_config(args),
                             cache=_cache_config(args))
    container = DetTrace(config)
    restore_sigterm = (_install_sigterm(container)
                       if config.checkpoint is not None else None)
    try:
        if getattr(args, "resume", False):
            from .ckpt import JournalError

            try:
                return container.resume(image, path, argv=argv)
            except JournalError as err:
                _sys.stderr.write(
                    "repro: no valid checkpoint to resume (%s); "
                    "starting a fresh run\n" % err)
        if getattr(args, "supervised", False):
            return container.run_supervised(image, path, argv=argv,
                                            host=_host(args))
        return container.run(image, path, argv=argv, host=_host(args))
    finally:
        if restore_sigterm is not None:
            restore_sigterm()


def _report(result, verbose: bool) -> int:
    _sys.stdout.write(result.stdout)
    _sys.stderr.write(result.stderr)
    if result.status not in (OK, RETRIED, RESUMED):
        _sys.stderr.write("container error: %s (%s)\n"
                          % (result.status, result.error))
        if result.crash_report is not None:
            _sys.stderr.write(result.crash_report.format() + "\n")
        return 70
    if result.exit_code is None and result.error:
        # e.g. init killed by an injected signal: surface the cause.
        _sys.stderr.write("%s\n" % result.error)
    if verbose:
        _sys.stderr.write("[wall %.3f ms, %d syscalls, %d attempts]\n"
                          % (result.wall_time * 1e3, result.syscall_count,
                             result.attempts))
        if result.counters is not None and result.counters.faults_injected:
            _sys.stderr.write("[%d faults injected]\n"
                              % result.counters.faults_injected)
    return result.exit_code if result.exit_code is not None else 1


def _emit_obs(args, result) -> None:
    """--metrics / --trace-out output (repro.obs).  Reports go to stderr
    so container stdout stays byte-reproducible."""
    if getattr(args, "metrics", False):
        if result.metrics is not None:
            _sys.stderr.write(format_metrics(result.metrics) + "\n")
        else:
            _sys.stderr.write("repro: no metrics collected for this run\n")
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        if result.trace is not None:
            result.trace.write(trace_out)
            _sys.stderr.write(
                "trace: wrote %d records to %s\n"
                % (len(result.trace.to_chrome()["traceEvents"]), trace_out))
        else:
            _sys.stderr.write("repro: no trace collected (native run?)\n")
    export_fmt = getattr(args, "export_metrics", None)
    if export_fmt:
        if result.metrics is None:
            _sys.stderr.write("repro: no metrics to export for this run\n")
        else:
            from .diag.export import render_metrics

            text = render_metrics(result.metrics, export_fmt)
            metrics_out = getattr(args, "metrics_out", None)
            if metrics_out:
                with open(metrics_out, "w") as fh:
                    fh.write(text)
                _sys.stderr.write("metrics: wrote %s (%s, %d samples)\n"
                                  % (metrics_out, export_fmt,
                                     len(text.splitlines())))
            else:
                _sys.stderr.write(text)


def _parallel_run_worker(payload) -> dict:
    """Fan-out worker for ``repro run --jobs/--repeat`` (module-level so
    it pickles).  Returns the run's capture, which the identity check
    compares, and its cache disposition, which it does not."""
    from .diag import RunCapture

    args = argparse.Namespace(**payload["args"])
    result = _run_container(args, base_image(), payload["path"],
                            payload["argv"])
    cache = None
    if result.cache is not None:
        cache = {"outcome": result.cache["outcome"],
                 "key": result.cache["key"],
                 "executed": result.cache["executed"]}
    return {"capture": RunCapture.from_result(result, "run %d"
                                              % payload["index"]),
            "cache": cache}


def _cmd_run_parallel(args, path: str, argv: List[str]) -> int:
    """Run the same container --repeat times across --jobs workers.

    Every run is an independent pure function of the same inputs on
    the same host, so every capture must equal the first in full; the
    first divergence is printed and exits 70.
    """
    from .diag import diff_captures
    from .parallel import Job, cache_tally, default_workers, run_jobs

    repeat = max(args.repeat, 1)
    workers = args.jobs if args.jobs > 0 else default_workers()
    records = [rec for _key, rec in run_jobs(
        [Job(key=i, fn=_parallel_run_worker, args=(dict(
            args={k: v for k, v in vars(args).items()
                  if k not in ("fn", "command")},
            path=path, argv=argv, index=i),))
         for i in range(repeat)],
        workers=workers)]
    first = records[0]["capture"]
    _sys.stdout.write(first.stdout)
    _sys.stderr.write(first.stderr)
    divergent = [report for report in (
        diff_captures(first, rec["capture"]) for rec in records[1:])
        if report.diverged]
    _sys.stderr.write(
        "[%d runs on %d workers: outputs %s, tree digest %s]\n"
        % (repeat, min(workers, repeat),
           "DIVERGENT" if divergent else "identical", first.tree_digest[:16]))
    tally = cache_tally(records)
    if tally:
        _sys.stderr.write("[cache: %s]\n" % ", ".join(
            "%d %s" % (n, outcome) for outcome, n in sorted(tally.items())))
    if divergent:
        _sys.stderr.write(divergent[0].format() + "\n")
        return 70
    if first.status not in (OK, RETRIED, RESUMED):
        _sys.stderr.write("container error: %s\n" % first.status)
        return 70
    return first.exit_code if first.exit_code is not None else 1


def cmd_run(args) -> int:
    image = base_image()
    command = args.command
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        _sys.stderr.write("repro run: missing command\n")
        return 2
    args.command = command
    path = _resolve(args.command[0])
    if path is None:
        _sys.stderr.write("repro: %s: not in the toolbox (%s)\n"
                          % (args.command[0], ", ".join(sorted(COREUTILS_PATHS))))
        return 127
    argv = [args.command[0]] + args.command[1:]
    if not args.native and (args.jobs != 1 or args.repeat != 1):
        if getattr(args, "checkpoint_dir", None):
            _sys.stderr.write("repro: --checkpoint-dir is per-run; it "
                              "cannot be combined with --jobs/--repeat\n")
            return 2
        return _cmd_run_parallel(args, path, argv)
    if args.native:
        result = NativeRunner(fault_plan=_load_faults(args)).run(
            image, path, argv=argv, host=_host(args))
    else:
        result = _run_container(args, image, path, argv)
    status = _report(result, args.verbose)
    cache_status = _report_cache(result)
    _emit_obs(args, result)
    return cache_status if cache_status is not None else status


def cmd_script(args) -> int:
    with open(args.script, "rb") as fh:
        text = fh.read()
    image = base_image()

    def setup(kernel, build_dir):
        kernel.fs.write_file(build_dir + "/script.sh", text,
                             now=kernel.host.boot_epoch)

    image.on_setup(setup)
    argv = ["sh", "script.sh"] + args.args
    if args.native:
        result = NativeRunner(fault_plan=_load_faults(args)).run(
            image, "/bin/sh", argv=argv, host=_host(args))
    else:
        result = _run_container(args, image, "/bin/sh", argv)
    status = _report(result, args.verbose)
    cache_status = _report_cache(result)
    if cache_status is not None:
        status = cache_status
    _emit_obs(args, result)
    if args.show_tree:
        for rel_path in sorted(result.output_tree):
            if rel_path != "script.sh":
                _sys.stderr.write("  %s (%d bytes)\n"
                                  % (rel_path, len(result.output_tree[rel_path])))
    return status


def cmd_obs(args) -> int:
    """Run a toolbox command under full observability and print the
    Table-2-style determinization summary, averaged over --runs."""
    image = base_image()
    command = args.command
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        _sys.stderr.write("repro obs: missing command\n")
        return 2
    path = _resolve(command[0])
    if path is None:
        _sys.stderr.write("repro: %s: not in the toolbox (%s)\n"
                          % (command[0], ", ".join(sorted(COREUTILS_PATHS))))
        return 127
    argv = [command[0]] + command[1:]
    plan = _load_faults(args)
    aggregate = None
    trace = None
    for _ in range(max(1, args.runs)):
        config = ContainerConfig(prng_seed=args.seed, fault_plan=plan,
                                 observe=bool(args.trace_out))
        result = DetTrace(config).run(image, path, argv=argv,
                                      host=_host(args))
        if result.metrics is None:
            _sys.stderr.write("repro obs: run collected no metrics (%s)\n"
                              % result.status)
            return 70
        if aggregate is None:
            aggregate = result.metrics
            trace = result.trace
        else:
            aggregate.add(result.metrics)
    if args.full:
        print(format_metrics(aggregate))
    else:
        print(format_table2_summary(aggregate))
    if args.trace_out and trace is not None:
        trace.write(args.trace_out)
        _sys.stderr.write(
            "trace: wrote %d records to %s\n"
            % (len(trace.to_chrome()["traceEvents"]), args.trace_out))
    return 0


def cmd_fuzz(args) -> int:
    """Differential determinism fuzzing (repro.fuzz)."""
    from .fuzz import format_report, replay_corpus, run_fuzz

    if args.replay_corpus:
        failed = replay_corpus(args.replay_corpus, workers=args.workers,
                               rnr=not args.no_rnr)
        if failed:
            for report in failed:
                print("corpus FAIL:", report.summary())
            return 1
        print("corpus: all entries deterministic")
        return 0
    report = run_fuzz(seed=args.seed, budget=args.budget,
                      seconds=args.seconds, workers=args.workers,
                      rnr=not args.no_rnr, corpus_dir=args.corpus,
                      do_shrink=not args.no_shrink,
                      log=lambda line: _sys.stderr.write("fuzz: %s\n" % line))
    print(format_report(report))
    return 0 if report.ok else 1


def cmd_ckpt(args) -> int:
    """Inspect/verify/prune a checkpoint journal directory."""
    from .ckpt import JournalError, RecoveryManager
    from .ckpt import prune as ckpt_prune

    if args.action == "prune":
        removed = ckpt_prune(args.directory, keep=args.keep)
        print("pruned %d file(s) from %s" % (len(removed), args.directory))
        for path in removed:
            print("  removed %s" % path)
        return 0
    recovery = RecoveryManager(args.directory, fingerprint=args.fingerprint)
    infos = recovery.scan()
    for info in infos:
        if not info.valid:
            print("INVALID  %s: %s" % (info.address, info.error))
            continue
        if info.snapshot_kind == "delta":
            kind = "delta depth %d  base %s" % (
                info.chain_depth, info.base_sha256[:12] or "?")
        else:
            kind = "full"
        print("barrier %8d  vclock %14.6f  %8d bytes  fp %s  %s  %s"
              % (info.barrier, info.vclock, info.payload_len,
                 info.fingerprint[:12] or "-", kind, info.address))
    if args.action == "inspect":
        if not infos:
            print("no snapshots in %s" % args.directory)
            return 0
        # Per-delta detail: how much state actually moved per barrier.
        import pickle as _pickle

        for info in reversed(infos):
            if not info.valid or info.snapshot_kind != "delta":
                continue
            try:
                delta = _pickle.loads(recovery.record(info))
            except Exception:
                continue
            print("  barrier %8d  delta: %d dirty inode(s), %d dead, "
                  "%d changed section(s), %d tape entries"
                  % (info.barrier, len(delta["fs_dirty"]),
                     len(delta["fs_dead"]), len(delta["sections"]),
                     len(delta["tape_tail"])))
        return 0
    # verify: every record must validate (each valid delta's chain then
    # reaches its file's full snapshot), and all materialized
    # fingerprints must compute.
    bad = [info for info in infos if not info.valid]
    good = [info for info in infos if info.valid]
    if bad:
        print("verify: FAIL — %d torn/corrupt snapshot(s)" % len(bad))
        return 1
    if not good:
        print("verify: OK — journal is empty (%s)" % args.directory)
        return 0
    # Deterministic guest-state fingerprints (repro.diag's bisection
    # coordinate): equal runs produce equal fingerprints barrier for
    # barrier, so these lines diff cleanly across journals.  Delta
    # chains are fingerprinted with the incremental Merkle cursor.
    try:
        fps = recovery.chain_fingerprints()
    except JournalError as err:
        print("verify: FAIL — %s" % err)
        return 1
    for barrier in sorted(fps):
        print("  barrier %8d  guest-state %s"
              % (barrier, fps[barrier][0][:16]))
    print("verify: OK — %d snapshot(s), newest barrier %d"
          % (len(good), good[0].barrier))
    return 0


def cmd_cache(args) -> int:
    """Inspect/verify/collect a run-cache directory (repro.cache)."""
    from .cache import CacheStore

    store = CacheStore(args.directory)
    if args.action == "stats":
        stats = store.stats()
        print("cache %s" % stats.directory)
        print("  keys:                  %d" % stats.keys)
        print("  objects:               %d (%d bytes)"
              % (stats.objects, stats.object_bytes))
        print("  deduplicated keys:     %d" % stats.deduplicated_keys)
        print("  torn keys/objects:     %d/%d"
              % (stats.torn_keys, stats.torn_objects))
        print("  dangling keys:         %d" % stats.missing_objects)
        print("  stale keys:            %d" % stats.stale_keys)
        print("  unreferenced objects:  %d" % stats.unreferenced_objects)
        return 0
    if args.action == "gc":
        removed = store.gc()
        print("gc %s: removed %d torn/dangling/stale, %d unreferenced"
              % (args.directory, len(removed["torn"]),
                 len(removed["unreferenced"])))
        for bucket in ("torn", "unreferenced"):
            for path in removed[bucket]:
                print("  removed %s" % path)
        return 0
    # verify: every entry must checksum-validate and reference a live
    # object; dedup sharing is fine, torn or dangling state is not.
    problems = store.verify_store()
    if problems:
        for problem in problems:
            print("  %s" % problem)
        print("verify: FAIL — %d problem(s) in %s"
              % (len(problems), args.directory))
        return 1
    stats = store.stats()
    print("verify: OK — %d key(s), %d object(s), %d bytes (%s)"
          % (stats.keys, stats.objects, stats.object_bytes, args.directory))
    return 0


def cmd_diff(args) -> int:
    """First-divergence diff of two trace files (repro.diag).

    Exit 0 when the traces align record for record, 1 when they
    diverge (the report names the first divergent virtual-time
    coordinate), 2 on unreadable inputs.
    """
    from .diag import diff_trace_files

    try:
        report = diff_trace_files(args.run_a, args.run_b,
                                  labels=(args.run_a, args.run_b),
                                  context=args.context)
    except (OSError, ValueError) as err:
        _sys.stderr.write("repro diff: cannot load trace: %s\n" % err)
        return 2
    print(report.format())
    if args.report:
        report.write_json(args.report)
        _sys.stderr.write("diff: wrote %s\n" % args.report)
    return 1 if report.diverged else 0


def _diag_demo(args) -> int:
    """Known-ground-truth smoke: the check.sh diag gate.

    Verifies the three behaviours the diagnosis engine promises: a
    self-pair reports no divergence; a control-flow leak localizes to a
    trace record; a content-only leak (trace-invisible by construction)
    bisects to a single snapshot interval.
    """
    from .diag import (bisect_divergence, content_leak_pair, diff_captures,
                       identical_pair, leaky_pair)

    failures = []
    spec_a, spec_b = identical_pair()
    report = diff_captures(spec_a.capture(), spec_b.capture())
    print("[identical pair]")
    print(report.format())
    if report.diverged:
        failures.append("identical pair reported a divergence")

    spec_a, spec_b = leaky_pair()
    report = diff_captures(spec_a.capture(), spec_b.capture())
    print("\n[length leak: control-flow divergence]")
    print(report.format())
    if not report.diverged or report.vts is None:
        failures.append("length leak not localized to a trace coordinate")

    spec_a, spec_b = content_leak_pair()
    result = bisect_divergence(spec_a, spec_b, coarse=args.coarse,
                               workdir=args.workdir)
    print("\n[content leak: checkpoint bisection]")
    print(result.report.format())
    if not result.diverged or result.hi is None:
        failures.append("content leak not bracketed by bisection")
    elif result.hi - result.lo != 1:
        failures.append("bisection window wider than one tick: (%d, %d]"
                        % (result.lo, result.hi))
    if failures:
        for failure in failures:
            print("diag demo FAIL:", failure)
        return 1
    print("\ndiag demo: OK — self-diff clean, leak localized, "
          "bisection narrowed to one tick")
    return 0


def _diag_bisect(args) -> int:
    """Bisect two seeded runs of a toolbox command."""
    from .diag import RunSpec, bisect_divergence

    command = args.command
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        _sys.stderr.write("repro diag bisect: missing command\n")
        return 2
    path = _resolve(command[0])
    if path is None:
        _sys.stderr.write("repro: %s: not in the toolbox\n" % command[0])
        return 127
    argv = [command[0]] + command[1:]
    host = _host(args)
    sides = []
    for seed, label in ((args.seed_a, "seed-%d" % args.seed_a),
                        (args.seed_b, "seed-%d" % args.seed_b)):
        sides.append(RunSpec(
            image_factory=base_image, command=path, argv=argv,
            config=ContainerConfig(prng_seed=seed,
                                   fault_plan=_load_faults(args)),
            host=host, label=label))
    result = bisect_divergence(sides[0], sides[1], coarse=args.coarse,
                               max_probes=args.max_probes,
                               workdir=args.workdir)
    print(result.report.format())
    print(result.summary())
    if args.report:
        result.report.write_json(args.report)
        _sys.stderr.write("diag: wrote %s\n" % args.report)
    return 1 if result.diverged else 0


def _diag_fuzz(args) -> int:
    """Diff one fuzz program (corpus entry or generated seed) across two
    container PRNG seeds — the localization smoke for banked entries."""
    import json as _json

    from .diag import diff_captures
    from .fuzz.corpus import CorpusEntry
    from .fuzz.grammar import generate_program
    from .fuzz.runner import Cell, run_cell

    if args.entry:
        try:
            with open(args.entry) as fh:
                spec = CorpusEntry.from_dict(_json.load(fh)).spec
        except (OSError, ValueError, KeyError) as err:
            _sys.stderr.write("repro diag fuzz: cannot load entry %s: %s\n"
                              % (args.entry, err))
            return 2
    else:
        spec = generate_program(args.fuzz_seed)
    report = diff_captures(*(
        run_cell(spec.to_dict(), Cell("diag-seed%d" % seed, observe=True,
                                      prng_seed=seed).to_dict())
        for seed in (args.seed_a, args.seed_b)))
    print(report.format())
    if args.report:
        report.write_json(args.report)
        _sys.stderr.write("diag: wrote %s\n" % args.report)
    return 1 if report.diverged else 0


def cmd_selftest(args) -> int:
    """The appendix's `make test` in miniature: run `date` on two boots
    natively and under DetTrace and verify the expected (ir)reproducibility."""
    image = base_image()
    outs = {"native": [], "dettrace": []}
    for boot in (1, 2):
        host = HostEnvironment(entropy_seed=boot, boot_epoch=1.5e9 + boot * 9999.0)
        outs["native"].append(
            NativeRunner().run(image, "/bin/date", host=host).stdout)
        outs["dettrace"].append(
            DetTrace().run(image, "/bin/date", host=host).stdout)
    native_varies = outs["native"][0] != outs["native"][1]
    dettrace_fixed = outs["dettrace"][0] == outs["dettrace"][1]
    print("native date varies across boots:     %s" % native_varies)
    print("dettrace date identical across boots: %s" % dettrace_fixed)
    print("dettrace date: %s" % outs["dettrace"][0].strip())
    ok = native_varies and dettrace_fixed
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DetTrace reproducible containers")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--native", action="store_true",
                       help="run without the DetTrace tracer")
        p.add_argument("--boot", type=int, default=1,
                       help="simulated machine boot (changes native output)")
        p.add_argument("--seed", type=int, default=0,
                       help="container PRNG seed")
        p.add_argument("--machine", default="cloudlab-c220g5",
                       choices=sorted(ALL_MACHINES))
        p.add_argument("--verbose", action="store_true")
        p.add_argument("--faults", metavar="PLAN.json",
                       help="deterministic fault-injection plan "
                            "(repro.faults JSON format)")
        p.add_argument("--supervised", action="store_true",
                       help="retry transient fault-plane failures with "
                            "deterministic virtual-time backoff")
        p.add_argument("--metrics", action="store_true",
                       help="print the repro.obs determinization metrics "
                            "report (Table-2-style) to stderr")
        p.add_argument("--trace-out", metavar="FILE", dest="trace_out",
                       help="write a Chrome trace_event JSON trace keyed "
                            "on virtual time (byte-identical across reruns)")
        p.add_argument("--export-metrics", metavar="FMT",
                       dest="export_metrics", choices=["prom", "jsonl"],
                       help="export the run's metrics snapshot as "
                            "Prometheus text or JSONL (deterministic: "
                            "identical runs export identical bytes)")
        p.add_argument("--metrics-out", metavar="FILE", dest="metrics_out",
                       help="write --export-metrics output to FILE "
                            "instead of stderr")
        p.add_argument("--cache-dir", metavar="DIR", dest="cache_dir",
                       help="content-addressed run cache (repro.cache): "
                            "identical runs are served from DIR with zero "
                            "guest execution")
        p.add_argument("--cache", dest="cache_mode", default="write",
                       choices=["off", "read", "write", "verify"],
                       help="cache policy: read = consult only, write = "
                            "consult + store (default), verify = always "
                            "re-execute and byte-compare against the entry "
                            "(mismatch exits 70 with a divergence report)")

    run = sub.add_parser("run", help="run a toolbox command in a container")
    common(run)
    run.add_argument("--checkpoint-dir", metavar="DIR", dest="checkpoint_dir",
                     help="journal directory for crash-consistent "
                          "checkpoints (enables repro.ckpt)")
    run.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                     dest="checkpoint_every",
                     help="snapshot every N kernel events (0 = only on "
                          "SIGTERM)")
    run.add_argument("--checkpoint-keep", type=int, default=3, metavar="K",
                     dest="checkpoint_keep",
                     help="valid snapshots to retain after each barrier")
    run.add_argument("--checkpoint-full-every", type=int, default=4,
                     metavar="N", dest="checkpoint_full_every",
                     help="write a self-contained full snapshot every N "
                          "snapshots and dirty-tracked deltas in between "
                          "(1 = every snapshot full)")
    run.add_argument("--resume", action="store_true",
                     help="continue from the newest valid checkpoint in "
                          "--checkpoint-dir (falls back to a fresh run)")
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes for --repeat fan-out "
                          "(0 = auto); results are identical to --jobs 1")
    run.add_argument("--repeat", type=int, default=1, metavar="M",
                     help="run the container M times and verify all "
                          "outputs are byte-identical")
    run.add_argument("command", nargs=argparse.REMAINDER,
                     help="command and arguments (e.g. date, ls -l /bin)")
    run.set_defaults(fn=cmd_run)

    script = sub.add_parser("script", help="run a shell script reproducibly")
    common(script)
    script.add_argument("script", help="path to a shell script on the host")
    script.add_argument("args", nargs="*", help="script arguments")
    script.add_argument("--show-tree", action="store_true",
                        help="list the output tree after the run")
    script.set_defaults(fn=cmd_script)

    obs = sub.add_parser("obs", help="run a command and report repro.obs "
                                     "determinization metrics")
    obs.add_argument("--boot", type=int, default=1,
                     help="simulated machine boot")
    obs.add_argument("--seed", type=int, default=0, help="container PRNG seed")
    obs.add_argument("--machine", default="cloudlab-c220g5",
                     choices=sorted(ALL_MACHINES))
    obs.add_argument("--faults", metavar="PLAN.json",
                     help="deterministic fault-injection plan")
    obs.add_argument("--runs", type=int, default=1,
                     help="average the summary over N identical runs")
    obs.add_argument("--full", action="store_true",
                     help="print the full metrics report, not just the "
                          "Table-2 summary")
    obs.add_argument("--trace-out", metavar="FILE", dest="trace_out",
                     help="also write the Chrome trace_event JSON of the "
                          "first run")
    obs.add_argument("command", nargs=argparse.REMAINDER,
                     help="command and arguments")
    obs.set_defaults(fn=cmd_obs)

    selftest = sub.add_parser("selftest",
                              help="verify the reproducibility guarantee")
    selftest.set_defaults(fn=cmd_selftest)

    fuzz = sub.add_parser("fuzz", help="differential determinism fuzzing")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="first program seed (walk is seed..seed+budget)")
    fuzz.add_argument("--budget", type=int, default=100,
                      help="number of generated programs to check")
    fuzz.add_argument("--seconds", type=float, default=None,
                      help="wall-clock cap for the walk (smoke use)")
    fuzz.add_argument("--workers", type=int, default=2,
                      help="pool size for the serial-vs-parallel axis "
                           "(1 disables that axis)")
    fuzz.add_argument("--no-rnr", action="store_true",
                      help="skip the record/replay axis")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="keep divergent programs unshrunk")
    fuzz.add_argument("--corpus", metavar="DIR", default=None,
                      help="bank shrunk reproducers into DIR")
    fuzz.add_argument("--replay-corpus", metavar="DIR", default=None,
                      help="re-check every entry in DIR instead of fuzzing")
    fuzz.set_defaults(fn=cmd_fuzz)

    diff = sub.add_parser("diff",
                          help="first-divergence diff of two trace files")
    diff.add_argument("run_a", help="Chrome trace JSON of run A "
                                    "(from --trace-out)")
    diff.add_argument("run_b", help="Chrome trace JSON of run B")
    diff.add_argument("--context", type=int, default=16, metavar="N",
                      help="pre-divergence events to report per side")
    diff.add_argument("--report", metavar="FILE",
                      help="also write the structured DivergenceReport "
                           "JSON (atomic write)")
    diff.set_defaults(fn=cmd_diff)

    diag = sub.add_parser("diag",
                          help="divergence diagnosis: demo, checkpoint "
                               "bisection, fuzz-entry localization")
    diag_sub = diag.add_subparsers(dest="action", required=True)

    diag_demo = diag_sub.add_parser(
        "demo", help="known-ground-truth smoke: self-diff identity, "
                     "leak localization, single-tick bisection")
    diag_demo.add_argument("--coarse", type=int, default=16,
                           help="coarse-pass snapshot interval (ticks)")
    diag_demo.add_argument("--workdir", metavar="DIR", default=None,
                           help="keep bisection journals under DIR")
    diag_demo.set_defaults(fn=_diag_demo)

    diag_bisect = diag_sub.add_parser(
        "bisect", help="bisect two seeded runs of a toolbox command to "
                       "the first divergent snapshot window")
    diag_bisect.add_argument("--seed-a", type=int, default=0,
                             dest="seed_a",
                             help="container PRNG seed of side A")
    diag_bisect.add_argument("--seed-b", type=int, default=1,
                             dest="seed_b",
                             help="container PRNG seed of side B")
    diag_bisect.add_argument("--coarse", type=int, default=16,
                             help="coarse-pass snapshot interval (ticks)")
    diag_bisect.add_argument("--max-probes", type=int, default=10,
                             dest="max_probes",
                             help="binary-probe cap (each probe is two "
                                  "runs)")
    diag_bisect.add_argument("--workdir", metavar="DIR", default=None,
                             help="keep bisection journals under DIR "
                                  "instead of a temp dir")
    diag_bisect.add_argument("--report", metavar="FILE",
                             help="write the structured DivergenceReport "
                                  "JSON")
    diag_bisect.add_argument("--boot", type=int, default=1,
                             help="simulated machine boot (both sides)")
    diag_bisect.add_argument("--machine", default="cloudlab-c220g5",
                             choices=sorted(ALL_MACHINES))
    diag_bisect.add_argument("--faults", metavar="PLAN.json",
                             help="fault plan applied to both sides")
    diag_bisect.add_argument("command", nargs=argparse.REMAINDER,
                             help="toolbox command to run on both sides")
    diag_bisect.set_defaults(fn=_diag_bisect)

    diag_fuzz = diag_sub.add_parser(
        "fuzz", help="diff one fuzz program across two container PRNG "
                     "seeds")
    diag_fuzz.add_argument("--entry", metavar="FILE", default=None,
                           help="corpus entry JSON to diagnose")
    diag_fuzz.add_argument("--fuzz-seed", type=int, default=0,
                           dest="fuzz_seed",
                           help="generate the program from this seed "
                                "when no --entry is given")
    diag_fuzz.add_argument("--seed-a", type=int, default=0, dest="seed_a",
                           help="container PRNG seed of side A")
    diag_fuzz.add_argument("--seed-b", type=int, default=0, dest="seed_b",
                           help="container PRNG seed of side B")
    diag_fuzz.add_argument("--report", metavar="FILE",
                           help="write the structured DivergenceReport "
                                "JSON")
    diag_fuzz.set_defaults(fn=_diag_fuzz)

    ckpt = sub.add_parser("ckpt",
                          help="inspect/verify/prune a checkpoint journal")
    ckpt.add_argument("action", choices=["inspect", "verify", "prune"])
    ckpt.add_argument("directory", help="journal directory "
                                        "(the run's --checkpoint-dir)")
    ckpt.add_argument("--keep", type=int, default=3,
                      help="snapshots to retain when pruning")
    ckpt.add_argument("--fingerprint", default=None,
                      help="additionally require this config fingerprint")
    ckpt.set_defaults(fn=cmd_ckpt)

    cache = sub.add_parser("cache",
                           help="inspect/verify/collect a run-cache "
                                "directory (repro.cache)")
    cache.add_argument("action", choices=["stats", "gc", "verify"])
    cache.add_argument("directory", help="cache directory "
                                         "(the run's --cache-dir)")
    cache.set_defaults(fn=cmd_cache)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (getattr(args, "command", None) == []
            and args.subcommand in ("run", "obs")):
        parser.error("%s: missing command" % args.subcommand)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
