#!/usr/bin/env python3
"""Record-and-replay vs reproducible containers (paper §7.1.3).

Builds the same package under Mozilla-rr-style record/replay and under
DetTrace, contrasting the two approaches the way the paper does:

* rr faithfully replays ONE recorded (irreproducible) execution — two
  recordings of the same package still differ, and the trace is an
  opaque artifact with real storage cost;
* rr's interception surface is fragile (the unsupported-ioctl crash the
  paper hit on 46 of 81 packages);
* DetTrace needs no recording at all: the build is a pure function of
  its inputs, with a human-readable audit trail (the source tree).

Run:  python examples/record_replay_vs_dettrace.py
"""

from repro.core import OK
from repro.repro_tools import first_build_host, reprotest_dettrace, tree_digest
from repro.rnr import record, replay
from repro.workloads.debian import PackageSpec, TOOLS, package_image

SPEC = PackageSpec(name="curl", n_sources=4, parallel_jobs=2,
                   embeds_timestamp=True, embeds_random_symbols=True)

CRASHY = PackageSpec(name="x11-utils", n_sources=2, exotic_ioctl=True)


def main():
    image = package_image(SPEC)

    print("== rr: record the build twice ==")
    runs = []
    for seed in (0, 1):
        res, recording = record(image, TOOLS["driver"],
                                argv=["dpkg-buildpackage"],
                                host=first_build_host(seed=seed))
        assert res.status == OK, res.error
        runs.append((res, recording))
        print("recording %d: %6d events, %6.1f KB trace, deb digest %s" % (
            seed, recording.event_count, recording.storage_size() / 1024,
            tree_digest(res.output_tree)[:12]))
    print("two recordings identical:",
          tree_digest(runs[0][0].output_tree)
          == tree_digest(runs[1][0].output_tree))
    print()

    print("== rr: replay recording 0 on a different host ==")
    res = replay(image, TOOLS["driver"], runs[0][1],
                 argv=["dpkg-buildpackage"], host=first_build_host(seed=77))
    print("replay completed without divergence:", res.status == OK)
    print()

    print("== rr: the unsupported-ioctl crash ==")
    res, _ = record(package_image(CRASHY), TOOLS["driver"],
                    argv=["dpkg-buildpackage"], host=first_build_host())
    print("recording %s: %s (%s)" % (CRASHY.name, res.status, res.error))
    print()

    print("== DetTrace: no recording, just reproducibility ==")
    verdict = reprotest_dettrace(SPEC)
    print("double-build verdict:", verdict.verdict)
    print("trace storage required: 0 bytes "
          "(the audit trail is the source tree itself)")


if __name__ == "__main__":
    main()
