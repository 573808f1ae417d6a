#!/bin/sh
# CI gate: byte-compile the tree, run the tier-1 suite, then the fault
# matrix and the observability plane as their own smoke stages.
#
#   ./scripts/check.sh          # full gate
#   ./scripts/check.sh faults   # just the fault-injection smoke stage
#   ./scripts/check.sh obs      # just the observability smoke stage
#   ./scripts/check.sh perf     # just the hot-path perf stage
#   ./scripts/check.sh fuzz     # just the differential-fuzz smoke stage
#   ./scripts/check.sh ckpt     # just the checkpoint/resume smoke stage
#   ./scripts/check.sh diag     # just the divergence-diagnosis stage
#   ./scripts/check.sh sockets  # just the deterministic-networking stage
#   ./scripts/check.sh cache    # just the run-cache stage
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

stage="${1:-all}"

# One work directory for the whole gate; each stage writes under its
# own subdirectory ("$tmp" below).
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

if [ "$stage" = "all" ]; then
    echo "== compileall =="
    python -m compileall -q src
    echo "== tier-1 tests =="
    python -m pytest -x -q
fi

if [ "$stage" = "all" ] || [ "$stage" = "faults" ]; then
    echo "== fault-injection smoke stage (-m faults) =="
    python -m pytest -x -q -m faults
fi

if [ "$stage" = "all" ] || [ "$stage" = "obs" ]; then
    echo "== observability smoke stage (-m obs) =="
    python -m pytest -x -q -m obs
    echo "== metrics-identity gate (two runs -> identical trace JSON) =="
    tmp="$work/obs"
    mkdir "$tmp"
    python -m repro run --trace-out "$tmp/a.json" -- ls -l /bin \
        > "$tmp/a.out" 2> /dev/null
    python -m repro run --trace-out "$tmp/b.json" -- ls -l /bin \
        > "$tmp/b.out" 2> /dev/null
    cmp "$tmp/a.json" "$tmp/b.json"
    cmp "$tmp/a.out" "$tmp/b.out"
    echo "trace JSON and stdout byte-identical across reruns"
fi

if [ "$stage" = "all" ] || [ "$stage" = "fuzz" ]; then
    echo "== differential-fuzz smoke stage (-m fuzz) =="
    python -m pytest -x -q -m fuzz
    echo "== fixed-seed 60s fuzz walk (full matrix, zero divergences) =="
    python -m repro fuzz --seed 0 --budget 100000 --seconds 60
    echo "== regression corpus replay =="
    python -m repro fuzz --replay-corpus tests/fuzz/corpus
fi

if [ "$stage" = "all" ] || [ "$stage" = "ckpt" ]; then
    echo "== checkpoint/restore smoke stage (-m ckpt) =="
    python -m pytest -x -q -m ckpt tests/ckpt
    echo "== crash-resume-identity smoke (kill -> resume -> diff traces) =="
    tmp="$work/ckpt"
    mkdir "$tmp"
    cat > "$tmp/plan.json" <<'PLAN'
{"rules": [{"fault": "kill", "at_tick": 40, "transient": true}]}
PLAN
    # Crashed run (exit 70 is the point), then resume, then the
    # uninterrupted reference; resumed trace/stdout must be identical.
    python -m repro run --checkpoint-dir "$tmp/journal" \
        --checkpoint-every 9 --checkpoint-full-every 3 \
        --faults "$tmp/plan.json" \
        --trace-out "$tmp/crash.json" -- ls -l /bin \
        > "$tmp/crash.out" 2> /dev/null && exit 1 || true
    python -m repro run --checkpoint-dir "$tmp/journal" \
        --checkpoint-every 9 --faults "$tmp/plan.json" --resume \
        --trace-out "$tmp/resumed.json" -- ls -l /bin \
        > "$tmp/resumed.out" 2> /dev/null
    python -m repro run --trace-out "$tmp/base.json" -- ls -l /bin \
        > "$tmp/base.out" 2> /dev/null
    cmp "$tmp/resumed.json" "$tmp/base.json"
    cmp "$tmp/resumed.out" "$tmp/base.out"
    echo "resumed trace and stdout byte-identical to uninterrupted run"
    python -m repro ckpt verify "$tmp/journal"
    echo "== prune-agreement gate (manifest prune vs scan prune) =="
    # Both runs pruned from the manager's in-memory manifest (keep 3);
    # a fresh scan-based prune with the same keep must find nothing.
    prune_out="$(python -m repro ckpt prune "$tmp/journal" --keep 3)"
    echo "$prune_out"
    case "$prune_out" in
        "pruned 0 file(s) "*) ;;
        *) echo "manifest prune and scan prune disagree"; exit 1 ;;
    esac
    echo "== ckpt overhead bench + disabled-path regression gate =="
    if [ -f BENCH_ckpt.json ]; then
        cp BENCH_ckpt.json "$tmp/baseline.json"
    fi
    python -m pytest -x -q benchmarks/bench_ckpt.py
    if [ -f "$tmp/baseline.json" ]; then
        python -m benchmarks.bench_ckpt "$tmp/baseline.json"
    else
        echo "no committed BENCH_ckpt.json baseline; skipping regression gate"
    fi
    echo "== delta-compression gate (interval 10: delta journal < 40% of full) =="
    python - <<'GATE'
import json
report = json.load(open("BENCH_ckpt.json"))
cell = report["intervals"]["10"]
full = cell["full"]["journal_bytes"]
delta = cell["delta"]["journal_bytes"]
ratio = delta / full
print("delta gate: interval-10 journal %d bytes vs full %d (%.1f%%)"
      % (delta, full, 100 * ratio))
raise SystemExit(0 if ratio < 0.40 else 1)
GATE
fi

if [ "$stage" = "all" ] || [ "$stage" = "diag" ]; then
    echo "== divergence-diagnosis stage (-m diag) =="
    python -m pytest -x -q -m diag
    echo "== self-diff identity gate (repro diff on byte-identical traces) =="
    tmp="$work/diag"
    mkdir "$tmp"
    python -m repro run --trace-out "$tmp/a.json" -- ls -l /bin \
        > /dev/null 2> /dev/null
    python -m repro run --trace-out "$tmp/b.json" -- ls -l /bin \
        > /dev/null 2> /dev/null
    cmp "$tmp/a.json" "$tmp/b.json"
    python -m repro diff "$tmp/a.json" "$tmp/b.json"
    echo "== diag demo gate (leak localization + single-tick bisection) =="
    python -m repro diag demo --workdir "$tmp/demo"
    echo "== corpus-entry divergence localization smoke =="
    # The banked entry replays clean within the matrix but must produce
    # a localized divergence (exit 1) across container PRNG seeds.
    python -m repro diag fuzz \
        --entry tests/fuzz/corpus/prng-seed-sensitivity.json \
        --seed-b 1 --report "$tmp/divergence.json" && exit 1 || \
        [ $? -eq 1 ]
    grep -q '"classification": "stream-content"' "$tmp/divergence.json"
    echo "cross-seed divergence localized and banked"
fi

if [ "$stage" = "all" ] || [ "$stage" = "sockets" ]; then
    echo "== deterministic-networking stage (kernel socket tests) =="
    python -m pytest -x -q tests/kernel/test_sockets.py tests/ckpt/test_sockets_ckpt.py
    echo "== two-boot byte-identity gate (client/server example) =="
    # Two different boots (entropy, boot epoch, pid/inode bases) of the
    # echo pipeline: stdout, both logs, the tree digest and the full
    # Chrome trace must all be byte-identical.
    tmp="$work/sockets"
    mkdir "$tmp"
    python examples/client_server.py --dump "$tmp/a" --boot-seed 1
    python examples/client_server.py --dump "$tmp/b" --boot-seed 2
    for f in stdout.txt server.log client.log digest.txt trace.json; do
        cmp "$tmp/a/$f" "$tmp/b/$f"
    done
    echo "client/server runs byte-identical across boots (incl. trace JSON)"
fi

if [ "$stage" = "all" ] || [ "$stage" = "cache" ]; then
    echo "== run-cache stage (-m cache) =="
    python -m pytest -x -q -m cache tests/cache
    echo "== cold/warm sweep identity gate =="
    tmp="$work/cache"
    mkdir "$tmp"
    python -m repro run --cache-dir "$tmp/cas" -- ls -l /bin \
        > "$tmp/cold.out" 2> "$tmp/cold.err"
    python -m repro run --cache-dir "$tmp/cas" -- ls -l /bin \
        > "$tmp/warm.out" 2> "$tmp/warm.err"
    cmp "$tmp/cold.out" "$tmp/warm.out"
    grep -q '\[cache store ' "$tmp/cold.err"
    grep -q '\[cache hit ' "$tmp/warm.err"
    echo "warm run served from cache, stdout byte-identical to cold run"
    python -m repro cache stats "$tmp/cas"
    python -m repro cache verify "$tmp/cas"
    echo "== concurrent cold-store gate (fan-out workers store one key) =="
    # Four workers miss the same key on a fresh store and store it at
    # once.  On a 1-core host run_jobs takes its serial loop instead, so
    # the gate cannot fail spuriously there.
    python -m repro run --cache-dir "$tmp/fanout" --jobs 4 --repeat 8 \
        -- ls -l /bin > /dev/null 2> "$tmp/fanout.err"
    grep -q 'outputs identical' "$tmp/fanout.err"
    python -m repro cache verify "$tmp/fanout"
    echo "== verify-mode gate (re-execute and compare against the entry) =="
    python -m repro run --cache-dir "$tmp/cas" --cache verify \
        -- ls -l /bin > /dev/null 2> "$tmp/verify.err"
    grep -q '\[cache verify_ok ' "$tmp/verify.err"
    echo "== perturbed-entry divergence gate (tampered outcome -> exit 70) =="
    # Re-store a validly-checksummed but mutated outcome through the
    # repro.cache API (a byte-flip would just read as torn -> miss; a
    # *plausible* wrong entry is the case verify mode exists for).
    python - "$tmp/cas" <<'PERTURB'
import os
import sys

from repro.cache import CacheStore, RunKey

store = CacheStore(sys.argv[1])
names = [n for n in os.listdir(store.keys_dir) if n.endswith(".key")]
assert len(names) == 1, names
key = RunKey(digest=names[0][: -len(".key")])
outcome = store.get(key)
assert outcome is not None
outcome.stdout += "tampered line\n"
store.put(key, outcome)
print("perturbed entry %s..." % key.digest[:16])
PERTURB
    python -m repro run --cache-dir "$tmp/cas" --cache verify \
        -- ls -l /bin > /dev/null 2> "$tmp/tamper.err" && exit 1 || \
        [ $? -eq 70 ]
    grep -q 'verify_mismatch' "$tmp/tamper.err"
    echo "tampered entry detected as divergence (exit 70)"
    echo "== cache payoff bench + warm-lookup regression gate =="
    if [ -f BENCH_cache.json ]; then
        cp BENCH_cache.json "$tmp/baseline.json"
    fi
    python -m pytest -x -q benchmarks/bench_cache.py
    if [ -f "$tmp/baseline.json" ]; then
        python -m benchmarks.bench_cache "$tmp/baseline.json"
    else
        echo "no committed BENCH_cache.json baseline; skipping regression gate"
    fi
fi

if [ "$stage" = "all" ] || [ "$stage" = "perf" ]; then
    echo "== hot-path perf stage (-m perf) =="
    # Stash the committed baseline, run the bench (which rewrites
    # BENCH_hotpath.json), then gate: >30% serviced-syscalls/sec
    # regression vs the baseline fails the stage.  The bench itself
    # asserts the determinism identities (schedule + digest) and the
    # 5x scheduler-decision floor.
    tmp="$work/perf"
    mkdir "$tmp"
    if [ -f BENCH_hotpath.json ]; then
        cp BENCH_hotpath.json "$tmp/baseline.json"
    fi
    python -m pytest -x -q -m perf benchmarks/bench_hotpath.py
    if [ -f "$tmp/baseline.json" ]; then
        python -m benchmarks.bench_hotpath "$tmp/baseline.json"
    else
        echo "no committed BENCH_hotpath.json baseline; skipping regression gate"
    fi
fi

echo "check.sh: OK"
