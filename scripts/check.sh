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
#   ./scripts/check.sh experiments  # just the paper-reproduction gate
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

stage="${1:-all}"

# One work directory for the whole gate; each stage writes under its
# own subdirectory ("$tmp" below).
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# bench_gate NAME: run benchmarks/bench_NAME.py, which asserts its floors
# and ceilings and rewrites BENCH_NAME.json, then gate that fresh record
# against the committed one, trends included (benchmarks/gate.py).
bench_gate() {
    if [ ! -f "BENCH_$1.json" ]; then
        echo "no committed BENCH_$1.json baseline"
        exit 1
    fi
    cp "BENCH_$1.json" "$work/BENCH_$1.baseline.json"
    python -m pytest -x -q "benchmarks/bench_$1.py"
    python -m benchmarks.gate "BENCH_$1.json" "$work/BENCH_$1.baseline.json"
}

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
    echo "== metrics-surface gate (tracer counters exported, defaults labelled passthrough) =="
    python -m repro run --export-metrics jsonl --metrics-out "$tmp/m.jsonl" \
        -- ls -l /bin > /dev/null 2>&1
    for name in tracer/memory_writes syscall/close/passthrough; do
        grep -q "\"name\":\"$name\"" "$tmp/m.jsonl" \
            || { echo "metrics export lacks $name"; exit 1; }
    done
    if grep -q '"name":"syscall/close/rewritten"' "$tmp/m.jsonl"; then
        echo "close, served by the passthrough default, labelled rewritten"
        exit 1
    fi
    echo "tracer counters exported; close counted as passthrough"
    echo "== obs overhead bench + gates (obs on/off, diff vs bisect) =="
    bench_gate obs_overhead
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
    echo "== chain-file gate (one .snap file per chain: one per full snapshot listed) =="
    fulls="$(python -m repro ckpt inspect "$tmp/journal" | grep -c ' full ')"
    files="$(ls "$tmp/journal" | grep -c '\.snap$')"
    echo "$files chain file(s), $fulls full snapshot(s)"
    [ "$fulls" -gt 0 ] && [ "$fulls" = "$files" ]
    echo "== journal-identity gate (the same crash run twice -> cmp every snapshot) =="
    python -m repro run --checkpoint-dir "$tmp/journal2" \
        --checkpoint-every 9 --checkpoint-full-every 3 \
        --faults "$tmp/plan.json" \
        --trace-out "$tmp/crash2.json" -- ls -l /bin \
        > "$tmp/crash2.out" 2> /dev/null && exit 1 || true
    [ "$(ls "$tmp/journal")" = "$(ls "$tmp/journal2")" ]
    for snap in "$tmp/journal"/*; do
        cmp "$snap" "$tmp/journal2/${snap##*/}"
    done
    echo "journals of two identical crash runs byte-identical"
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
    echo "== resume-from-delta gate (resumed guest state = uninterrupted, every barrier) =="
    # Killed at tick 50, the newest snapshot is the delta at barrier 45;
    # the resumed run and an uninterrupted one on the same cadence must
    # fingerprint equal at every barrier the two journals hold.
    cat > "$tmp/plan50.json" <<'PLAN'
{"rules": [{"fault": "kill", "at_tick": 50, "transient": true}]}
PLAN
    python -m repro run --checkpoint-dir "$tmp/delta" --checkpoint-keep 0 \
        --checkpoint-every 9 --checkpoint-full-every 3 \
        --faults "$tmp/plan50.json" -- ls -l /bin \
        > /dev/null 2> /dev/null && exit 1 || true
    python -m repro run --checkpoint-dir "$tmp/delta" --checkpoint-keep 0 \
        --checkpoint-every 9 --checkpoint-full-every 3 \
        --faults "$tmp/plan50.json" --resume -- ls -l /bin \
        > /dev/null 2> /dev/null
    python -m repro run --checkpoint-dir "$tmp/straight" --checkpoint-keep 0 \
        --checkpoint-every 9 --checkpoint-full-every 3 -- ls -l /bin \
        > /dev/null 2> /dev/null
    python -m repro ckpt verify "$tmp/delta" | grep guest-state > "$tmp/delta.fp"
    python -m repro ckpt verify "$tmp/straight" | grep guest-state \
        > "$tmp/straight.fp"
    cmp "$tmp/delta.fp" "$tmp/straight.fp"
    echo "resumed-from-delta guest state equals the uninterrupted run's at $(wc -l < "$tmp/delta.fp") barriers"
    echo "== torn-tail gate (newest chain file cut 5 bytes short -> resume = uninterrupted) =="
    # The resume-from-delta gate's crash run, traced (a resume keeps the
    # crashed run's config, observation included): its newest record is
    # the delta at barrier 45, appended to the chain file of the full at
    # 36.  Torn, it is detected and never used, and the resume from
    # barrier 36 ends as the uninterrupted run.
    python -m repro run --checkpoint-dir "$tmp/torn" --checkpoint-keep 0 \
        --checkpoint-every 9 --checkpoint-full-every 3 \
        --faults "$tmp/plan50.json" --trace-out "$tmp/torn-crash.json" \
        -- ls -l /bin > /dev/null 2> /dev/null && exit 1 || true
    newest="$tmp/torn/$(ls "$tmp/torn" | sort | tail -n 1)"
    truncate -s -5 "$newest"
    python -m repro ckpt inspect "$tmp/torn" > "$tmp/torn.list"
    grep -q "^INVALID  $newest@" "$tmp/torn.list"
    python -m repro run --checkpoint-dir "$tmp/torn" --checkpoint-keep 0 \
        --checkpoint-every 9 --checkpoint-full-every 3 \
        --faults "$tmp/plan50.json" --resume \
        --trace-out "$tmp/torn.json" -- ls -l /bin \
        > "$tmp/torn.out" 2> /dev/null
    cmp "$tmp/torn.json" "$tmp/base.json"
    cmp "$tmp/torn.out" "$tmp/base.out"
    echo "resume past a torn append: trace and stdout byte-identical to uninterrupted run"
    echo "== ckpt overhead bench + gates (overheads, delta journal, disabled-path trend) =="
    bench_gate ckpt
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
    echo "== cold/warm trace gate (a hit writes the stored run's trace) =="
    python -m repro run --cache-dir "$tmp/traced" --trace-out "$tmp/cold.json" \
        -- date > /dev/null 2> "$tmp/tcold.err"
    python -m repro run --cache-dir "$tmp/traced" --trace-out "$tmp/warm.json" \
        -- date > /dev/null 2> "$tmp/twarm.err"
    grep -q '\[cache store ' "$tmp/tcold.err"
    grep -q '\[cache hit ' "$tmp/twarm.err"
    cmp "$tmp/cold.json" "$tmp/warm.json"
    echo "warm run wrote the trace byte-identical to the cold run's"
    echo "== code-edit gate (an edited simulator misses the old entry) =="
    # Store `date`, then rerun it on the same store from a copy of src/
    # whose format_date prints EDITED first: the code digest in the key
    # moves, so the run must miss, execute and store.
    python -m repro run --cache-dir "$tmp/code" -- date \
        > /dev/null 2> "$tmp/orig.err"
    grep -q '\[cache store ' "$tmp/orig.err"
    python - src "$tmp/src" <<'EDIT'
import os
import shutil
import sys

shutil.copytree(sys.argv[1], sys.argv[2],
                ignore=shutil.ignore_patterns("__pycache__"))
path = os.path.join(sys.argv[2], "repro", "guest", "libc.py")
with open(path) as fh:
    text = fh.read()
old = "def format_date("
assert text.count(old) == 1
with open(path, "w") as fh:
    fh.write(text.replace(old, "def format_date(*args, **kwargs):\n"
                               "    return 'EDITED ' + _format_date(*args, **kwargs)\n"
                               "\n\ndef _format_date("))
EDIT
    PYTHONPATH="$tmp/src" python -m repro run --cache-dir "$tmp/code" \
        -- date > "$tmp/edited.out" 2> "$tmp/edited.err"
    grep -q '\[cache store ' "$tmp/edited.err"
    grep -q '^EDITED ' "$tmp/edited.out"
    echo "edited code missed the old entry and ran: $(cat "$tmp/edited.out")"
    echo "== stale-key gate (gc reclaims entries written by other code) =="
    # Copy the live entry into a fresh store under another key, with its
    # record naming another code digest.
    python - "$tmp/cas" "$tmp/stale" <<'STALE'
import json
import os
import sys

from repro.cache import CacheStore, RunKey

live = CacheStore(sys.argv[1])
names = [n for n in os.listdir(live.keys_dir) if n.endswith(".key")]
outcome = live.get(RunKey(digest=names[0][: -len(".key")]))
stale = CacheStore(sys.argv[2])
key = RunKey(digest="0" * 64)
stale.put(key, outcome)
path = stale.key_path(key.digest)
with open(path) as fh:
    record = json.load(fh)
record["code"] = "0" * 64
with open(path, "w") as fh:
    fh.write(json.dumps(record, sort_keys=True) + "\n")
STALE
    python -m repro cache stats "$tmp/stale" | grep -q 'stale keys: *1$'
    python -m repro cache gc "$tmp/stale"
    [ -z "$(ls -A "$tmp/stale/keys")" ] && [ -z "$(ls -A "$tmp/stale/objects")" ]
    python -m repro cache verify "$tmp/stale"
    echo "stale record and its object reclaimed by gc"
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
    echo "== cache payoff bench + gates (speedup, warm-lookup trend) =="
    bench_gate cache
fi

if [ "$stage" = "all" ] || [ "$stage" = "experiments" ]; then
    echo "== paper-reproduction gate (regenerate at scale 1.0, cmp) =="
    # Every paper-vs-measured number is deterministic: a change to one
    # must come from a deliberate regeneration of the committed files.
    tmp="$work/experiments"
    mkdir "$tmp"
    python scripts/run_experiments.py --scale 1.0 --out "$tmp/EXPERIMENTS.md"
    for f in EXPERIMENTS.md figure5.svg figure6.svg; do
        cmp "$tmp/$f" "$f"
    done
    echo "EXPERIMENTS.md and both figures byte-identical to the committed files"
fi

if [ "$stage" = "all" ] || [ "$stage" = "perf" ]; then
    echo "== hot-path perf stage (scheduler floor, serviced-syscalls trend) =="
    # perfbench's own tests: its layer spans wrap the tracer's handler
    # table and passthrough default.  Beside them, the host-memory
    # invariant: every run body frees its kernel by reference counting,
    # so peak RSS does not follow the cyclic collector; and the call
    # count of a traced syscall's round trip, exact and capped.
    python -m pytest -x -q perfbench/test_harness.py \
        tests/kernel/test_cyclic_garbage.py tests/kernel/test_hot_loop_calls.py
    # The bench asserts the determinism identities (schedule + fan-out
    # digests) itself.
    bench_gate hotpath
fi

echo "check.sh: OK"
