"""The CAS layer: atomic entries, torn-write detection, refcounted gc."""
import multiprocessing
import os

import pytest

from repro.cache import CachedOutcome, CacheStore, RunKey

pytestmark = pytest.mark.cache


def outcome(stdout="hello\n", tree=None) -> CachedOutcome:
    return CachedOutcome(
        status="ok", exit_code=0, error="", stdout=stdout, stderr="",
        output_tree=tree if tree is not None else {"out.txt": b"artifact\n"},
        syscall_count=12, wall_time=0.5,
        digests={"tree": "t", "stdout_sha256": "s", "stderr_sha256": "e"})


def key(n=0) -> RunKey:
    return RunKey(digest="%064x" % (0xABC0 + n))


@pytest.fixture
def store(tmp_path):
    return CacheStore(str(tmp_path))


class TestRoundTrip:
    def test_put_get(self, store):
        store.put(key(), outcome())
        got = store.get(key())
        assert got is not None
        assert got.stdout == "hello\n"
        assert got.output_tree == {"out.txt": b"artifact\n"}
        assert got.exit_code == 0

    def test_missing_key_is_none(self, store):
        assert store.get(key(9)) is None

    def test_overwrite_replaces(self, store):
        store.put(key(), outcome(stdout="v1\n"))
        store.put(key(), outcome(stdout="v2\n"))
        assert store.get(key()).stdout == "v2\n"

    def test_identical_outcomes_share_one_object(self, store):
        store.put(key(0), outcome())
        store.put(key(1), outcome())
        stats = store.stats()
        assert stats.keys == 2
        assert stats.objects == 1
        assert stats.deduplicated_keys == 2


def _put_many(directory, barrier, times):
    store = CacheStore(directory)
    barrier.wait(timeout=60)
    for _ in range(times):
        store.put(key(), outcome())


class TestConcurrentPuts:
    def test_workers_storing_one_key_all_succeed(self, store):
        """Fan-out workers (``repro run --jobs N --repeat M``) store the
        same key at the same moment: no put may fail or leave a temp
        file, and the entry must read back whole."""
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(4)
        procs = [ctx.Process(target=_put_many,
                             args=(store.directory, barrier, 50),
                             daemon=True)
                 for _ in range(4)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert [proc.is_alive() for proc in procs] == [False] * 4
        assert [proc.exitcode for proc in procs] == [0] * 4
        assert store.get(key()) == outcome()
        assert store.verify_store() == []
        assert [name for directory in (store.keys_dir, store.objects_dir)
                for name in os.listdir(directory)
                if name.startswith(".tmp-")] == []


class TestTornEntries:
    def _flip_last_byte(self, path):
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(data))

    def test_corrupt_object_reads_as_miss(self, store):
        store.put(key(), outcome())
        obj = os.path.join(store.objects_dir,
                           os.listdir(store.objects_dir)[0])
        self._flip_last_byte(obj)
        assert store.get(key()) is None

    def test_truncated_object_reads_as_miss(self, store):
        store.put(key(), outcome())
        obj = os.path.join(store.objects_dir,
                           os.listdir(store.objects_dir)[0])
        with open(obj, "r+b") as fh:
            fh.truncate(os.path.getsize(obj) - 10)
        assert store.get(key()) is None

    def test_corrupt_key_reads_as_miss(self, store):
        store.put(key(), outcome())
        with open(store.key_path(key().digest), "wb") as fh:
            fh.write(b"not json")
        assert store.get(key()) is None

    def test_dangling_key_reads_as_miss(self, store):
        store.put(key(), outcome())
        for name in os.listdir(store.objects_dir):
            os.remove(os.path.join(store.objects_dir, name))
        assert store.get(key()) is None

    def test_future_format_reads_as_miss(self, store):
        store.put(key(), outcome())
        path = store.key_path(key().digest)
        text = open(path, "rb").read().decode()
        with open(path, "w") as fh:
            fh.write(text.replace('"format": 1', '"format": 99'))
        assert store.get(key()) is None


class TestGc:
    def test_gc_keeps_live_entries(self, store):
        store.put(key(), outcome())
        removed = store.gc()
        assert removed == {"torn": [], "unreferenced": []}
        assert store.get(key()) is not None

    def test_gc_removes_torn_and_dangling(self, store):
        store.put(key(0), outcome(stdout="a\n"))
        store.put(key(1), outcome(stdout="b\n"))
        with open(store.key_path(key(0).digest), "wb") as fh:
            fh.write(b"garbage")
        removed = store.gc()
        assert len(removed["torn"]) == 1
        # The now-unreferenced object of key 0 goes with it.
        assert len(removed["unreferenced"]) == 1
        assert store.get(key(1)) is not None
        assert store.stats().unreferenced_objects == 0

    def test_gc_sweeps_leftover_tmp_files(self, store):
        store.put(key(), outcome())
        tmp = os.path.join(store.keys_dir, ".tmp-interrupted.key")
        with open(tmp, "wb") as fh:
            fh.write(b"half-written")
        store.gc()
        assert not os.path.exists(tmp)
        assert store.get(key()) is not None

    def test_verify_store_reports_problems(self, store):
        store.put(key(), outcome())
        assert store.verify_store() == []
        obj = os.path.join(store.objects_dir,
                           os.listdir(store.objects_dir)[0])
        with open(obj, "r+b") as fh:
            fh.truncate(os.path.getsize(obj) - 4)
        problems = store.verify_store()
        assert problems and any("torn" in p for p in problems)


class TestStats:
    def test_empty_store(self, store):
        stats = store.stats()
        assert stats.keys == 0 and stats.objects == 0

    def test_counts_and_bytes(self, store):
        store.put(key(0), outcome(stdout="a\n"))
        store.put(key(1), outcome(stdout="b\n"))
        stats = store.stats()
        assert stats.keys == 2
        assert stats.objects == 2
        assert stats.object_bytes > 0
        assert stats.deduplicated_keys == 0
