"""libc-analog helpers: the specific leak vectors the paper names."""
from repro.guest.libc import format_date, gnu_hash, tz_offset_for
from repro.kernel.kernel import SYSCALL_PREFIX
from tests.conftest import run_guest


class TestTmpnam:
    def test_name_contains_pid_and_tsc(self):
        from repro.guest.libc import tmpnam

        def main(sys):
            name = yield from tmpnam(sys, prefix="/tmp/cc")
            pid = yield from sys.getpid()
            assert str(pid) in name
            yield from sys.write_file("name", name)
            return 0

        k, proc = run_guest(main)
        assert proc.exit_status == 0

    def test_names_vary_across_boots(self):
        from repro.cpu.machine import HostEnvironment
        from repro.guest.libc import tmpnam

        def main(sys):
            name = yield from tmpnam(sys)
            yield from sys.write_file("name", name)
            return 0

        names = set()
        for seed in (1, 2, 3):
            k, _ = run_guest(main, host=HostEnvironment(
                entropy_seed=seed, pid_start=1000 + seed * 17))
            names.add(k.fs.read_file("/build/name"))
        assert len(names) == 3


class TestMkstemp:
    def test_creates_unique_file_via_vdso(self):
        from repro.guest.libc import mkstemp

        def main(sys):
            fd1, p1 = yield from mkstemp(sys)
            fd2, p2 = yield from mkstemp(sys)
            assert p1 != p2
            yield from sys.close(fd1)
            yield from sys.close(fd2)
            return 0

        k, proc = run_guest(main)
        assert proc.exit_status == 0
        # the timing went through the vDSO, NOT a syscall
        assert k.obs.counters.get(SYSCALL_PREFIX + ("gettimeofday",), 0) == 0


class TestFormatDate:
    def test_timezone_changes_output(self):
        t = 1_600_000_000
        assert format_date(t, "UTC") != format_date(t, "Asia/Tokyo")

    def test_locale_changes_format(self):
        t = 1_600_000_000
        assert format_date(t, "UTC", "C") != format_date(t, "UTC", "de_DE.UTF-8")

    def test_unknown_tz_is_utc(self):
        assert tz_offset_for("Mars/Olympus") == 0


class TestGnuHash:
    def test_deterministic(self):
        assert gnu_hash(b"symbol") == gnu_hash(b"symbol")
        assert gnu_hash(b"a") != gnu_hash(b"b")
