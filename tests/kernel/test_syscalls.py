"""Each syscall family exercised through real guest programs."""
import pytest

from repro.kernel.errors import Errno, SyscallError
from repro.kernel.kernel import SYSCALL_PREFIX, VDSO_CALLS
from repro.kernel.types import (
    O_APPEND, O_CREAT, O_EXCL, O_RDWR, O_TRUNC, O_WRONLY, SEEK_CUR, SEEK_END,
)
from tests.conftest import run_guest


def returns(program, **kw):
    """Run *program*; stash its return payload on the kernel."""
    result = {}

    def wrapper(sys):
        value = yield from program(sys)
        result["value"] = value
        return 0

    k, proc = run_guest(wrapper, **kw)
    assert proc.exit_status == 0, k.stderr.text()
    return result["value"], k


class TestFileSyscalls:
    def test_open_read_write_close(self):
        def prog(sys):
            fd = yield from sys.open("f.txt", O_WRONLY | O_CREAT)
            yield from sys.write_all(fd, b"hello world")
            yield from sys.close(fd)
            return (yield from sys.read_file("f.txt"))

        value, _ = returns(prog)
        assert value == b"hello world"

    def test_open_excl_fails_on_existing(self):
        def prog(sys):
            yield from sys.write_file("f", b"")
            try:
                yield from sys.open("f", O_WRONLY | O_CREAT | O_EXCL)
            except SyscallError as err:
                return err.errno
            return None

        value, _ = returns(prog)
        assert value == Errno.EEXIST

    def test_open_trunc_clears(self):
        def prog(sys):
            yield from sys.write_file("f", b"longcontent")
            fd = yield from sys.open("f", O_WRONLY | O_TRUNC)
            yield from sys.write_all(fd, b"x")
            yield from sys.close(fd)
            return (yield from sys.read_file("f"))

        value, _ = returns(prog)
        assert value == b"x"

    def test_append_mode(self):
        def prog(sys):
            yield from sys.write_file("f", b"abc")
            fd = yield from sys.open("f", O_WRONLY | O_APPEND)
            yield from sys.write_all(fd, b"def")
            yield from sys.close(fd)
            return (yield from sys.read_file("f"))

        value, _ = returns(prog)
        assert value == b"abcdef"

    def test_lseek(self):
        def prog(sys):
            yield from sys.write_file("f", b"0123456789")
            fd = yield from sys.open("f")
            yield from sys.syscall("lseek", fd=fd, offset=4)
            a = yield from sys.read(fd, 2)
            yield from sys.syscall("lseek", fd=fd, offset=-2, whence=SEEK_END)
            b = yield from sys.read(fd, 2)
            yield from sys.syscall("lseek", fd=fd, offset=-1, whence=SEEK_CUR)
            c = yield from sys.read(fd, 1)
            return (a, b, c)

        value, _ = returns(prog)
        assert value == (b"45", b"89", b"9")

    def test_stat_and_fstat_agree(self):
        def prog(sys):
            yield from sys.write_file("f", b"xyz")
            st1 = yield from sys.stat("f")
            fd = yield from sys.open("f")
            st2 = yield from sys.fstat(fd)
            return (st1.st_ino, st2.st_ino, st1.st_size)

        (ino1, ino2, size), _ = returns(prog)
        assert ino1 == ino2
        assert size == 3

    def test_getdents_lists_entries(self):
        def prog(sys):
            yield from sys.mkdir("d")
            yield from sys.write_file("d/a", b"")
            yield from sys.write_file("d/b", b"")
            return sorted((yield from sys.listdir("d")))

        value, _ = returns(prog)
        assert value == ["a", "b"]

    def test_mkdir_rmdir_unlink(self):
        def prog(sys):
            yield from sys.mkdir("d")
            yield from sys.write_file("d/f", b"")
            yield from sys.unlink("d/f")
            yield from sys.syscall("rmdir", path="d")
            return (yield from sys.access("d"))

        value, _ = returns(prog)
        assert value is False

    def test_rename(self):
        def prog(sys):
            yield from sys.write_file("old", b"data")
            yield from sys.rename("old", "new")
            return (yield from sys.read_file("new"))

        value, _ = returns(prog)
        assert value == b"data"

    def test_link_and_readlink(self):
        def prog(sys):
            yield from sys.write_file("t", b"T")
            yield from sys.symlink("t", "ln")
            target = yield from sys.readlink("ln")
            via = yield from sys.read_file("ln")
            yield from sys.syscall("link", target="t", linkpath="hard")
            st = yield from sys.stat("hard")
            return (target, via, st.st_nlink)

        value, _ = returns(prog)
        assert value == ("t", b"T", 2)

    def test_chmod_chown(self):
        def prog(sys):
            yield from sys.write_file("f", b"")
            yield from sys.chmod("f", 0o600)
            yield from sys.chown("f", 7, 8)
            st = yield from sys.stat("f")
            return (st.st_mode & 0o777, st.st_uid, st.st_gid)

        value, _ = returns(prog)
        assert value == (0o600, 7, 8)

    def test_truncate(self):
        def prog(sys):
            yield from sys.write_file("f", b"1234567890")
            yield from sys.syscall("truncate", path="f", length=4)
            yield from sys.syscall("truncate", path="f", length=6)
            return (yield from sys.read_file("f"))

        value, _ = returns(prog)
        assert value == b"1234\x00\x00"

    def test_utime_explicit_and_null(self):
        def prog(sys):
            yield from sys.write_file("f", b"")
            yield from sys.utime("f", times=(10.0, 20.0))
            st1 = yield from sys.stat("f")
            yield from sys.utime("f")  # null -> kernel stamps wall time
            st2 = yield from sys.stat("f")
            return (st1.st_atime, st1.st_mtime, st2.st_mtime)

        (at, mt, mt2), k = returns(prog)
        assert (at, mt) == (10.0, 20.0)
        assert mt2 >= k.host.boot_epoch

    def test_getcwd_chdir(self):
        def prog(sys):
            before = yield from sys.getcwd()
            yield from sys.mkdir("sub")
            yield from sys.chdir("sub")
            after = yield from sys.getcwd()
            return (before, after)

        value, _ = returns(prog)
        assert value == ("/build", "/build/sub")


class TestPipeSyscalls:
    def test_pipe_roundtrip(self):
        def prog(sys):
            r, w = yield from sys.pipe()
            yield from sys.write(w, b"ping")
            data = yield from sys.read(r, 10)
            return data

        value, _ = returns(prog)
        assert value == b"ping"

    def test_dup2_redirects(self):
        def prog(sys):
            r, w = yield from sys.pipe()
            yield from sys.dup2(w, 1)
            yield from sys.write(1, b"to-pipe")
            return (yield from sys.read(r, 16))

        value, _ = returns(prog)
        assert value == b"to-pipe"


class TestIdentitySyscalls:
    def test_pid_identity(self):
        def prog(sys):
            return ((yield from sys.getpid()), (yield from sys.getppid()),
                    (yield from sys.getuid()))

        (pid, ppid, uid), k = returns(prog)
        assert pid == k.host.pid_start
        assert ppid == 0
        assert uid == 1000

    def test_setuid(self):
        def prog(sys):
            yield from sys.syscall("setuid", uid=0)
            return (yield from sys.getuid())

        value, _ = returns(prog)
        assert value == 0

    def test_uname_reflects_machine(self):
        def prog(sys):
            un = yield from sys.uname()
            return un.as_tuple()

        value, k = returns(prog)
        assert value[0] == "Linux"
        assert value[1] == k.host.machine.hostname
        assert value[4] == "x86_64"

    def test_sysinfo_core_count(self):
        def prog(sys):
            si = yield from sys.sysinfo()
            return si.nprocs

        value, k = returns(prog)
        assert value == k.host.ncores


class TestTimeSyscalls:
    def test_time_is_wall_clock(self):
        def prog(sys):
            return (yield from sys.time_syscall())

        value, k = returns(prog)
        assert value == int(k.host.boot_epoch + k.clock.now) or value == int(k.host.boot_epoch)

    def test_nanosleep_advances_clock(self):
        def prog(sys):
            t0 = yield from sys.gettimeofday()
            yield from sys.sleep(0.25)
            t1 = yield from sys.gettimeofday()
            return t1 - t0

        value, _ = returns(prog)
        assert value >= 0.25

    def test_vdso_calls_invisible_to_syscall_counter(self):
        def prog(sys):
            for _ in range(10):
                yield from sys.gettimeofday()
            return 0

        _, k = returns(prog)
        counters = k.obs.counters
        assert counters.get(SYSCALL_PREFIX + ("gettimeofday",), 0) == 0
        assert counters[VDSO_CALLS] >= 10


class TestRandomSyscalls:
    def test_getrandom_length_and_entropy(self):
        def prog(sys):
            a = yield from sys.getrandom(16)
            b = yield from sys.getrandom(16)
            return (a, b)

        (a, b), _ = returns(prog)
        assert len(a) == len(b) == 16
        assert a != b

    def test_urandom_device(self):
        def prog(sys):
            return (yield from sys.urandom(8))

        value, _ = returns(prog)
        assert len(value) == 8


class TestSockets:
    def test_socket_echo_is_time_tainted(self):
        def prog(sys):
            fd = yield from sys.socket()
            yield from sys.connect(fd)
            yield from sys.write(fd, b"GET /")
            return (yield from sys.read(fd, 64))

        value, _ = returns(prog)
        assert value.startswith(b"pong ")

    def test_connect_on_non_socket(self):
        def prog(sys):
            fd = yield from sys.open("/dev/null")
            try:
                yield from sys.connect(fd)
            except SyscallError as err:
                return err.errno

        value, _ = returns(prog)
        assert value == Errno.ENOTSOCK


class TestIoctl:
    def test_winsize(self):
        def prog(sys):
            return (yield from sys.ioctl(1, "TIOCGWINSZ"))

        value, _ = returns(prog)
        assert value == (80, 24)

    def test_unknown_request_enotty(self):
        def prog(sys):
            try:
                yield from sys.ioctl(1, "TCGETS2")
            except SyscallError as err:
                return err.errno

        value, _ = returns(prog)
        assert value == Errno.ENOTTY


class TestMisc:
    def test_enosys_for_unknown_syscall(self):
        def prog(sys):
            try:
                yield from sys.syscall("not_a_syscall")
            except SyscallError as err:
                return err.errno

        value, _ = returns(prog)
        assert value == Errno.ENOSYS

    def test_getauxval_vdso_address_is_aslr_dependent(self):
        def prog(sys):
            return (yield from sys.syscall("getauxval", key="AT_SYSINFO_EHDR"))

        v1, _ = returns(prog)
        from repro.cpu.machine import HostEnvironment
        v2, _ = returns(prog, host=HostEnvironment(entropy_seed=99))
        assert v1 != v2
