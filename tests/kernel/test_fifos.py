"""Named pipes (mkfifo)."""
import pytest

from repro.kernel.errors import Errno, SyscallError
from repro.kernel.types import O_RDWR, O_WRONLY
from tests.conftest import dettrace_run, native_run, run_guest


class TestFifo:
    def test_roundtrip_between_processes(self):
        def producer(sys):
            fd = yield from sys.open("channel", O_WRONLY)
            yield from sys.write_all(fd, b"through the fifo")
            yield from sys.close(fd)
            return 0

        def main(sys):
            yield from sys.mkfifo("channel")
            pid = yield from sys.spawn("/bin/producer")
            fd = yield from sys.open("channel")
            data = yield from sys.read_exact(fd, 100)
            yield from sys.close(fd)
            yield from sys.waitpid(pid)
            yield from sys.write_file("got", data)
            return 0

        k, proc = run_guest(main, binaries={"/bin/producer": producer})
        assert proc.exit_status == 0
        assert k.fs.read_file("/build/got") == b"through the fifo"

    def test_mkfifo_eexist(self):
        def main(sys):
            yield from sys.mkfifo("f")
            try:
                yield from sys.mkfifo("f")
            except SyscallError as err:
                return 0 if err.errno == Errno.EEXIST else 1
            return 1

        _, proc = run_guest(main)
        assert proc.exit_status == 0

    def test_fifo_stat_kind(self):
        from repro.kernel.types import S_IFIFO, S_IFMT

        def main(sys):
            yield from sys.mkfifo("f")
            st = yield from sys.stat("f")
            return 0 if (st.st_mode & S_IFMT) == S_IFIFO else 1

        _, proc = run_guest(main)
        assert proc.exit_status == 0


class TestFifoUnderDetTrace:
    def test_fifo_ipc_reproducible_with_partial_reads(self):
        from repro.cpu.machine import HostEnvironment
        from tests.conftest import dettrace_run

        def producer(sys):
            fd = yield from sys.open("channel", O_WRONLY)
            for i in range(6):
                yield from sys.write_all(fd, b"%02d" % i)
                yield from sys.compute(3e-4)  # drip-feed
            yield from sys.close(fd)
            return 0

        def main(sys):
            yield from sys.mkfifo("channel")
            yield from sys.spawn("/bin/producer")
            fd = yield from sys.open("channel")
            data = yield from sys.read(fd, 12)   # ONE read; DT retries
            yield from sys.write_file("got", data)
            yield from sys.waitpid(-1)
            return 0

        results = [dettrace_run(main, host=HostEnvironment(entropy_seed=s),
                                extra_binaries={"/bin/producer": producer})
                   for s in (1, 2)]
        for r in results:
            assert r.exit_code == 0, (r.status, r.error)
            assert r.output_tree["got"] == b"000102030405"
        assert results[0].output_tree == results[1].output_tree
        assert results[0].counters.read_retries > 0


def _fifo_read_write(sys):
    """One O_RDWR descriptor holds both ends: what it writes, it reads."""
    yield from sys.mkfifo("loop")
    fd = yield from sys.open("loop", O_RDWR)
    n = yield from sys.write(fd, b"hi")
    data = yield from sys.read(fd, 2)
    yield from sys.close(fd)
    yield from sys.println("%d %r" % (n, data))
    return 0


class TestFifoReadWrite:
    @pytest.mark.parametrize("runner", [dettrace_run, native_run],
                             ids=["dettrace", "native"])
    def test_rdwr_fifo_reads_back_its_own_write(self, runner):
        result = runner(_fifo_read_write)
        assert result.exit_code == 0, (result.status, result.error)
        assert result.stdout == "2 b'hi'\n"
