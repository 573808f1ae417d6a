"""The handler outcome protocol itself."""
import types

import pytest

from repro.core import ContainerConfig, ablated
from repro.core.handlers import build_handler_table, passthrough
from repro.cpu.machine import HostEnvironment
from repro.kernel.ops import Syscall
from tests.conftest import dettrace_run, make_kernel


def _idle(sys):
    return 0
    yield


#: tag -> the calls a fresh init thread makes; the last one's outcome
#: carries the tag.
OUTCOME_CALLS = {
    "value": [Syscall("getpid", {})],
    "error": [Syscall("close", {"fd": 97})],
    "block": [Syscall("pipe", {}), Syscall("read", {"fd": 3, "count": 1})],
    "sleep": [Syscall("nanosleep", {"seconds": 0.5})],
    "exited": [Syscall("exit", {"code": 3})],
    "execve": [Syscall("execve", {"path": "/bin/idle"})],
}


class TestPassthroughOutcomes:
    @pytest.mark.parametrize("tag", sorted(OUTCOME_CALLS))
    def test_passthrough_returns_the_kernels_outcome(self, tag):
        """Kernel.execute makes the outcome in the handlers' own tags,
        and passthrough hands on that very tuple."""
        kernel = make_kernel()
        kernel.register_binary("/bin/idle", _idle)
        thread = kernel.boot("/bin/idle").main_thread
        *setup, call = OUTCOME_CALLS[tag]
        for earlier in setup:
            assert kernel.execute(thread, earlier)[0] == "value"
        made = []
        execute = kernel.execute

        def spy(thread, call):
            made.append(execute(thread, call))
            return made[-1]

        kernel.execute = spy
        outcome = passthrough(types.SimpleNamespace(kernel=kernel), thread, call)
        assert [o[0] for o in made] == [tag]
        assert outcome is made[0]

    def test_sleep_outcome_when_timer_emulation_off(self):
        """With emulate_timers ablated, nanosleep reaches the kernel and
        the tracer must let virtual time pass."""
        def main(sys):
            t0 = yield from sys.gettimeofday()
            yield from sys.sleep(0.5)
            t1 = yield from sys.gettimeofday()
            yield from sys.write_file("dt", b"big" if t1 - t0 >= 0.4 else b"small")
            return 0

        cfg = ablated("emulate_timers")
        # also need raw time to measure: disable virtualization too
        cfg.virtualize_time = False
        cfg.patch_vdso = False
        r = dettrace_run(main, config=cfg)
        assert r.exit_code == 0
        assert r.output_tree["dt"] == b"big"
        assert r.wall_time >= 0.5

    def test_unknown_syscall_defaults_to_passthrough(self):
        """A syscall with no registered handler goes through the generic
        passthrough — serialized but unmodified (e.g. sync)."""
        def main(sys):
            yield from sys.syscall("bpf")  # has a handler: unsupported
            return 0

        from repro.core.container import UNSUPPORTED
        assert dettrace_run(main).status == UNSUPPORTED

        def main2(sys):
            # truncate has no entry: the passthrough default serves it
            yield from sys.write_file("f", b"12345678")
            yield from sys.syscall("truncate", path="f", length=3)
            data = yield from sys.read_file("f")
            return 0 if data == b"123" else 1

        result = dettrace_run(main2)
        assert result.exit_code == 0
        # Labelled by the handler that ran, not by a table entry.
        counters = result.metrics.counters
        assert counters["syscall/truncate/passthrough"] == 1
        assert counters["syscall/close/passthrough"] >= 2
        assert "syscall/close/rewritten" not in counters
        assert counters["syscall/open/rewritten"] >= 2
        assert counters["syscall/write/rewritten"] >= 1
        # No table entry restates the default.
        assert passthrough not in build_handler_table().values()

    def test_device_stat_virtualized(self):
        def main(sys):
            st = yield from sys.stat("/dev/null")
            yield from sys.write_file("out", "%d %d %.0f" % (
                st.st_dev, st.st_ino, st.st_mtime))
            return 0

        a = dettrace_run(main, host=HostEnvironment(entropy_seed=1, inode_start=7))
        b = dettrace_run(main, host=HostEnvironment(entropy_seed=2, inode_start=70_000))
        assert a.output_tree == b.output_tree


class TestCounterPlumbing:
    def test_urandom_opens_counted(self):
        def main(sys):
            for _ in range(3):
                yield from sys.urandom(4)
            return 0

        r = dettrace_run(main)
        assert r.counters.urandom_opens == 3

    def test_memory_traffic_counted(self):
        def main(sys):
            yield from sys.write_file("f", b"x" * 4096)
            yield from sys.read_file("f")
            return 0

        r = dettrace_run(main)
        assert r.counters.memory_reads > 0
        assert r.counters.memory_writes > 0

    def test_getdents_sorted_counter(self):
        def main(sys):
            yield from sys.mkdir("d")
            yield from sys.write_file("d/a", b"")
            yield from sys.listdir("d")
            yield from sys.listdir("d")
            return 0

        r = dettrace_run(main)
        assert r.counters.getdents_sorted == 2
