"""The artifact's --debug tracing."""
from repro.core import ContainerConfig
from tests.conftest import dettrace_run


def program(sys):
    yield from sys.write_file("f", b"payload")
    yield from sys.stat("f")
    yield from sys.rdtsc()
    return 0


def waiting_parent(sys):
    pid = yield from sys.spawn("/bin/child")
    res = yield from sys.waitpid(pid)
    yield from sys.println("child status %d" % res.status)
    return 0


def busy_child(sys):
    for i in range(3):
        yield from sys.write_file("c%d" % i, b"x")
    return 0


class TestDebugLog:
    def test_off_by_default(self):
        assert dettrace_run(program).debug_log == []

    def test_level1_logs_syscalls(self):
        r = dettrace_run(program, config=ContainerConfig(debug=1))
        text = "\n".join(r.debug_log)
        assert "open(" in text
        assert "stat(" in text
        assert "[pid 1]" in text
        assert "trap" not in text

    def test_level2_logs_instruction_traps(self):
        r = dettrace_run(program, config=ContainerConfig(debug=2))
        assert any("trap rdtsc" in line for line in r.debug_log)

    def test_level2_logs_every_probe_of_a_blocked_wait4(self, monkeypatch):
        from repro.kernel.syscalls import SyscallTable

        def log():
            return dettrace_run(waiting_parent,
                                config=ContainerConfig(debug=2),
                                extra_binaries={"/bin/child": busy_child}
                                ).debug_log

        lines = log()
        probes = [line for line in lines if "] probe wait4 " in line]
        assert len(probes) > 1
        assert probes[-1].endswith("-> value")
        assert all(line.endswith("-> block") for line in probes[:-1])
        # Replayed probes log exactly what executed probes log.
        monkeypatch.setattr(SyscallTable, "replay_test",
                            lambda self, t, call: None)
        assert log() == lines

    def test_log_is_deterministic(self):
        from repro.cpu.machine import HostEnvironment

        a = dettrace_run(program, config=ContainerConfig(debug=1),
                         host=HostEnvironment(entropy_seed=1))
        b = dettrace_run(program, config=ContainerConfig(debug=1),
                         host=HostEnvironment(entropy_seed=2))
        assert a.debug_log == b.debug_log
