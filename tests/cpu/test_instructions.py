from types import SimpleNamespace

import pytest

from repro.core.config import ContainerConfig
from repro.core.namespaces import UidGidMap
from repro.core.tracer import DetTraceTracer
from repro.cpu import instructions as insn
from repro.cpu.machine import HASWELL_XEON, SANDY_BRIDGE, SKYLAKE_CLOUDLAB, HostEnvironment
from repro.kernel.errors import GuestCrash


def cpu_for(machine=SKYLAKE_CLOUDLAB, seed=0):
    return insn.Cpu(HostEnvironment(machine=machine, entropy_seed=seed))


class TestRdtsc:
    def test_tracks_elapsed_cycles(self):
        cpu = cpu_for()
        t1 = cpu.rdtsc(1.0)
        expected = SKYLAKE_CLOUDLAB.freq_ghz * 1e9
        assert abs(t1 - expected) < 1e4  # within noise

    def test_noisy_across_reads(self):
        cpu = cpu_for()
        assert len({cpu.rdtsc(1.0) for _ in range(10)}) > 1


class TestRdrand:
    def test_returns_entropy(self):
        cpu = cpu_for()
        assert cpu.rdrand() != cpu.rdrand()

    def test_sigill_without_feature(self):
        cpu = cpu_for(machine=SANDY_BRIDGE)
        with pytest.raises(GuestCrash) as exc:
            cpu.rdrand()
        assert exc.value.signum == 4  # SIGILL


class TestCpuid:
    def test_reports_real_machine(self):
        cpu = cpu_for()
        res = cpu.cpuid()
        assert res.cores == SKYLAKE_CLOUDLAB.cores
        assert res.has_feature("rtm")
        assert "4114" in res.brand

    def test_trappable_only_with_faulting_and_new_kernel(self):
        assert insn.trappable(insn.CPUID, SKYLAKE_CLOUDLAB)
        assert not insn.trappable(insn.CPUID, SANDY_BRIDGE)
        assert insn.trappable(insn.RDTSC, SANDY_BRIDGE)
        assert not insn.trappable(insn.RDRAND, SKYLAKE_CLOUDLAB)
        assert not insn.trappable(insn.XBEGIN, SKYLAKE_CLOUDLAB)


class TestTsx:
    def test_aborts_are_nondeterministic(self):
        cpu = cpu_for()
        results = {cpu.xbegin() for _ in range(64)}
        assert insn.TSX_STARTED in results
        assert len(results) > 1  # some aborts occurred

    def test_sigill_without_tsx(self):
        cpu = cpu_for(machine=SANDY_BRIDGE)
        with pytest.raises(GuestCrash):
            cpu.xbegin()


class TestDispatch:
    def test_execute_all_known(self):
        cpu = cpu_for(machine=HASWELL_XEON)
        for name in (insn.RDTSC, insn.RDTSCP, insn.RDRAND, insn.CPUID,
                     insn.XBEGIN, insn.XEND, insn.RDPMC):
            cpu.execute(name, 0.5)

    def test_illegal_instruction_crashes(self):
        cpu = cpu_for()
        with pytest.raises(GuestCrash):
            cpu.execute("movbe_bogus", 0.0)


class TestTrapConfig:
    def test_flags(self):
        """The tracer's trap set: rdtsc by config, cpuid only when
        masking is on and the machine can fault it, rdpmc always, the
        untrappable instructions never."""
        def traps(machine=SKYLAKE_CLOUDLAB, **config):
            tracer = DetTraceTracer(ContainerConfig(**config),
                                    UidGidMap(host_uid=1000))
            tracer.kernel = SimpleNamespace(
                host=HostEnvironment(machine=machine))
            return {name for name in insn.ALL_INSTRUCTIONS
                    if tracer.traps_instruction(None, name)}

        assert traps() == {insn.RDTSC, insn.RDTSCP, insn.CPUID, insn.RDPMC}
        assert traps(mask_cpuid=False) == {insn.RDTSC, insn.RDTSCP,
                                           insn.RDPMC}
        assert traps(SANDY_BRIDGE) == {insn.RDTSC, insn.RDTSCP, insn.RDPMC}
        assert traps(trap_rdtsc=False) == {insn.CPUID, insn.RDPMC}
