from repro.cpu.machine import HostEnvironment
from repro.kernel.kernel import Kernel
from repro.tracer.ptrace import TracerBase


class TestSerialTimeline:
    def test_charges_serialize(self):
        tracer = TracerBase()
        tracer.kernel = Kernel(HostEnvironment())
        t1 = tracer.charge(10e-6)
        t2 = tracer.charge(5e-6)
        assert t2 == t1 + 5e-6  # second charge queues behind the first

    def test_charge_starts_at_now_when_idle(self):
        tracer = TracerBase()
        kernel = Kernel(HostEnvironment())
        tracer.kernel = kernel
        kernel.clock.advance_to(1.0)
        assert tracer.charge(1e-6) == 1.0 + 1e-6

    def test_memory_accounting(self):
        tracer = TracerBase()
        tracer.kernel = Kernel(HostEnvironment())
        cost = tracer.peek_memory(4)
        assert tracer.obs.counters[("tracer", "memory_reads")] == 4
        assert cost > 0
        tracer.poke_memory(2)
        assert tracer.obs.counters[("tracer", "memory_writes")] == 2
