"""Bioinformatics workflows (SS6.1, SS7.5)."""
import pytest

from repro.cache.key import image_fingerprint
from repro.cpu.machine import HASWELL_XEON, HostEnvironment
from repro.kernel import Kernel
from repro.repro_tools import tree_digest
from repro.workloads.bioinf import (
    ALL_TOOLS,
    CLUSTAL,
    HMMER,
    INPUT_PATH,
    RAXML,
    run_dettrace,
    run_native,
    synth_sequences,
    tool_image,
    unit_weight,
)
from repro.workloads.bioinf import common


def host(seed, boot=0.0):
    return HostEnvironment(machine=HASWELL_XEON, entropy_seed=seed,
                           boot_epoch=1.6e9 + boot)


class TestInputs:
    def test_sequences_deterministic(self):
        assert synth_sequences(4, 64, "x") == synth_sequences(4, 64, "x")
        assert synth_sequences(4, 64, "x") != synth_sequences(4, 64, "y")

    def test_fasta_shape(self):
        data = synth_sequences(3, 32, "t").decode().splitlines()
        assert data[0] == ">seq0"
        assert len(data) == 6
        assert set(data[1]) <= set("ACGT")

    def test_unit_weight_range(self):
        for i in range(50):
            assert 0.0 <= unit_weight(i) <= 1.0


class TestImage:
    def test_input_is_synthesized_once_per_image(self, monkeypatch):
        calls = []
        real = common.synth_sequences

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(common, "synth_sequences", counted)
        img = tool_image(RAXML)
        for seed in (1, 2, 3):
            kernel = Kernel(host(seed))
            img.install(kernel, "/build")
            assert (kernel.fs.read_file("/build/" + INPUT_PATH)
                    == real(64, 256, "raxml"))
        assert calls == [(64, 256, "raxml")]

    def test_the_cache_key_covers_the_input(self, monkeypatch):
        """The input is bound to the image's setup function, so the run
        cache's key moves with its bytes."""
        keys = set()
        for data in (b">seq0\nACGT\n", b">seq0\nACGA\n"):
            monkeypatch.setattr(common, "synth_sequences",
                                lambda *args: data)
            keys.add(image_fingerprint(tool_image(RAXML)))
        assert len(keys) == 2


class TestRuns:
    @pytest.mark.parametrize("tool", ["clustal", "hmmer", "raxml"])
    def test_completes_and_merges(self, tool):
        spec = ALL_TOOLS[tool]
        r = run_native(tool_image(spec), tool, 4, host=host(1))
        assert r.succeeded, r.stderr
        assert ("%s.out" % tool) in r.output_tree
        out = r.output_tree["%s.out" % tool]
        assert out.count(b"unit ") == spec.n_units

    def test_worker_partition_covers_all_units(self):
        r = run_native(tool_image(CLUSTAL), "clustal", 16, host=host(2))
        out = r.output_tree["clustal.out"]
        units = sorted(int(line.split()[1])
                       for line in out.decode().splitlines())
        assert units == list(range(CLUSTAL.n_units))


class TestReproducibilityMatrix:
    """The SS6.1 hashdeep findings: clustal reproducible natively,
    hmmer/raxml not; everything reproducible under DetTrace."""

    def _digests(self, spec, runner, seeds):
        img = tool_image(spec)
        return [tree_digest(runner(img, spec.tool, 4,
                                   host=host(s, boot=s * 100.0)).output_tree)
                for s in seeds]

    def test_clustal_native_reproducible(self):
        a, b = self._digests(CLUSTAL, run_native, (1, 2))
        assert a == b

    @pytest.mark.parametrize("spec", [HMMER, RAXML],
                             ids=["hmmer", "raxml"])
    def test_time_seeded_tools_native_irreproducible(self, spec):
        a, b = self._digests(spec, run_native, (1, 2))
        assert a != b

    @pytest.mark.parametrize("spec", [CLUSTAL, HMMER, RAXML],
                             ids=["clustal", "hmmer", "raxml"])
    def test_all_reproducible_under_dettrace(self, spec):
        a, b = self._digests(spec, run_dettrace, (1, 2))
        assert a == b


class TestScalingShape:
    def test_native_speedup_monotone(self):
        img = tool_image(HMMER)
        walls = [run_native(img, "hmmer", n, host=host(n)).wall_time
                 for n in (1, 4, 16)]
        assert walls[0] > walls[1] > walls[2]

    def test_raxml_dettrace_crosses_native_sequential(self):
        """The paper's raxml shape: DT@1 is ~3.4x slower than native@1,
        but DT@16 is around parity."""
        img = tool_image(RAXML)
        seq = run_native(img, "raxml", 1, host=host(1)).wall_time
        dt1 = run_dettrace(img, "raxml", 1, host=host(2)).wall_time
        dt16 = run_dettrace(img, "raxml", 16, host=host(3)).wall_time
        assert dt1 / seq > 2.0       # heavy slowdown sequentially
        assert dt16 < dt1 * 0.5      # strong recovery with processes

    def test_clustal_dettrace_overhead_small(self):
        img = tool_image(CLUSTAL)
        n16 = run_native(img, "clustal", 16, host=host(4)).wall_time
        d16 = run_dettrace(img, "clustal", 16, host=host(4)).wall_time
        assert d16 / n16 < 1.6  # compute-bound: modest overhead
