import pytest

from repro.core.config import CANONICAL_ENV, ContainerConfig, ablated, full_config


class TestConfig:
    def test_defaults_are_full_dettrace(self):
        cfg = ContainerConfig()
        for field in ("virtualize_time", "patch_vdso", "deterministic_randomness",
                      "virtualize_inodes", "sort_getdents", "retry_partial_io",
                      "deterministic_pids", "serialize_threads", "trap_rdtsc",
                      "mask_cpuid", "mask_machine", "disable_aslr",
                      "canonical_env", "emulate_timers", "use_seccomp",
                      "reject_sockets", "deterministic_dir_sizes",
                      "map_user_to_root"):
            assert getattr(cfg, field) is True, field

    def test_env_canonicalization(self):
        cfg = ContainerConfig()
        env = cfg.env_for({"PATH": "/weird", "LANG": "de_DE"})
        assert env == CANONICAL_ENV

    def test_env_passthrough_when_disabled(self):
        cfg = ablated("canonical_env")
        assert cfg.env_for({"X": "1"}) == {"X": "1"}

    def test_ablated_flips_exactly_one(self):
        cfg = ablated("sort_getdents")
        assert cfg.sort_getdents is False
        assert cfg.virtualize_time is True

    def test_ablated_unknown_raises(self):
        with pytest.raises(ValueError):
            ablated("not_a_feature")

    @pytest.mark.parametrize("knob", ["timeout", "cache", "observe",
                                      "deterministic_loopback"])
    def test_ablated_accepts_only_mechanisms(self, knob):
        # A knob that is not a mechanism exists, but is not ablatable.
        assert hasattr(ContainerConfig(), knob)
        with pytest.raises(ValueError):
            ablated(knob)

    def test_full_config_overrides(self):
        cfg = full_config(prng_seed=99, timeout=5.0)
        assert cfg.prng_seed == 99
        assert cfg.timeout == 5.0
