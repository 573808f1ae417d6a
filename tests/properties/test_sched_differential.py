"""Differential testing of the hot-path engine (scheduler + fs caches).

The O(log n) ``logical`` scheduler and the sort-and-scan
``logical-ref`` oracle implement the same Kendo-style policy; for
arbitrary guest programs they must produce *identical* runs — same
output trees, same stdout, same virtual wall time, and the same
structured trace (which embeds the full service order).  Likewise the
namei/dirent caches are pure memoization: ``fs_caches`` on vs off must
be invisible to everything but host wall time.
"""
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ContainerConfig, DetTrace
from repro.cpu.machine import HASWELL_XEON, HostEnvironment
from repro.repro_tools.variations import host_pair
from repro.workloads.bioinf import RAXML, tool_image
from repro.workloads.debian import build_dettrace, generate_population
from repro.workloads.ml import ALEXNET, tf_image
from tests.conftest import dettrace_run
from tests.properties.test_determinism_props import ACTIONS, program_for

action_st = st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=24)
seed_st = st.integers(min_value=0, max_value=2**16)


def _run(actions, seed, **cfg_kwargs):
    main, child = program_for(actions)
    cfg = ContainerConfig(observe=True, **cfg_kwargs)
    return dettrace_run(main, host=HostEnvironment(entropy_seed=seed),
                        config=cfg, extra_binaries={"/bin/kid": child})


def _assert_identical_runs(ra, rb):
    assert ra.exit_code == rb.exit_code
    assert ra.stdout == rb.stdout
    assert ra.output_tree == rb.output_tree
    assert ra.wall_time == rb.wall_time
    # The chrome trace embeds every serviced syscall with its virtual
    # timestamp and pid: identical JSON means identical schedules.
    assert ra.trace.to_chrome() == rb.trace.to_chrome()
    assert ra.metrics.counters == rb.metrics.counters
    assert ra.metrics.totals == rb.metrics.totals


@settings(max_examples=25, deadline=None)
@given(actions=action_st, seed=seed_st)
def test_logical_equals_logical_ref(actions, seed):
    ra = _run(actions, seed, scheduler="logical")
    rb = _run(actions, seed, scheduler="logical-ref")
    _assert_identical_runs(ra, rb)


@settings(max_examples=25, deadline=None)
@given(actions=action_st, seed=seed_st)
def test_fs_caches_invisible(actions, seed):
    ra = _run(actions, seed, fs_caches=True)
    rb = _run(actions, seed, fs_caches=False)
    _assert_identical_runs(ra, rb)


@settings(max_examples=10, deadline=None)
@given(actions=action_st, seed=seed_st)
def test_all_hotpath_knobs_together(actions, seed):
    """Fast scheduler + caches vs reference scheduler + no caches."""
    ra = _run(actions, seed, scheduler="logical", fs_caches=True)
    rb = _run(actions, seed, scheduler="logical-ref", fs_caches=False)
    _assert_identical_runs(ra, rb)


@settings(max_examples=10, deadline=None)
@given(actions=action_st, seed=seed_st)
def test_observation_off_same_totals(actions, seed):
    """The allocation-light obs-off fast path must count exactly what
    the obs-on path counts: metrics are derived from the same dispatch
    stream, only the event objects are elided."""
    ra = _run(actions, seed)                      # observe=True via _run
    main, child = program_for(actions)
    rb = dettrace_run(main, host=HostEnvironment(entropy_seed=seed),
                      config=ContainerConfig(observe=False),
                      extra_binaries={"/bin/kid": child})
    assert ra.output_tree == rb.output_tree
    assert ra.stdout == rb.stdout
    assert ra.wall_time == rb.wall_time
    assert ra.metrics.counters == rb.metrics.counters
    assert ra.metrics.totals == rb.metrics.totals
    assert ra.metrics.syscalls_by_name == rb.metrics.syscalls_by_name
    assert rb.trace is None and ra.trace is not None


# -- the benchmark's programs, at reduced size ----------------------------

def _raxml(cfg):
    """raxml at 16 worker processes: a wait4 parent probed after every
    service."""
    image = tool_image(dataclasses.replace(RAXML, n_units=48))
    return DetTrace(cfg).run(
        image, "/usr/bin/raxml", argv=["raxml", "16"],
        host=HostEnvironment(machine=HASWELL_XEON, entropy_seed=11))


def _alexnet(cfg):
    """AlexNet training for one step: 16 threads on futex locks behind
    the sibling-serialization token."""
    image = tf_image(dataclasses.replace(ALEXNET, steps=1))
    return DetTrace(cfg).run(
        image, "/usr/bin/tensorflow",
        host=HostEnvironment(machine=HASWELL_XEON, entropy_seed=11))


def _package(cfg):
    """The first package of seed 0's smallest stratified shape (two
    sources, eight include probes), built on its first host."""
    spec = next(s for s in generate_population(3000, seed=0)
                if not s.expect_dt_unsupported and not s.syscall_storm
                and (s.n_sources, s.include_probes) == (2, 8))
    return build_dettrace(spec, config=cfg, host=host_pair(seed=0)[0]).result


@pytest.mark.parametrize("program", [_raxml, _alexnet, _package],
                         ids=["raxml", "alexnet", "package"])
def test_perf_programs_logical_equals_logical_ref(program):
    """The programs the scheduler's hot path is tuned for decide exactly
    as the reference scan does."""
    ra = program(ContainerConfig(observe=True, scheduler="logical"))
    rb = program(ContainerConfig(observe=True, scheduler="logical-ref"))
    assert ra.succeeded, (ra.status, ra.error)
    _assert_identical_runs(ra, rb)
