"""Shared fixtures: hosts, kernels, and tiny guest images."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core import ContainerConfig, DetTrace, Image, NativeRunner
from repro.cpu.machine import HASWELL_XEON, SKYLAKE_CLOUDLAB, HostEnvironment


@pytest.fixture
def host():
    """A deterministic single host environment."""
    return HostEnvironment(entropy_seed=42)


@pytest.fixture
def host_pair_same_machine():
    """Two different boots of the same machine."""
    a = HostEnvironment(entropy_seed=1, boot_epoch=1.6e9, pid_start=1000,
                        inode_start=100_000, dirent_hash_salt=5)
    b = HostEnvironment(entropy_seed=2, boot_epoch=1.7e9, pid_start=4321,
                        inode_start=900_000, dirent_hash_salt=99)
    return a, b


def make_kernel(host=None):
    from repro.kernel import Kernel

    return Kernel(host or HostEnvironment(entropy_seed=7))


@pytest.fixture
def kernel():
    return make_kernel()


def run_guest(program, host=None, fs_setup=None, argv=None, binaries=None):
    """Boot a kernel, run *program* as init, return the kernel."""
    k = make_kernel(host)
    k.fs.mkdirs("/tmp")
    k.fs.mkdirs("/build")
    if fs_setup is not None:
        fs_setup(k)
    for path, factory in (binaries or {}).items():
        k.register_binary(path, factory)
    k.register_binary("/bin/main", program)
    proc = k.boot("/bin/main", argv=argv, cwd_path="/build")
    k.run(deadline=500.0)
    return k, proc


def image_of(program, extra_binaries=None) -> Image:
    img = Image()
    img.add_binary("/bin/main", program)
    for path, factory in (extra_binaries or {}).items():
        img.add_binary(path, factory)
    return img


def dettrace_run(program, host=None, config=None, extra_binaries=None):
    return DetTrace(config or ContainerConfig()).run(
        image_of(program, extra_binaries), "/bin/main", host=host)


def native_run(program, host=None, extra_binaries=None, fault_plan=None):
    return NativeRunner(fault_plan=fault_plan).run(
        image_of(program, extra_binaries), "/bin/main", host=host)


def garbage_after(run) -> int:
    """Objects a full collection frees after ``run()``, with the
    collector off while it runs: what reference counting could not free
    once *run*'s frame, and the result it returned, were gone.

    ``gc.collect()`` counts only what it deletes itself.  A cycle
    through a suspended generator is freed by closing the generator,
    and what then dies of reference counting goes uncounted, so every
    object that takes a weak reference is watched as well."""
    gc.collect()
    gc.disable()
    try:
        run()
        watched = []
        # A plain loop: a comprehension's function object would be
        # watched too, and die when it returns.
        for obj in gc.get_objects():
            if type(obj).__weakrefoffset__:
                watched.append(weakref.ref(obj))
        del obj
        return gc.collect() + sum(ref() is None for ref in watched)
    finally:
        gc.enable()
