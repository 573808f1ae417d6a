"""Every metadata-mutating syscall marks its inode dirty.

The incremental-checkpoint delta (repro.ckpt) serializes exactly the
inodes in ``Filesystem.dirty_nodes()``; a mutator that forgets
``Filesystem.note`` silently drops its change from every delta snapshot
— the restored run then diverges only when resumed across that window,
the nastiest kind of heisenbug.  This property drives random
metadata-mutating syscalls through the real syscall table *after* a
``clear_dirty()`` fence and asserts the touched inode is in the dirty
set, creation sites included (creations must be dirty so the new
``(ino, generation)`` key exists in the snapshot at all)."""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.errors import SyscallError
from repro.kernel.types import O_CREAT, O_WRONLY
from tests.conftest import run_guest

#: (op name, needs pre-existing file).  Each op both mutates metadata
#: and must stamp the target inode.
_MUTATORS = st.sampled_from([
    "chmod", "chown", "utime", "truncate", "write",
    "create", "mkdir", "mkfifo",
])

name_st = st.sampled_from(["a", "b", "c", "d"])
ops_st = st.lists(st.tuples(_MUTATORS, name_st), min_size=1, max_size=20)


def _fresh_kernel():
    """A finished kernel with a live thread to issue syscalls from and a
    few seed files, dirty state fenced."""
    def prog(sys):
        yield from sys.write_file("a", b"seed")
        yield from sys.write_file("b", b"seed")
        return 0

    k, proc = run_guest(prog)
    assert proc.exit_status == 0
    k.fs.clear_dirty()
    assert not k.fs.dirty_nodes()
    return k, proc.main_thread


def _apply(table, thread, op, name):
    if op == "chmod":
        table.sys_chmod(thread, name, 0o640)
    elif op == "chown":
        table.sys_chown(thread, name, 7, 8)
    elif op == "utime":
        table.sys_utime(thread, name, times=(5.0, 6.0))
    elif op == "truncate":
        table.sys_truncate(thread, name, 2)
    elif op == "write":
        fd = table.sys_open(thread, name, O_WRONLY)
        try:
            table.sys_write(thread, fd, b"mut")
        finally:
            table.sys_close(thread, fd)
    elif op == "create":
        fd = table.sys_open(thread, name + ".new", O_WRONLY | O_CREAT, 0o666)
        table.sys_close(thread, fd)
        name = name + ".new"
    elif op == "mkdir":
        table.sys_mkdir(thread, name + ".dir")
        name = name + ".dir"
    elif op == "mkfifo":
        table.sys_mkfifo(thread, name + ".fifo")
        name = name + ".fifo"
    return name


@settings(max_examples=60, deadline=None)
@given(ops=ops_st)
def test_metadata_mutators_stamp_dirty_epoch(ops):
    kernel, thread = _fresh_kernel()
    table = kernel.table
    for op, name in ops:
        try:
            touched = _apply(table, thread, op, name)
        except SyscallError:
            continue  # e.g. truncate on a dir created earlier: fine
        node = kernel.fs.resolve(kernel.fs.root, thread.process.cwd, touched)
        assert kernel.fs.key_of(node) in kernel.fs.dirty_nodes(), (op, touched)


@settings(max_examples=30, deadline=None)
@given(ops=ops_st)
def test_clear_dirty_fences_every_epoch(ops):
    """After a fence, only post-fence mutations are dirty — and they all
    are, regardless of how the pre-fence history interleaved."""
    kernel, thread = _fresh_kernel()
    table = kernel.table
    for op, name in ops:
        try:
            _apply(table, thread, op, name)
        except SyscallError:
            continue
    kernel.fs.clear_dirty()
    assert not kernel.fs.dirty_nodes()
    table.sys_chmod(thread, "a", 0o600)
    keys = set(kernel.fs.dirty_nodes())
    node = kernel.fs.resolve(kernel.fs.root, thread.process.cwd, "a")
    assert keys == {kernel.fs.key_of(node)}
