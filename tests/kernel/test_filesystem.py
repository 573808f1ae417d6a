import pytest

from repro.cpu.machine import BROADWELL_XEON, SKYLAKE_CLOUDLAB, HostEnvironment
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.kernel.errors import Errno, SyscallError
from repro.kernel.filesystem import Filesystem, normalize, split_path


def fs_for(seed=0, salt=0, **kw):
    return Filesystem(HostEnvironment(entropy_seed=seed, dirent_hash_salt=salt, **kw))


class TestPathHelpers:
    def test_split_drops_empty_and_dot(self):
        assert split_path("/a//b/./c") == ["a", "b", "c"]

    def test_normalize_dotdot(self):
        assert normalize("/a/b/../c") == "/a/c"
        assert normalize("/../a") == "/a"
        assert normalize("/") == "/"


class TestNamei:
    def test_create_and_read_file(self):
        fs = fs_for()
        fs.write_file("/etc/hosts", b"localhost", now=1.0)
        assert fs.read_file("/etc/hosts") == b"localhost"

    def test_resolve_missing_raises_enoent(self):
        fs = fs_for()
        with pytest.raises(SyscallError) as exc:
            fs.resolve(fs.root, fs.root, "/nope")
        assert exc.value.errno == Errno.ENOENT

    def test_relative_resolution_from_cwd(self):
        fs = fs_for()
        d = fs.mkdirs("/home/user")
        fs.write_file("/home/user/f", b"x")
        node = fs.resolve(fs.root, d, "f")
        assert bytes(node.data) == b"x"

    def test_create_duplicate_raises_eexist(self):
        fs = fs_for()
        fs.mkdirs("/d")
        parent = fs.resolve(fs.root, fs.root, "/d")
        fs.create_file(parent, "f")
        with pytest.raises(SyscallError) as exc:
            fs.create_file(parent, "f")
        assert exc.value.errno == Errno.EEXIST

    def test_unlink_releases_inode_for_recycling(self):
        fs = fs_for()
        parent = fs.mkdirs("/d")
        node = fs.create_file(parent, "f")
        ino = node.ino
        fs.unlink(parent, "f")
        again = fs.create_file(parent, "g")
        assert again.ino == ino  # recycled!

    def test_rmdir_nonempty_raises(self):
        fs = fs_for()
        fs.mkdirs("/d/sub")
        parent = fs.root
        with pytest.raises(SyscallError) as exc:
            fs.rmdir(parent, "d")
        assert exc.value.errno == Errno.ENOTEMPTY

    def test_rename_moves_and_replaces(self):
        fs = fs_for()
        fs.write_file("/a", b"1")
        fs.write_file("/b", b"2")
        fs.rename(fs.root, "a", fs.root, "b")
        assert fs.read_file("/b") == b"1"
        assert not fs.exists("/a")

    def test_hard_link_shares_inode(self):
        fs = fs_for()
        node = fs.write_file("/a", b"data")
        fs.hard_link(fs.root, "b", node)
        assert fs.resolve(fs.root, fs.root, "/b") is node
        assert node.nlink == 2
        fs.unlink(fs.root, "a")
        assert node.nlink == 1
        assert fs.read_file("/b") == b"data"

    def test_symlink_resolution(self):
        fs = fs_for()
        fs.write_file("/target", b"T")
        fs.create_symlink(fs.root, "link", "/target")
        assert fs.read_file("/link") == b"T"

    def test_symlink_loop_raises_eloop(self):
        fs = fs_for()
        fs.create_symlink(fs.root, "a", "/b")
        fs.create_symlink(fs.root, "b", "/a")
        with pytest.raises(SyscallError) as exc:
            fs.resolve(fs.root, fs.root, "/a")
        assert exc.value.errno == Errno.ELOOP


class TestIrreproducibilitySources:
    def test_inode_numbers_depend_on_host(self):
        a, b = fs_for(), Filesystem(HostEnvironment(inode_start=777_000))
        na = a.write_file("/f", b"x")
        nb = b.write_file("/f", b"x")
        assert na.ino != nb.ino

    def test_dirent_order_depends_on_salt(self):
        names = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        orders = []
        for salt in (1, 2):
            fs = fs_for(salt=salt)
            d = fs.mkdirs("/d")
            for n in names:
                fs.create_file(d, n)
            orders.append([e.d_name for e in fs.dirent_order(d)])
        assert sorted(orders[0]) == sorted(names)
        assert orders[0] != orders[1]

    def test_dirent_order_stable_within_one_boot(self):
        fs = fs_for(salt=3)
        d = fs.mkdirs("/d")
        for n in ("x", "y", "z", "w"):
            fs.create_file(d, n)
        assert fs.dirent_order(d) == fs.dirent_order(d)

    def test_directory_size_differs_across_machines(self):
        a = Filesystem(HostEnvironment(machine=SKYLAKE_CLOUDLAB))
        b = Filesystem(HostEnvironment(machine=BROADWELL_XEON))
        for fs in (a, b):
            d = fs.mkdirs("/d")
            for i in range(40):
                fs.create_file(d, "f%d" % i)
        sa = a.stat(a.resolve(a.root, a.root, "/d")).st_size
        sb = b.stat(b.resolve(b.root, b.root, "/d")).st_size
        assert sa != sb

    def test_timestamps_come_from_wall_clock(self):
        fs = fs_for()
        node = fs.write_file("/f", b"x", now=1234.5)
        st = fs.stat(node)
        assert st.st_mtime == 1234.5


class TestDiskAccounting:
    def test_enospc_injection(self):
        fs = Filesystem(HostEnvironment())
        fs.fault_injector = FaultInjector(FaultPlan(rules=(
            FaultRule(fault="disk_full", bytes=10),)))
        fs.write_file("/small", b"12345")
        with pytest.raises(SyscallError) as exc:
            fs.write_file("/big", b"X" * 100)
        assert exc.value.errno == Errno.ENOSPC


class TestSnapshot:
    def test_snapshot_contains_files_and_symlinks(self):
        fs = fs_for()
        fs.write_file("/a/b", b"content")
        fs.create_symlink(fs.root, "ln", "/a/b")
        snap = fs.snapshot()
        assert snap["/a/b"] == b"content"
        assert snap["/ln"] == b"->/a/b"

    def test_snapshot_metadata_mode(self):
        fs = fs_for()
        fs.write_file("/f", b"z", mode=0o640)
        snap = fs.snapshot(include_metadata=True)
        assert snap["/f"].startswith(b"640:0:0|")

    def test_walk_sorted(self):
        fs = fs_for()
        for name in ("c", "a", "b"):
            fs.write_file("/" + name, b"")
        paths = [p for p, _ in fs.walk()]
        assert paths == ["/", "/a", "/b", "/c"]
