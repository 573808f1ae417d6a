"""The image fingerprint keys an image by its declaration.

``image_fingerprint`` hashes what ``Image.install`` consumes instead of
installing the image.  The reference oracle below is the installed-tree
fingerprint: install the image into a kernel under a pinned canonical
host and Merkle-walk the tree, together with the installed binaries and
download URLs.  The declaration may be finer than the tree (two
declarations of one tree get two keys: a miss), never coarser (one key
for two trees: a wrong hit).
"""
import collections
import dataclasses
import hashlib
import os
import subprocess
import sys

import pytest

import repro
from repro.cache import image_fingerprint
from repro.cache.key import _code_fingerprint
from repro.cli import base_image
from repro.core import Image
from repro.cpu.machine import HostEnvironment
from repro.fuzz.grammar import generate_program
from repro.fuzz.guest import build_image
from repro.guest.program import with_args
from repro.kernel import Kernel
from repro.workloads.bioinf.tools import ALL_TOOLS, tool_image
from repro.workloads.debian import generate_population, package_image, rules_image
from repro.workloads.ml.tensorflow import ALEXNET, tf_image

pytestmark = pytest.mark.cache

BUILD_DIR = "/build"


def _tree_node_digest(node) -> str:
    """Merkle digest of one installed inode subtree: a leaf covers kind,
    mode, owner and content or symlink target; a directory covers its
    leaf and its name-sorted children."""
    h = hashlib.sha256()
    h.update(("leaf|%s|%o|%d|%d|" % (node.kind.name, node.mode & 0o7777,
                                     node.uid, node.gid)).encode())
    if node.is_regular:
        h.update(bytes(node.data))
    elif node.kind.name == "SYMLINK":
        h.update(node.symlink_target.encode())
    leaf = h.hexdigest()
    if not node.is_dir:
        return leaf
    h = hashlib.sha256()
    h.update(("dir|" + leaf).encode())
    for name in sorted(node.entries):
        h.update(name.encode())
        h.update(_tree_node_digest(node.entries[name]).encode())
    return h.hexdigest()


def tree_fingerprint(image, working_dir: str = BUILD_DIR) -> str:
    """The installed state of *image*: its tree, binaries and URLs."""
    kernel = Kernel(HostEnvironment(entropy_seed=0, boot_epoch=0.0,
                                    pid_start=1, inode_start=1,
                                    dirent_hash_salt=0))
    image.install(kernel, working_dir)
    h = hashlib.sha256(_tree_node_digest(kernel.fs.root).encode())
    for path in sorted(kernel.binaries):
        h.update(path.encode())
        h.update(_code_fingerprint(kernel.binaries[path], {}).encode())
    for url in sorted(kernel.network):
        h.update(url.encode())
        h.update(hashlib.sha256(kernel.network[url]).digest())
    return h.hexdigest()


def _images():
    specs = generate_population(600, seed=0)
    for spec in specs:
        yield package_image(spec)
        yield package_image(spec)  # built twice: equal declarations
    for spec in specs[:100]:
        yield rules_image(spec)
    for spec in ALL_TOOLS.values():
        yield tool_image(spec)
    for steps in (2, 3):
        yield tf_image(dataclasses.replace(ALEXNET, steps=steps))
    yield base_image()
    for seed in range(4):
        yield build_image(generate_program(seed))


def test_equal_declarations_install_equal_trees(capsys):
    trees_of = collections.defaultdict(set)
    declarations_of = collections.defaultdict(set)
    n = 0
    for image in _images():
        declaration = image_fingerprint(image, BUILD_DIR)
        tree = tree_fingerprint(image, BUILD_DIR)
        trees_of[declaration].add(tree)
        declarations_of[tree].add(declaration)
        n += 1
    shared = {d: t for d, t in trees_of.items() if len(t) > 1}
    extra_misses = sum(1 for d in declarations_of.values() if len(d) > 1)
    with capsys.disabled():
        print("\n%d images: %d declarations, %d trees, %d tree(s) with "
              "more than one declaration" % (n, len(trees_of),
                                             len(declarations_of),
                                             extra_misses))
    assert shared == {}, "one declaration fingerprint names two trees"


# -- each declared input moves the key ----------------------------------------


def _tool(sys):
    yield from sys.println("tool")
    return 0


def _other_tool(sys):
    yield from sys.println("other")
    return 0


def _image(*steps) -> Image:
    image = Image()
    image.add_binary("/bin/tool", _tool)
    for step in steps:
        step(image)
    return image


def _writer(path, data):
    def setup(kernel, build_dir):
        kernel.fs.write_file(build_dir + path, data)

    return setup


def _sequences(n_seqs, seq_len):
    def setup(kernel, build_dir):
        kernel.fs.write_file(build_dir + "/input",
                             b"%d x %d\n" % (n_seqs, seq_len))

    return setup


def _appender(path, data):
    def setup(kernel, build_dir):
        kernel.fs.write_file(build_dir + path, data + b"\n")

    return setup


SENSITIVE = {
    "file mode": (
        lambda i: i.add_file("/etc/conf", "x", mode=0o644),
        lambda i: i.add_file("/etc/conf", "x", mode=0o600)),
    "order of two files on one path": (
        lambda i: (i.add_file("/etc/conf", "a"), i.add_file("/etc/conf", "b")),
        lambda i: (i.add_file("/etc/conf", "b"), i.add_file("/etc/conf", "a"))),
    "setup closure value": (
        lambda i: i.on_setup(_writer("/data", b"one")),
        lambda i: i.on_setup(_writer("/data", b"two"))),
    "setup closure values split at another boundary": (
        lambda i: i.on_setup(_sequences(64, 256)),
        lambda i: i.on_setup(_sequences(642, 56))),
    "setup code": (
        lambda i: i.on_setup(_writer("/data", b"one")),
        lambda i: i.on_setup(_appender("/data", b"one"))),
    "binary closure value": (
        lambda i: i.add_binary("/bin/run", with_args(_tool, 1)),
        lambda i: i.add_binary("/bin/run", with_args(_tool, 2))),
    "url body": (
        lambda i: i.add_url("http://mirror/pkg", "v1"),
        lambda i: i.add_url("http://mirror/pkg", "v2")),
    "added directory": (
        lambda i: None,
        lambda i: i.add_dir("/opt")),
    "binary on a declared file's path": (
        lambda i: i.add_file("/bin/other", "#!ELF other", mode=0o755),
        lambda i: (i.add_file("/bin/other", "#!ELF other", mode=0o755),
                   i.add_binary("/bin/other", _other_tool))),
}


@pytest.mark.parametrize("name", sorted(SENSITIVE))
def test_each_declared_input_moves_the_key(name):
    first, second = SENSITIVE[name]
    assert (image_fingerprint(_image(first))
            != image_fingerprint(_image(second)))
    # Rebuilding one declaration gives one key.
    assert image_fingerprint(_image(first)) == image_fingerprint(_image(first))


def test_working_dir_moves_the_key():
    assert (image_fingerprint(_image(), "/build")
            != image_fingerprint(_image(), "/src"))


# -- keys are stable across interpreter processes -----------------------------


_KEYS_SCRIPT = r"""
from repro.cache import run_key
from repro.cli import base_image
from repro.core import ContainerConfig, Image
from repro.cpu.machine import HostEnvironment
from repro.workloads.debian import TOOLS, generate_population, package_image


def member(sys):
    yield from sys.println(str(sys.argv[0] in {"alpha", "beta", "gamma",
                                               "delta", "epsilon"}))
    return 0


member_image = Image()
member_image.add_binary("/bin/member", member)
config, host = ContainerConfig(), HostEnvironment()
keys = [run_key(package_image(spec), config, TOOLS["driver"], None, host)
        for spec in generate_population(200, seed=0)]
keys.append(run_key(base_image(), config, "/bin/ls", None, host))
keys.append(run_key(member_image, config, "/bin/member", None, host))
print("\n".join(key.digest for key in keys))
"""


def _keys_under_hash_seed(seed: str):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _KEYS_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True).stdout
    return out.split()


def test_keys_match_across_hash_seeds():
    first = _keys_under_hash_seed("1")
    assert len(first) == 202 and len(set(first)) == 202
    assert _keys_under_hash_seed("2") == first
    assert _keys_under_hash_seed("3") == first
