"""The run key's code component: one digest of the ``repro`` package's
sources and the interpreter version, so only the code that wrote an
entry can read it back."""
import os
import shutil
import subprocess
import sys

import pytest

import repro
from repro.cache import CacheStore, code_digest, run_key
from repro.cache import key as cache_key
from repro.cache import store as cache_store
from repro.core import CacheConfig, ContainerConfig, DetTrace, Image
from repro.cpu.machine import HostEnvironment

pytestmark = pytest.mark.cache

PACKAGE = os.path.dirname(repro.__file__)

#: One edit each to the guest's libc and to the kernel: (file, old, new).
EDITS = {
    "format_date": (
        "guest/libc.py",
        '    """A ctime-style date string, localized just enough to vary."""\n',
        '    """A ctime-style date string, localized just enough to vary."""\n'
        '    return "EDITED"\n'),
    "one syscall": (
        "kernel/syscalls.py",
        "        return t.process.nspid\n\n    def sys_getppid",
        "        return t.process.nspid + 1\n\n    def sys_getppid"),
}


def _copy(tmp_path) -> str:
    """A copy of the package; returns the directory to import it from."""
    shutil.copytree(PACKAGE, str(tmp_path / "repro"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return str(tmp_path)


def _digest_of(src: str, hash_seed: str = "0") -> str:
    """``code_digest()`` of the package imported from *src*."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c",
         "from repro.cache import code_digest; print(code_digest())"],
        env=env, capture_output=True, text=True, timeout=120,
        check=True).stdout.strip()


def _main(sys_):
    yield from sys_.println("hello")
    return 0


def _image() -> Image:
    image = Image()
    image.add_binary("/bin/main", _main)
    return image


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_an_edit_moves_the_digest(tmp_path, edit):
    src = _copy(tmp_path)
    assert _digest_of(src) == code_digest()
    relpath, old, new = EDITS[edit]
    path = os.path.join(src, "repro", relpath)
    with open(path) as fh:
        text = fh.read()
    assert text.count(old) == 1
    with open(path, "w") as fh:
        fh.write(text.replace(old, new))
    assert _digest_of(src) != code_digest()


def test_the_digest_ignores_the_hash_seed():
    src = os.path.dirname(PACKAGE)
    assert {_digest_of(src, seed) for seed in ("1", "2", "3")} \
        == {code_digest()}


def test_the_run_key_embeds_the_digest():
    key = run_key(_image(), ContainerConfig(), "/bin/main", None,
                  HostEnvironment())
    assert key.components["code"] == code_digest()


def test_other_codes_entries_miss_and_go_stale(tmp_path, monkeypatch):
    cfg = ContainerConfig(cache=CacheConfig(directory=str(tmp_path)))
    assert DetTrace(cfg).run(_image(), "/bin/main").cache["outcome"] == "store"
    with monkeypatch.context() as patch:
        # As if the package had been edited between the two runs.
        for module in (cache_key, cache_store):
            patch.setattr(module, "code_digest", lambda: "e" * 64)
        other = DetTrace(cfg).run(_image(), "/bin/main")
        assert (other.cache["outcome"], other.cache["executed"]) \
            == ("store", True)
    store = CacheStore(str(tmp_path))
    stats = store.stats()
    assert (stats.keys, stats.stale_keys, stats.objects) == (1, 1, 1)
    assert [p for p in store.verify_store()
            if "written by other code" in p] \
        == ["stale key, written by other code (run gc): "
            + store.key_path(other.cache["key"])]
    assert store.gc()["torn"] == [store.key_path(other.cache["key"])]
    assert store.verify_store() == []
    assert DetTrace(cfg).run(_image(), "/bin/main").cache["outcome"] == "hit"
