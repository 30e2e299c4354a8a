"""Tests of the shared C-engine loader (:mod:`repro.native`).

Every test here routes the engine cache into its own temp directory
(``tempfile.tempdir``, which is what ``TMPDIR`` sets) and clears every
engine toggle, so it behaves the same with the engines on or off.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import stat
import subprocess
import tempfile

import pytest

from repro import native
from repro.compaction import _cscan
from repro.compaction.kernel import greedy_compact_bitset
from repro.compaction.vertical import greedy_compact
from repro.core import _movescan
from repro.core.optimizer import optimize_tam
from repro.runtime.instrumentation import Instrumentation, use_instrumentation
from repro.sitest import _cgen
from repro.sitest.generator import generate_random_patterns
from tests.sitest.test_pattern_set import assert_matches_oracle

COMPILER = (
    shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
)
needs_compiler = pytest.mark.skipif(
    COMPILER is None, reason="no C compiler on this host"
)


def _cscan_matches_reference(t5, d695) -> None:
    patterns = generate_random_patterns(t5, 200, seed=3)
    assert greedy_compact_bitset(patterns).members == greedy_compact(
        patterns, backend="reference"
    ).members


def _movescan_matches_reference(t5, d695) -> None:
    incremental = optimize_tam(d695, 16, backend="incremental")
    reference = optimize_tam(d695, 16, backend="reference")
    assert incremental.architecture == reference.architecture
    assert incremental.evaluation == reference.evaluation


def _cgen_matches_reference(t5, d695) -> None:
    assert_matches_oracle(d695, 500, 3)


ENGINES = {
    "cscan": (_cscan, _cscan_matches_reference),
    "movescan": (_movescan, _movescan_matches_reference),
    "cgen": (_cgen, _cgen_matches_reference),
}


@pytest.fixture
def private_tmp(tmp_path, monkeypatch, reprobe_engines):
    """An empty temp root for the engine cache, with every engine
    wanted and re-probed."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    for engine in reprobe_engines:
        monkeypatch.delenv(engine.env_var, raising=False)
    return tmp_path


@pytest.fixture
def loaded(monkeypatch) -> list:
    """Inode and mode of every file ``ctypes.CDLL`` opens."""
    opened: list = []
    real_cdll = ctypes.CDLL

    def spy(path, *args, **kwargs):
        if isinstance(path, str) and os.path.isfile(path):
            info = os.stat(path)
            opened.append((info.st_ino, stat.S_IMODE(info.st_mode)))
        return real_cdll(path, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", spy)
    return opened


def _counters(module) -> dict:
    instrumentation = Instrumentation()
    with use_instrumentation(instrumentation):
        module.available()
    return instrumentation.counters


class TestCacheDirectory:
    def test_per_user_private_dir_under_tmpdir(self, private_tmp):
        path = native.cache_dir()
        assert path == os.path.join(
            str(private_tmp), f"repro-native-{os.getuid()}"
        )
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o700

    def test_loose_own_dir_is_tightened(self, private_tmp):
        path = private_tmp / f"repro-native-{os.getuid()}"
        path.mkdir(mode=0o777)
        os.chmod(path, 0o777)
        assert native.cache_dir() == str(path)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o700

    @needs_compiler
    def test_symlinked_dir_is_not_trusted(self, private_tmp):
        elsewhere = private_tmp / "elsewhere"
        elsewhere.mkdir()
        (private_tmp / f"repro-native-{os.getuid()}").symlink_to(elsewhere)
        assert native.cache_dir() is None
        # The engine still builds, privately, and nothing lands in the
        # directory the link points at.
        assert _cscan.available() is True
        assert list(elsewhere.iterdir()) == []


@pytest.mark.parametrize("name", sorted(ENGINES))
class TestPlantedCacheFile:
    """A file another user could have planted at the cache path — here,
    world-writable — must never be loaded."""

    def _plant(self, module) -> tuple[str, int]:
        path = os.path.join(native.cache_dir(), module.ENGINE.filename)
        with open(path, "wb") as handle:
            handle.write(b"not a shared object")
        os.chmod(path, 0o666)
        return path, os.stat(path).st_ino

    @needs_compiler
    def test_rebuilt_and_loaded_fresh(self, private_tmp, loaded, name):
        module, _ = ENGINES[name]
        path, planted = self._plant(module)
        assert module.available() is True
        assert planted not in [inode for inode, _ in loaded]
        assert all(not mode & 0o022 for _, mode in loaded)
        assert not stat.S_IMODE(os.stat(path).st_mode) & 0o022

    def test_falls_back_without_compiler(
        self, private_tmp, loaded, monkeypatch, t5, d695, name
    ):
        module, matches_reference = ENGINES[name]
        self._plant(module)
        monkeypatch.setattr(shutil, "which", lambda _name: None)
        counters = _counters(module)
        assert module.available() is False
        assert loaded == []
        assert counters[f"recovery.degraded.{name}"] == 1
        matches_reference(t5, d695)


@needs_compiler
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_library_without_entry_point_falls_back(
    private_tmp, tmp_path, t5, d695, name
):
    """A cached library that loads but lacks the engine's symbol is a
    bind failure: the engine is unavailable, the degradation is counted,
    and results match the reference."""
    module, matches_reference = ENGINES[name]
    source = tmp_path / "stub.c"
    source.write_text("int repro_unrelated(void) { return 0; }\n")
    path = os.path.join(native.cache_dir(), module.ENGINE.filename)
    subprocess.run(
        [COMPILER, "-shared", "-fPIC", "-o", path, str(source)],
        check=True, capture_output=True,
    )
    os.chmod(path, 0o700)
    counters = _counters(module)
    assert module.available() is False
    assert counters[f"recovery.degraded.{name}"] == 1
    matches_reference(t5, d695)


def test_environment_toggle_skips_the_loader(private_tmp, monkeypatch):
    monkeypatch.setenv("REPRO_COMPACTION_CSCAN", "off")
    counters = _counters(_cscan)
    assert _cscan.available() is False
    assert not any(name.startswith("recovery.") for name in counters)
    assert not os.path.exists(
        os.path.join(str(private_tmp), f"repro-native-{os.getuid()}")
    )
