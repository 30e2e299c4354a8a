"""One loader for the optional C engines.

The compaction scan (:mod:`repro.compaction._cscan`), the optimizer's
move scan (:mod:`repro.core._movescan`) and the SI pattern generator
(:mod:`repro.sitest._cgen`) each carry a small C translation of a hot
loop.  This module is everything they share: it compiles the
source with whatever ``cc``/``gcc``/``clang`` the host provides, caches
the shared object, loads and binds it through :mod:`ctypes`, runs the
engine's smoke check, and remembers the outcome for the life of the
process.  An engine module keeps only its C source, its argtypes
binding, its smoke inputs and its public API.

Every engine is strictly optional.  It resolves to "unavailable" — and
its callers take their bit-identical pure-Python path — when:

* its environment toggle (``REPRO_COMPACTION_CSCAN`` /
  ``REPRO_OPTIMIZER_CSCAN`` / ``REPRO_GENERATOR_CGEN``) is
  ``0``/``off``/``no``/``false``;
* a due ``<name>-compile-fail`` fault fires at the ``<name>.load``
  injection site (counted as ``recovery.<name>_fallback``);
* there is no compiler, compilation fails, the library lacks the
  expected symbol, or the smoke check fails (counted once per process
  as ``recovery.degraded.<name>``).

Compiled objects are cached as ``repro-<name>-<digest>.so`` (the digest
hashes the C source) in a per-user ``0o700`` directory under
:func:`tempfile.gettempdir`, so ``TMPDIR`` still routes the cache and
the compile happens once per source revision per user.  A cached file
is loaded only if it is a regular file owned by the current user and
writable by nobody else; anything else is treated as absent and
rebuilt.  If the cache directory itself cannot be trusted (someone
else's, or a symlink), the engine is built in a private throwaway
directory instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
from typing import Callable

from repro.runtime.instrumentation import incr

__all__ = ["NativeEngine", "cache_dir"]

_DISABLE_VALUES = ("0", "off", "no", "false")


def cache_dir() -> str | None:
    """The per-user engine cache directory, created ``0o700`` on first
    use; ``None`` when it exists but cannot be trusted."""
    uid = os.getuid()
    path = os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        info = os.lstat(path)
        if not stat.S_ISDIR(info.st_mode) or info.st_uid != uid:
            return None
        if info.st_mode & 0o077:
            os.chmod(path, 0o700)
    except OSError:
        return None
    return path


def _trusted(path: str) -> bool:
    """Whether ``path`` is a regular file of ours nobody else can write."""
    try:
        info = os.lstat(path)
    except OSError:
        return False
    return (
        stat.S_ISREG(info.st_mode)
        and info.st_uid == os.getuid()
        and not info.st_mode & 0o022
    )


class NativeEngine:
    """An optional C engine, resolved lazily and at most once per process.

    Args:
        name: Short engine name (``cscan``, ``movescan``, ``cgen``):
            names the cached object, the fault site ``<name>.load`` and
            the ``recovery.*`` counters.
        source: The C source.
        env_var: Environment toggle that disables the engine.
        bind: ``bind(lib)`` -> handle: looks up and types the entry
            points of the loaded :class:`ctypes.CDLL`.
        smoke: ``smoke(handle)`` -> bool: one hand-checked call guarding
            against ABI/layout mishaps.
    """

    def __init__(
        self,
        name: str,
        source: str,
        env_var: str,
        bind: Callable,
        smoke: Callable,
    ) -> None:
        self.name = name
        self.source = source
        self.env_var = env_var
        self.bind = bind
        self.smoke = smoke
        #: ``None`` = not probed yet, ``False`` = unavailable, else the
        #: bound handle.
        self.handle = None
        digest = hashlib.sha256(source.encode()).hexdigest()[:16]
        self.filename = f"repro-{name}-{digest}.so"

    def available(self) -> bool:
        """Whether the engine compiled, loaded and passed its smoke."""
        if self.handle is None:
            self.handle = self._resolve()
        return self.handle is not False

    def reset(self) -> None:
        """Forget the probe outcome; the next :meth:`available` call
        probes again (tests that toggle or break an engine)."""
        self.handle = None

    def _resolve(self):
        toggle = os.environ.get(self.env_var, "").strip().lower()
        if toggle in _DISABLE_VALUES or self._load_fault_injected():
            return False
        handle = self._load()
        if handle is None:
            # Wanted but unresolvable on this host: disclose the
            # pure-Python degradation once per process.
            incr(f"recovery.degraded.{self.name}")
            return False
        return handle

    def _load_fault_injected(self) -> bool:
        """``<name>.load`` injection site: a due ``<name>-compile-fail``
        fault makes the engine unavailable, exactly like a host with no
        compiler."""
        from repro.resilience.faults import check_fault

        if check_fault(f"{self.name}.load") is None:
            return False
        incr(f"recovery.{self.name}_fallback")
        return True

    def _load(self):
        compiler = (shutil.which("cc") or shutil.which("gcc")
                    or shutil.which("clang"))
        if compiler is None:
            return None
        directory = cache_dir()
        if directory is not None:
            return self._load_from(compiler, directory)
        with tempfile.TemporaryDirectory() as private:
            return self._load_from(compiler, private)

    def _load_from(self, compiler: str, directory: str):
        path = os.path.join(directory, self.filename)
        if not _trusted(path) and not self._compile(compiler, path):
            return None
        try:
            handle = self.bind(ctypes.CDLL(path))
        except (OSError, AttributeError):
            return None
        return handle if self.smoke(handle) else None

    def _compile(self, compiler: str, path: str) -> bool:
        """Build the source into ``path`` (atomically replacing whatever
        is there); ``False`` when the build fails."""
        try:
            with tempfile.TemporaryDirectory(
                dir=os.path.dirname(path)
            ) as workdir:
                source = os.path.join(workdir, f"{self.name}.c")
                with open(source, "w", encoding="ascii") as handle:
                    handle.write(self.source)
                built = os.path.join(workdir, f"{self.name}.so")
                subprocess.run(
                    [compiler, "-O3", "-shared", "-fPIC", "-o", built,
                     source],
                    check=True, capture_output=True, timeout=120,
                )
                os.chmod(built, 0o700)
                os.replace(built, path)
        except (OSError, subprocess.SubprocessError):
            return False
        return True
