"""Host-compiler back end of the kernel layer: build once per machine, load many.

:mod:`repro.runtime.kernels` can write a block's loop nest as C
(:class:`~repro.runtime.kernels._CEmitter`).  This module turns that text
into a callable and keeps the cost of doing so out of every run but the
machine's first:

* **key.**  An object is named by ``sha256(text + flags + compiler
  identity)`` — the resolved ``cc`` path, size and mtime.  The text is
  region- and shape-independent, so one program compiles once however many
  regions, processes or interpreter sessions run it.
* **cache.**  Objects live in a per-user directory (``$XDG_CACHE_HOME`` or
  ``~/.cache``, else the temp directory; created ``0700``, refused unless a
  real directory owned by the caller), are published by atomic rename — two
  processes building the same object both end with a complete file — and
  pruned oldest-first to :data:`CACHE_CAP` entries on publish.  A warm hit
  is one ``stat`` and one ``dlopen``: no subprocess.
* **who compiles.**  A ``multiprocessing`` child never runs the compiler:
  the planning process builds before it dispatches
  (:func:`repro.runtime.kernels.ensure_native`) and workers only load.
* **failure.**  No compiler, an unusable cache directory or a failed compile
  is remembered for the life of the process (:attr:`Host.error`), so a
  broken toolchain is probed once, not once per template; callers fall back
  to the numpy lowerings and say so.

``$CC`` names the compiler (default ``cc``), as everywhere else.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import shutil
import stat
import sys
import tempfile
import time

#: Exactly rounded code only: no fast-math, no contraction into FMAs, no
#: ``-march`` (``-fno-math-errno`` lets ``sqrt`` be the one instruction).
FLAGS = ("-O2", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")

#: Objects kept in the cache directory (each is ~16 KB).
CACHE_CAP = 512

_DIR_NAME = "repro-kernels"


def _owned_dir(path: str) -> str | None:
    """Why ``path`` cannot hold objects we will ``dlopen``, or ``None``."""
    info = os.lstat(path)
    if not stat.S_ISDIR(info.st_mode):
        return f"cache path {path} is not a directory"
    if info.st_uid != os.getuid():
        return f"cache directory {path} is owned by uid {info.st_uid}"
    if not os.access(path, os.W_OK | os.X_OK):
        return f"cache directory {path} is not writable"
    return None


def _cache_dir() -> tuple[str | None, str | None]:
    """``(directory, None)`` or ``(None, why not)``, by inspection only."""
    home = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    roots = (
        os.path.join(home, _DIR_NAME),
        os.path.join(tempfile.gettempdir(), f"{_DIR_NAME}-{os.getuid()}"),
    )
    why = None
    for path in roots:
        try:
            os.makedirs(path, mode=0o700, exist_ok=True)
        except OSError as exc:  # no usable root here: try the next one
            why = f"cannot create cache directory {path}: {exc.strerror}"
            continue
        why = _owned_dir(path)
        return (path, None) if why is None else (None, why)
    return None, why


class Host:
    """This process's view of the toolchain and the object cache (memoised)."""

    def __init__(self, error: str | None = None) -> None:
        #: Why nothing can be built or loaded in this process, once known
        #: (given up front, it describes a host with no toolchain at all).
        self.error = error
        self.cc: tuple[str, ...] = ()
        self.ident = ""
        self.dir: str | None = None
        #: key -> loaded function (the library stays referenced through it).
        self.loaded: dict[str, object] = {}
        self._probed = error is not None

    def probe(self) -> str | None:
        """Resolve compiler and cache directory once; returns :attr:`error`."""
        if self._probed:
            return self.error
        self._probed = True
        argv = shlex.split(os.environ.get("CC") or "cc")
        path = shutil.which(argv[0]) if argv else None
        if path is None:
            self.error = f"no C compiler: {argv[0] if argv else '$CC'!r} not found"
            return self.error
        real = os.path.realpath(path)
        info = os.stat(real)
        self.cc = (path, *argv[1:])
        self.ident = f"{real}:{info.st_size}:{info.st_mtime_ns}"
        self.dir, self.error = _cache_dir()
        return self.error

    def load(self, text: str) -> tuple[object | None, dict]:
        """The compiled ``kernel`` of ``text`` and how it was obtained.

        Returns ``(function, {"cache": "hit"|"miss", "cc_ms": float})``, or
        ``(None, {"error": why})`` when the text must run on numpy instead.
        """
        if self.probe() is not None:
            return None, {"error": self.error}
        key = hashlib.sha256(
            "\0".join((text, " ".join(self.cc[1:] + FLAGS), self.ident)).encode()
        ).hexdigest()
        info = {"cache": "hit", "cc_ms": 0.0}
        fn = self.loaded.get(key)
        if fn is not None:
            return fn, info
        path = os.path.join(self.dir, key + ".so")
        if not os.path.exists(path):
            process = sys.modules.get("multiprocessing.process")
            if process is not None and process.parent_process() is not None:
                return None, {"error": "object not cached (workers never compile)"}
            start = time.perf_counter()
            self.error = self._compile(text, path)
            if self.error is not None:
                return None, {"error": self.error}
            info = {"cache": "miss", "cc_ms": (time.perf_counter() - start) * 1e3}
        import ctypes

        try:
            fn = ctypes.CDLL(path).kernel
        except (OSError, AttributeError) as exc:
            self.error = f"cannot load {path}: {exc}"
            return None, {"error": self.error}
        fn.argtypes = (ctypes.c_void_p, ctypes.c_void_p)
        fn.restype = None
        self.loaded[key] = fn
        return fn, info

    def _compile(self, text: str, path: str) -> str | None:
        """Build ``text`` and publish it at ``path``; the error, or ``None``."""
        import subprocess  # only a cache miss pays for the import

        tmp = f"{path}.{os.getpid()}.tmp"
        argv = [*self.cc, *FLAGS, "-x", "c", "-", "-o", tmp, "-lm"]
        try:
            done = subprocess.run(
                argv, input=text.encode(), stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, check=False,
            )
            if done.returncode != 0:
                detail = done.stderr.decode(errors="replace").strip()
                first = detail.splitlines()[0] if detail else "no output"
                return f"{self.cc[0]} exited {done.returncode}: {first}"
            os.replace(tmp, path)
        except OSError as exc:
            return f"cannot run {self.cc[0]}: {exc}"
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self._prune()
        return None

    def _prune(self) -> None:
        """Drop the oldest entries beyond :data:`CACHE_CAP`."""
        names = os.listdir(self.dir)

        def age(name: str) -> int:
            try:
                return os.lstat(os.path.join(self.dir, name)).st_mtime_ns
            except OSError:  # another process pruned it first
                return 0

        for name in sorted(names, key=age)[: max(len(names) - CACHE_CAP, 0)]:
            try:
                os.unlink(os.path.join(self.dir, name))
            except OSError:
                pass


#: The process-wide memo; tests replace it to fake another host.
HOST = Host()
