"""The compiled kernel (`_leapfrog.c`), built on first use.

One library holds the leapfrog march's step loops and the three pointwise
loops of the line search's E(lambda), all under one contract: each loop
writes the bits of the numpy code it replaces, with nothing fused or
reassociated.  Every entry point returns nothing: the march loops only
step, and `solver._march` checks the trajectory they wrote for a blow-up.
The first march or line search of a process loads ``leapfrog-<key>.so``
from a per-user cache, ``$XDG_CACHE_HOME/wavecontrol`` or
``~/.cache/wavecontrol``, where the key is the SHA-256 of the C source
and the compiler flags.  On a miss it compiles the source there with
``cc`` into a temporary file and renames it into place, so a concurrent
process never loads a half-written library.  When there is no compiler,
the cache cannot be written or the library does not load, `LOADER.load()`
returns None and the solver marches, and the line search evaluates E, with
numpy; neither the build nor the load is tried again in the same process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
import threading
from pathlib import Path

SOURCE = Path(__file__).with_name("_leapfrog.c")
# no -ffast-math or -march=native: the kernel must round exactly as numpy does
FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
BUILD_TIMEOUT_S = 120.0

_ptr, _int, _double = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
SIGNATURES = {
    "march_1d": (_ptr, _int, _int, _double, _double, _double, _ptr, _int, _ptr, _int, _ptr),
    "march_2d": (_ptr, _int, _int, _int, _double, _double, _double, _double,
                 _ptr, _int, _ptr, _int, _ptr),
    "segment_point": (_ptr, _int, _int, _int, _int, _int, _double, _ptr, _int, _ptr, _int),
    "segment_value": (_ptr, _int, _int, _int, _int, _int, _double, _ptr, _int,
                      _ptr, _ptr, _ptr),
    "segment_cubic": (_ptr, _int, _int, _int, _int, _int, _double, _ptr, _int,
                      _ptr, _int, _ptr, _int, _ptr, _ptr),
}


def cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "wavecontrol"


def _owned_private_dir(path: Path) -> bool:
    """Whether path is a directory of this user that no one else may write,
    so a library found in it was put there by this user."""
    st = os.stat(path)
    return (stat.S_ISDIR(st.st_mode) and st.st_uid == os.geteuid()
            and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _writable(path: Path) -> bool:
    # the mode bit as well as access(): a privileged user may write
    # where the mode forbids it, and the cache should honour the mode
    return bool(os.stat(path).st_mode & stat.S_IWUSR) and os.access(path, os.W_OK)


def _build(source: bytes, cache: Path, target: Path) -> bool:
    """Compile source into target through a temporary file in cache."""
    cc = shutil.which("cc")
    if cc is None or not _writable(cache):
        return False
    fd, tmp = tempfile.mkstemp(prefix=".leapfrog-", suffix=".so", dir=cache)
    os.close(fd)
    try:
        subprocess.run([cc, *FLAGS, "-x", "c", "-o", tmp, "-"], input=source,
                       capture_output=True, check=True, timeout=BUILD_TIMEOUT_S)
        os.replace(tmp, target)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load():
    """The kernel library with its signatures declared, or None."""
    try:
        source = SOURCE.read_bytes()
        key = hashlib.sha256(source + " ".join(FLAGS).encode()).hexdigest()
        cache = cache_dir()
        os.makedirs(cache, mode=0o700, exist_ok=True)
        if not _owned_private_dir(cache):
            return None
        target = cache / f"leapfrog-{key}.so"
        if not target.is_file() and not _build(source, cache, target):
            return None
        lib = ctypes.CDLL(str(target))
        for name, argtypes in SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, None
    except (OSError, AttributeError, RuntimeError):  # RuntimeError: no home directory
        return None
    return lib


class KernelLoader:
    """Loads the kernel once, at the first `load` call, for every thread."""

    def __init__(self):
        self._lock = threading.Lock()
        self._loaded = False
        self._lib = None

    def load(self):
        """The loaded library, or None when the numpy code must serve."""
        if not self._loaded:
            with self._lock:
                if not self._loaded:
                    self._lib = _load()
                    self._loaded = True
        return self._lib


LOADER = KernelLoader()
