"""The solver's two hot loops, each C loop of `_leapfrog.c` beside its
numpy twin: `march` steps the leapfrog march and `Segment` forms the line
search's E(lambda).  Each C loop writes its twin's bits, with nothing fused
or reassociated, and reads only arrays that `_arg` has checked.

The first march or line search of a process loads ``leapfrog-<key>.so``
from a per-user cache, ``$XDG_CACHE_HOME/wavecontrol`` or
``~/.cache/wavecontrol``, where the key is the SHA-256 of the C source
and the compiler flags.  On a miss it compiles the source there with
``cc`` into a temporary file and renames it into place, so a concurrent
process never loads a half-written library.  When there is no compiler,
the cache cannot be written or the library does not load, `LOADER.load()`
returns None and the numpy twins serve; neither the build nor the load is
tried again in the same process.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shutil
import stat
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

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


def _arg(values, shape, levels=False):
    """(address, first-axis stride in elements) at which a C loop reads
    values, (None, 0) for None.  ValueError unless values is float64 of
    shape and C-contiguous, or with levels holds C-contiguous levels
    values[n] a whole number of elements apart (negative in reversed time).
    """
    if values is None:
        return None, 0
    if (values.dtype != np.float64 or values.shape != shape
            or not (values[0].flags.c_contiguous and values.strides[0] % values.itemsize == 0
                    if levels else values.flags.c_contiguous)):
        layout = "levels" if levels else "arrays"
        raise ValueError(f"the kernel reads C-contiguous float64 {layout} of shape {shape}")
    return values.ctypes.data, values.strides[0] // values.itemsize


def _coefficients(grid):
    """dt^2, the per-axis dt^2/dx^2 and the centre weight 2 - 2 sum of them,
    shared by both marches so that they round alike."""
    dt2 = grid.dt * grid.dt
    cs = tuple(dt2 / h ** 2 for h in grid.dx)
    k0 = 2.0
    for c in cs:
        k0 = k0 - 2.0 * c
    return dt2, cs, k0


def march(grid, y, A, S, w):
    """Levels 2..nt of the trajectory y (arguments as `solver._march`'s),
    by C `march_1d`/`march_2d` when the kernel loads, else by their twins
    `_march_1d`/`_march_2d`; neither looks for a blow-up."""
    lib = LOADER.load()
    if lib is None:
        (_march_1d if grid.dim == 1 else _march_2d)(grid, y, A, S, w)
        return
    shape = (grid.nt + 1,) + grid.shape
    dt2, cs, k0 = _coefficients(grid)
    (lib.march_1d if grid.dim == 1 else lib.march_2d)(
        _arg(y, shape)[0], grid.nt, *grid.shape, *cs, k0, dt2, *_arg(A, shape, levels=True),
        *_arg(S, shape, levels=True), _arg(w, grid.shape)[0])


def _level_rows(values, lo, hi):
    """Per-level views of the flat node range [lo, hi) of an array shaped
    as the trajectory (None for None), built once per march so that its
    loop creates none.  They write through to y, whose levels are
    C-contiguous."""
    if values is None:
        return None
    return list(values.reshape(len(values), -1)[:, lo:hi])


def _march_1d(grid, y, A, S, w):
    # Per node the update is ((((k0 y + c yR) + c yL) - y_prev) - (dt2 A) y) + dt2 (S w),
    # evaluated left to right; that order is part of the output contract
    # (byte-identical results), so only the buffers may change, not the sums.
    # dt2 A[n] and dt2 (S[n] w) are formed per step in one row-sized buffer.
    dt2, (c,), k0 = _coefficients(grid)
    nt, nx = grid.nt, grid.shape[0]
    mul, add, sub = np.multiply, np.add, np.subtract
    rows = list(y)
    inner, a, s = (_level_rows(v, 1, nx - 1) for v in (y, A, S))
    w = w[1:-1] if w is not None else None
    cy = np.empty(nx)
    cy_r, cy_l = cy[2:], cy[:-2]
    tmp = np.empty(nx - 2)
    for n in range(1, nt):
        out = inner[n + 1]
        core = inner[n]
        mul(rows[n], c, out=cy)
        mul(core, k0, out=out)
        add(out, cy_r, out=out)
        add(out, cy_l, out=out)
        sub(out, inner[n - 1], out=out)
        if a is not None:
            mul(a[n], dt2, out=tmp)
            mul(tmp, core, out=tmp)
            sub(out, tmp, out=out)
        if s is not None:
            src = s[n]
            if w is not None:
                src = mul(src, w, out=tmp)
            mul(src, dt2, out=tmp)
            add(out, tmp, out=out)


def _march_2d(grid, y, A, S, w):
    # Per node: ((((k0 core - prev) + cx (xp + xm)) + cy (yp + ym)) - (dt2 A) core)
    # + dt2 (S w), in this order.  Each level is marched as one contiguous flat range
    # [lo, hi) of node indices i*ny + j, from the first interior node to the
    # last; x-neighbours sit at offsets +-ny and y-neighbours at +-1.  The
    # range also holds the j = 0 and j = ny-1 edge nodes of the inner rows:
    # the step writes junk there (their stencils wrap to the adjacent row),
    # which is reset to zero before anything reads it.  dt2 A[n] and
    # dt2 (S[n] w) are formed per step in one range-sized buffer, so no field
    # is added.
    dt2, (cx, cy), k0 = _coefficients(grid)
    nt = grid.nt
    nx, ny = grid.shape
    lo, hi = ny + 1, (nx - 1) * ny - 1
    mul, add, sub = np.multiply, np.add, np.subtract
    edges = list(y[:, 1:-1, ::ny - 1])
    core, xp, xm, yp, ym = (_level_rows(y, lo + d, hi + d) for d in (0, ny, -ny, 1, -1))
    a, s = _level_rows(A, lo, hi), _level_rows(S, lo, hi)
    w = w.reshape(-1)[lo:hi] if w is not None else None
    tmp = np.empty(hi - lo)
    for n in range(1, nt):
        out = core[n + 1]
        cur = core[n]
        mul(cur, k0, out=out)
        sub(out, core[n - 1], out=out)
        add(xp[n], xm[n], out=tmp)
        mul(tmp, cx, out=tmp)
        add(out, tmp, out=out)
        add(yp[n], ym[n], out=tmp)
        mul(tmp, cy, out=tmp)
        add(out, tmp, out=out)
        if a is not None:
            mul(a[n], dt2, out=tmp)
            mul(tmp, cur, out=tmp)
            sub(out, tmp, out=out)
        if s is not None:
            src = s[n]
            if w is not None:
                src = mul(src, w, out=tmp)
            mul(src, dt2, out=tmp)
            add(out, tmp, out=out)
        edges[n + 1].fill(0.0)


class Segment:
    """The pointwise terms of E(lam) along y - lam Y for one line search,
    in C when the kernel loads, else in numpy, with the same bits.

    y, Y, r and gp = g'(y) are shaped as the trajectory and read as they
    are, in reversed time too; from g(y) the segment holds gy, and forms
    gpY = g'(y) Y, on the interior nodes of levels 1..nt-1, as are the
    two buffers that the methods write and return: `point(lam)`
    work = y - Y lam; `value(lam, gw)` the square of (1 - lam) r +
    ((gw - gy) + lam gpY), in this order, inf without a warning where it
    overflows, reading gw = g(work) before it writes work (so gw may be
    work); `cube(lam)` that value with gw = (work work) work.  For C each
    array is checked (`_arg`), gw at each `value`.
    """

    def __init__(self, grid, y, Y, r, gy, gp):
        sl = (slice(1, -1),) * (grid.dim + 1)
        interior = (grid.nt - 1,) + grid.interior_shape
        # made and released in this order: on smoke_2d, whose peak RSS the line
        # searches set, other orders measured 2.6 MB (3%) more with glibc
        self.gy = np.ascontiguousarray(gy, dtype=np.float64)
        self.gpY = np.multiply(gp[sl], Y[sl])
        self.work, self._val = np.empty(interior), np.empty(interior)
        self._lib = LOADER.load()
        if self._lib is None:
            self._y, self._Y, self._r = y[sl], Y[sl], r[sl]
            return
        fields = (grid.nt + 1,) + grid.shape
        self._fields = (y, Y, r)        # the loops read them by address
        # a level's interior nodes: from the first, runs of n - 2 nodes n apart
        *outer, n = grid.shape
        first = int(np.ravel_multi_index((1,) * grid.dim, grid.shape))
        self._at = (grid.nt, first, math.prod(m - 2 for m in outer), n, n - 2)
        self._yY = (*_arg(y, fields, levels=True), *_arg(Y, fields, levels=True))
        self._r = _arg(r, fields, levels=True)
        self._terms = (_arg(self.gy, interior)[0], _arg(self.gpY, interior)[0])
        self._work_at, self._val_at = self.work.ctypes.data, self._val.ctypes.data

    def point(self, lam):
        if self._lib is None:
            np.multiply(self._Y, lam, out=self.work)
            return np.subtract(self._y, self.work, out=self.work)
        self._lib.segment_point(self._work_at, *self._at, lam, *self._yY)
        return self.work

    def value(self, lam, gw):
        val = self._val
        if self._lib is None:
            work = self.work
            np.subtract(gw, self.gy, out=val)
            np.multiply(self.gpY, lam, out=work)
            np.add(val, work, out=val)
            np.multiply(self._r, 1.0 - lam, out=work)
            np.add(work, val, out=val)
            with np.errstate(over="ignore"):
                return np.square(val, out=val)
        gw = np.ascontiguousarray(gw, dtype=np.float64)
        self._lib.segment_value(self._val_at, *self._at, lam, *self._r, _arg(gw, val.shape)[0],
                                *self._terms)
        return val

    def cube(self, lam):
        if self._lib is None:
            w = self.point(lam)
            gw = np.multiply(w, w, out=self._val)
            return self.value(lam, np.multiply(gw, w, out=gw))
        self._lib.segment_cubic(self._val_at, *self._at, lam, *self._yY, *self._r, *self._terms)
        return self._val
