"""On-demand compilation and loading of the C library.

:mod:`repro.sim.vectorized` runs its time loop in ``_kernel.c``;
capture's row layout (:mod:`repro.framework.layout`) and the strict
pre-flight's lint and race sweeps run in ``_rows.c``.  Both share
``_column.h`` and build into one library.  This module owns the build:
the sources are compiled once per hash of the sources and the compiler
flags with the system C compiler and cached under ``_cbuild/`` next to
the package, then loaded through :mod:`ctypes`.  Everything here is
best-effort — any failure (no compiler, broken toolchain, unwritable
package directory) surfaces as a ``(None, reason)`` pair.  The
vectorized engine then declines the input, which the dispatcher turns
into a per-input fallback to the reference interpreter; the layout
runs its numpy body and the lint and race passes their per-event
oracles.  No environment is ever required to have a C compiler.

Flags are part of the bit-identity contract: ``-ffp-contract=off``
forbids fused multiply-adds and no fast-math flag may ever be added,
otherwise the kernel's doubles stop matching CPython's.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import threading
from pathlib import Path
from typing import Optional

_HERE = Path(__file__).parent
#: Compiled together into one library; the header is hashed with them.
_SOURCES = tuple(_HERE / name for name in ("_kernel.c", "_rows.c"))
_HEADERS = (_HERE / "_column.h",)
_BUILD_DIR = _HERE / "_cbuild"

#: Never add fast-math/reassociation flags; see the module docstring.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
#: libm supplies fmod/copysign for the vault stall windows.
_LIBS = ("-lm",)

#: Signature of the draw-block refill callback (0 on success).
REFILL_FN = ctypes.CFUNCTYPE(ctypes.c_int)

_lock = threading.Lock()
_cached: Optional[tuple] = None


def load_kernel():
    """``(cdll, None)`` with the bound entry points, or ``(None, reason)``.

    The outcome (success or failure) is cached for the process; a
    missing compiler is diagnosed once, not per simulation.
    """
    global _cached
    if _cached is None:
        with _lock:
            if _cached is None:
                _cached = _load()
    return _cached


def _find_compiler() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _build_tag(source: bytes) -> str:
    """Name of the built library: a hash of the sources and of the build
    flags, so a flag change never reuses a stale library."""
    build = " ".join((*_CFLAGS, *_LIBS)).encode()
    return hashlib.sha256(source + b"\0" + build).hexdigest()[:16]


def _load():
    try:
        source = b"\0".join(p.read_bytes() for p in (*_SOURCES, *_HEADERS))
    except OSError as exc:
        return None, f"kernel source unavailable: {exc}"
    so_path = _BUILD_DIR / f"kernel-{_build_tag(source)}.so"
    if not so_path.exists():
        cc = _find_compiler()
        if cc is None:
            return None, "no C compiler (cc/gcc/clang) on PATH"
        try:
            _BUILD_DIR.mkdir(exist_ok=True)
            # Unique temp name + atomic rename: concurrent processes
            # may race to build the same kernel.
            tmp = so_path.with_name(f".{so_path.name}.{os.getpid()}.tmp")
            proc = subprocess.run(
                [cc, *_CFLAGS, "-o", str(tmp), *map(str, _SOURCES), *_LIBS],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if proc.returncode != 0:
                detail = (proc.stderr or proc.stdout).strip()
                return None, f"kernel build failed: {detail[:300]}"
            os.replace(tmp, so_path)
        except Exception as exc:  # noqa: BLE001 - any failure => decline
            return None, f"kernel build failed: {exc}"
    try:
        lib = ctypes.CDLL(str(so_path))
        _bind(lib)
    except (OSError, AttributeError) as exc:
        return None, f"kernel load failed: {exc}"
    return lib, None


def _bind(lib) -> None:
    i64p = ctypes.POINTER(ctypes.c_int64)
    f64p = ctypes.POINTER(ctypes.c_double)
    i64 = ctypes.c_int64
    ptr = ctypes.c_void_p
    fn = lib.graphpim_simulate
    fn.restype = ctypes.c_int
    fn.argtypes = [
        ctypes.c_int64,  # T
        ctypes.c_void_p,  # kind
        ctypes.c_void_p,  # addr
        ctypes.c_void_p,  # size
        ctypes.c_void_p,  # gap
        ctypes.c_void_p,  # op
        ctypes.c_void_p,  # ret
        i64p,  # byte width of each column
        i64p,  # starts
        i64p,  # cfg_i
        f64p,  # cfg_d
        i64p,  # luts
        f64p,  # fault_d
        f64p,  # draw block
        REFILL_FN,  # refill
        f64p,  # core_d
        i64p,  # core_i
        i64p,  # out_i
        f64p,  # out_d
        i64p,  # tkbuf
    ]
    # The row passes (_rows.c) take every array as its address.
    for name, restype, argtypes in (
        ("graphpim_lay_out", i64, [i64, *[ptr] * 2, *[i64] * 3, *[ptr] * 11]),
        ("graphpim_lint", ctypes.c_int, [i64, *[ptr] * 16]),
        ("graphpim_race_scan", None, [i64, *[ptr] * 5, i64, ptr]),
        ("graphpim_race_cells", None, [i64, *[ptr] * 5, i64, i64, ptr]),
        (
            "graphpim_race_keep",
            i64,
            [i64, *[ptr] * 5, i64, i64, ptr, i64, *[ptr] * 5],
        ),
    ):
        entry = getattr(lib, name)
        entry.restype = restype
        entry.argtypes = argtypes
