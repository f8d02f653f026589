"""On-demand compilation and loading of the C batch kernel.

:mod:`repro.sim.vectorized` runs its time loop in ``_kernel.c``.  This
module owns the build: the source is compiled once per hash of the
source and the compiler flags with the system C compiler and cached
under ``_cbuild/`` next to the package, then loaded through
:mod:`ctypes`.  Everything here is best-effort — any failure (no
compiler, broken toolchain, unwritable package directory) surfaces as a
``(None, reason)`` pair and the vectorized engine declines the input,
which the dispatcher turns into a per-input fallback to the reference
interpreter.  No environment is ever required to have a C compiler.

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

_SRC = Path(__file__).with_name("_kernel.c")
_BUILD_DIR = Path(__file__).with_name("_cbuild")

#: Never add fast-math/reassociation flags; see the module docstring.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
#: libm supplies fmod/copysign for the vault stall windows.
_LIBS = ("-lm",)

#: Signature of the draw-block refill callback (0 on success).
REFILL_FN = ctypes.CFUNCTYPE(ctypes.c_int)

_lock = threading.Lock()
_cached: Optional[tuple] = None


def load_kernel():
    """``(cdll, None)`` with the bound entry point, or ``(None, reason)``.

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
    """Name of the built library: a hash of the source and of the build
    flags, so a flag change never reuses a stale library."""
    build = " ".join((*_CFLAGS, *_LIBS)).encode()
    return hashlib.sha256(source + b"\0" + build).hexdigest()[:16]


def _load():
    try:
        source = _SRC.read_bytes()
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
                [cc, *_CFLAGS, "-o", str(tmp), str(_SRC), *_LIBS],
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
