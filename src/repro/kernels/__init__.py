"""Compiled (numba-jitted) kernel tier with a transparent numpy fallback.

The hot loops of the batched simulation kernels — the multi-event
lockstep jump chain (:mod:`repro.core.lockstep`), the batched graph
edge kernel (:mod:`repro.graphs.dynamics`) and the batched gossip round
rules (:mod:`repro.gossip`) — are pure numpy.  This package provides
``@njit``-compiled scalar implementations of the same kernels, selected
through the engine's backend/variant registry as the ``"compiled"``
tier.  numba is an **optional** dependency: when it is absent every
public entry point in this package silently delegates to the numpy
kernel it shadows, so nothing above this layer needs to care.

Determinism contract
--------------------
numba's own RNG cannot reproduce numpy ``Generator`` streams, so the
compiled kernels never draw randomness themselves.  All randomness is
pre-drawn by the (numpy) drivers from the same per-replicate
``SeedSequence``-derived generators the numpy tier uses, in the same
refill schedule, and handed to the jitted kernels as plain arrays:

* Integer-consuming kernels (graph edge picks, gossip round rules) are
  **bit-identical** to the numpy tier — every operation on the
  pre-drawn draws is exact integer arithmetic.
* The lockstep kernel is bit-identical *except* for one scalar
  transcendental: the per-event ``log1p(W / -n^2)``.  The numpy tier
  evaluates it through ``np.log1p`` (which may dispatch to a SIMD
  implementation) while a scalar kernel goes through libm's ``log1p``
  (what both ``math.log1p`` and numba compile to).  Whether the two
  agree bitwise is a property of the host's numpy build, so it is
  *probed at import* (:data:`LOG1P_BITWISE`): when the probe passes the
  compiled lockstep tier is asserted bit-identical, otherwise it is
  cross-validated distributionally (:mod:`repro.core.crossval`) — the
  same gate three-majority gossip historically used.

Two scalar ``log1p`` paths exist, and only one of them is this probe's
business.  *libm* ``log1p`` is what ``math.log1p`` calls and what numba
compiles; :data:`LOG1P_BITWISE` asks whether it matches the array path.
*Scalar* ``np.log1p`` — numpy's own ufunc applied to one Python float —
is what the numpy kernel's scalar tail uses
(:func:`repro.core.lockstep.lockstep_batch` finishes its last few
columns in a per-column Python loop); its own import-time probe,
``repro.core.lockstep._SCALAR_LOG1P_BITWISE``, asks whether *that*
matches the array path.  The two can disagree: on a host where libm
matched numpy's array ``log1p`` on only 92% of samples, scalar
``np.log1p`` matched on all of them, so the scalar tail stays
bit-identical where the compiled tier cannot.

Writing kernels so they stay testable without numba
---------------------------------------------------
Kernels are defined as plain Python functions and jitted *conditionally*
(``kernel = njit(...)(kernel) if HAVE_NUMBA else kernel``), with
:data:`prange` aliasing ``numba.prange`` or ``range``.  The bit-identity
test suite drives the very same functions on tiny workloads whether or
not numba is installed, so the no-numba CI leg still executes every
kernel body line-for-line.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "HAVE_NUMBA",
    "LOG1P_BITWISE",
    "njit",
    "prange",
]

try:  # pragma: no cover - exercised on the numba CI leg
    import numba as _numba

    HAVE_NUMBA = True
    njit = _numba.njit
    prange = _numba.prange
except Exception:  # ModuleNotFoundError, or a broken install
    HAVE_NUMBA = False
    prange = range

    def njit(*args, **kwargs):
        """No-op ``numba.njit`` stand-in: returns the function unchanged."""
        if args and callable(args[0]) and len(args) == 1 and not kwargs:
            return args[0]

        def wrap(fn):
            return fn

        return wrap


def _probe_log1p_bitwise(samples: int = 257) -> bool:
    """Does this numpy's array ``log1p`` match libm's scalar ``log1p`` bitwise?

    The probe sweeps the argument range the lockstep kernel actually
    uses (``p = W / -n^2`` in ``(-1, 0]``) and compares ``np.log1p`` on
    the whole array against ``math.log1p`` element by element.  numpy
    builds that route ``log1p`` through SIMD/SVML can differ from libm
    by an ULP on some inputs; on such hosts the compiled lockstep tier
    is validated distributionally instead of bitwise.
    """
    xs = -np.linspace(1e-12, 1.0 - 1e-9, samples)
    arr = np.log1p(xs)
    return all(arr[i] == math.log1p(xs[i]) for i in range(xs.size))


#: True when ``np.log1p`` (array path) and libm ``log1p`` (the scalar
#: path numba compiles to) agree bitwise on this host — the switch
#: between the bit-identity and distributional validation gates for the
#: compiled lockstep tier.
LOG1P_BITWISE = _probe_log1p_bitwise()
