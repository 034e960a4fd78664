"""Computational toolkit for flat matrix models of the quantum permutation
group: magic bases, free orbitals, exact low-degree Haar values and Cesaro
convolution probes of inner faithfulness.

The environment variable QPG_THREADS caps the worker count of the BLAS behind
numpy.  The BLAS reads its thread count once, when numpy loads, so the cap is
applied here, before the submodules import numpy; it takes effect when qperm
is imported first, and an explicit OPENBLAS_NUM_THREADS (or similar) wins.
"""

import os

if os.environ.get("QPG_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["QPG_THREADS"])

from . import (convolution_probe, errors, flat_model, haar_exact,  # noqa: E402
               label_orbits, magic_bases)

__version__ = "0.1.0"

__all__ = [
    "convolution_probe",
    "errors",
    "flat_model",
    "haar_exact",
    "label_orbits",
    "magic_bases",
    "__version__",
]
