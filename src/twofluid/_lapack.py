"""The Fortran BLAS and LAPACK routines the package calls, from scipy's f2py
wrappers, without the package import of ``scipy.linalg``.

The package calls ten wrappers: ``ddot``, ``dgemm``, ``dgemv``, ``dnrm2``,
``dsyrk`` and ``dtrsm`` from the extension module ``scipy.linalg._fblas``,
``dpotrf``, ``dpotrs``, ``dtrtrs`` and ``dsyevr`` from
``scipy.linalg._flapack``.

Every large product of a right-hand side goes through them: the Gram matrix
DᵀD of a grid, the block assembly and the Schur updates of the strip's
sweep, the x-derivative, the gauge projection, the residual checks and the
DN products.  numpy and scipy each bundle an OpenBLAS with a thread pool of
its own, and under the inherited thread settings two pools spinning side by
side make an ``rhs`` several times slower than one thread, so only scipy's
runs.  numpy keeps the products too small to be threaded and those of the
Dirichlet field solve.

Importing them through ``scipy.linalg.blas`` and ``scipy.linalg.lapack``
first runs the package import of ``scipy.linalg``, whose array-API layer
loads ``numpy.f2py`` among others: about 0.3 s and 23 MB of a fresh
``import twofluid`` (scipy 1.17, Python 3.11, a 2-vCPU Xeon) that reads
none of it.

So this module loads the two extension modules from their files in scipy's
``linalg`` directory, after ``import scipy``, whose ``__init__`` sets up
scipy's bundled libraries on some platforms.  A module already in
``sys.modules`` is reused.  A loaded one is left out of ``sys.modules``: a
later ``import scipy.linalg`` then loads its own module and sets it as the
package's attribute, and CPython hands that module the same routine objects,
because it initialises a single-phase extension module once per process.
The routines are thus the very objects that ``scipy.linalg.blas`` and
``scipy.linalg.lapack`` re-export, whichever is imported first.  Where the
directory holds no such file, as in an editable scipy install, both modules
are imported the standard way.
"""

from __future__ import annotations

import importlib
import os
import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import scipy


def _load(name: str, directory: str):
    """The module ``scipy.linalg.<name>``: the one in ``sys.modules``, else
    the one loaded from its file in ``directory``, else the imported one."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = PathFinder.find_spec(full, [directory])
    if spec is None:
        return importlib.import_module(full)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    # CPython enters a single-phase extension module in sys.modules as it
    # initialises it; a later import of scipy.linalg would take that entry
    # and leave the package without the attribute, so it is taken out again
    if sys.modules.get(full) is module:
        del sys.modules[full]
    return module


_linalg = os.path.join(scipy.__path__[0], "linalg")
_fblas, _flapack = _load("_fblas", _linalg), _load("_flapack", _linalg)
ddot, dgemm, dgemv, dnrm2, dsyrk, dtrsm = (_fblas.ddot, _fblas.dgemm, _fblas.dgemv, _fblas.dnrm2,
                                           _fblas.dsyrk, _fblas.dtrsm)
dpotrf, dpotrs, dtrtrs, dsyevr = _flapack.dpotrf, _flapack.dpotrs, _flapack.dtrtrs, _flapack.dsyevr
