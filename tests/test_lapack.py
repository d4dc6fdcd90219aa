"""twofluid._lapack and scipy.linalg in one interpreter, in either import
order, and the standard import where scipy's linalg directory has no wrapper
file.  Each case runs in a fresh interpreter, because the import order is
what it tests.  The package passes the wrappers' arguments by position, so
each call of the package is also checked against the same call by keyword."""

import os
import subprocess
import sys

import numpy as np
import pytest

import twofluid
from twofluid import _lapack

SPD = """
import numpy as np
rng = np.random.default_rng(0)
b = rng.standard_normal((6, 6))
spd = b @ b.T + 6.0 * np.eye(6)
"""

CASES = {
    # the package first: a later scipy.linalg is complete, and its routines
    # are the package's
    "package-first": SPD + """
import twofluid
from twofluid import _lapack
import scipy.linalg
from scipy.linalg import blas, lapack
upper = scipy.linalg.cholesky(spd)
assert np.allclose(upper.T @ upper, spd)
assert scipy.linalg.get_blas_funcs("gemm", (spd,)).typecode == "d"
assert scipy.linalg._fblas.dgemm is blas.dgemm is _lapack.dgemm
assert scipy.linalg._flapack.dpotrf is lapack.dpotrf is _lapack.dpotrf
for theirs, ours in [(blas.dgemm(1.0, b, b.T), _lapack.dgemm(1.0, b, b.T)),
                     (blas.dsyrk(1.0, b.T, trans=1), _lapack.dsyrk(1.0, b.T, trans=1)),
                     (lapack.dpotrf(spd)[0], _lapack.dpotrf(spd)[0])]:
    assert theirs.tobytes() == ours.tobytes()
""",
    # scipy.linalg first: the package reuses its two modules
    "scipy-first": """
import scipy.linalg
import twofluid
from twofluid import _lapack
assert _lapack._fblas is scipy.linalg._fblas
assert _lapack._flapack is scipy.linalg._flapack
""",
    # no wrapper file in the directory: the standard import
    "fallback": SPD + """
import sys
from twofluid._lapack import _load
fblas, flapack = (_load(name, sys.argv[1]) for name in ("_fblas", "_flapack"))
assert fblas is sys.modules["scipy.linalg._fblas"] and "scipy.linalg" in sys.modules
assert flapack is sys.modules["scipy.linalg._flapack"]
assert fblas.dnrm2(np.array([3.0, 4.0])) == 5.0
low, info = flapack.dpotrf(spd, 1)
assert info == 0 and np.allclose(np.tril(low) @ np.tril(low).T, spd)
""",
}


@pytest.mark.parametrize("case", list(CASES))
def test_wrappers_interoperate_with_scipy_linalg(case, tmp_path):
    src = os.path.dirname(os.path.dirname(twofluid.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", CASES[case], str(tmp_path)], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def calls_of_the_package():
    """Each wrapper call of the package with its positional arguments, and the
    same call by keyword, on one small SPD case; the two calls get arrays of
    their own, because some overwrite their input."""
    rng = np.random.default_rng(0)
    b = rng.standard_normal((6, 6))
    spd = b @ b.T + 6.0 * np.eye(6)
    low = np.asfortranarray(np.linalg.cholesky(spd))
    v, stack = rng.standard_normal(6), rng.standard_normal((3, 6))
    f = np.asfortranarray
    return {
        # the sweep's Schur update, e_coeff's Gram product, the x-matrix
        # Dᵀdiag(ζ)D and the products u·m of spectral._dot and of a stack
        # in strip._dn_product
        "dgemm-update": ((-1.0, b, b, 1.0, f(spd), 0, 1, 1),
                         dict(alpha=-1.0, a=b, b=b, beta=1.0, c=f(spd), trans_a=0, trans_b=1,
                              overwrite_c=1)),
        "dgemm-gram": ((0.5, b, b, 0.0, None, 0, 1),
                       dict(alpha=0.5, a=b, b=b, beta=0.0, c=None, trans_a=0, trans_b=1)),
        "dgemm-xmatrix": ((1.0, b.T, spd.T, 0.0, np.zeros((6, 6)).T, 1, 0, 1),
                          dict(alpha=1.0, a=b.T, b=spd.T, beta=0.0, c=np.zeros((6, 6)).T,
                               trans_a=1, trans_b=0, overwrite_c=1)),
        "dgemm-dot": ((1.0, b.T, stack.T), dict(alpha=1.0, a=b.T, b=stack.T)),
        # the Gram matrix DᵀD of a grid
        "dsyrk": ((1.0, b.T, 0.0, None, 1, 1),
                  dict(alpha=1.0, a=b.T, beta=0.0, c=None, trans=1, lower=1)),
        "dgemv-dot": ((1.0, b.T, v), dict(alpha=1.0, a=b.T, x=v)),
        # strip._dn_product of one field, its scale in alpha
        "dgemv-dn": ((-0.5, b.T, v, 0.0, None, 0, 1, 0, 1, 1),
                     dict(alpha=-0.5, a=b.T, x=v, beta=0.0, y=None, offx=0, incx=1, offy=0,
                          incy=1, trans=1)),
        "dtrsm-sweep": ((1.0, low, f(b), 1, 1, 1, 0, 1),
                        dict(alpha=1.0, a=low, b=f(b), side=1, lower=1, trans_a=1, diag=0,
                             overwrite_b=1)),
        "dtrsm-whiten": ((1.0, low, b, 1, 1, 1),
                         dict(alpha=1.0, a=low, b=b, side=1, lower=1, trans_a=1)),
        "dpotrf": ((f(spd), 1, 0, 1), dict(a=f(spd), lower=1, clean=0, overwrite_a=1)),
        "dpotrs": ((low, v[:, None], 1), dict(c=low, b=v[:, None], lower=1)),
        "dtrtrs": ((low, v[:, None], 1, 1), dict(a=low, b=v[:, None], lower=1, trans=1)),
        "dsyevr": ((spd, 0, "I", 1, 0.0, 0.0, 6, 6),
                   dict(a=spd, compute_v=0, range="I", lower=1, vl=0.0, vu=0.0, il=6, iu=6)),
        "ddot": ((v, v), dict(x=v, y=v)),
        "dnrm2": ((v,), dict(x=v)),
    }


def bits(result) -> list:
    return [np.asarray(r).tobytes() for r in (result if isinstance(result, tuple) else (result,))]


@pytest.mark.parametrize("call", list(calls_of_the_package()))
def test_positional_calls_match_keyword_calls(call):
    # a slot that moved between scipy releases would change the result
    routine = getattr(_lapack, call.split("-")[0])
    args, kwargs = calls_of_the_package()[call]
    assert bits(routine(*args)) == bits(routine(**kwargs))
