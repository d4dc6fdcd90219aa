"""twofluid._lapack and scipy.linalg in one interpreter, in either import
order, and the standard import where scipy's linalg directory has no wrapper
file.  Each case runs in a fresh interpreter, because the import order is
what it tests."""

import os
import subprocess
import sys

import pytest

import twofluid

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
assert scipy.linalg._fblas.dsyrk is blas.dsyrk is _lapack.dsyrk
assert scipy.linalg._flapack.dpotrf is lapack.dpotrf is _lapack.dpotrf
for theirs, ours in [(blas.dsyrk(1.0, b), _lapack.dsyrk(1.0, b)),
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
