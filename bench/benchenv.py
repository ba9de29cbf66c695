"""Process settings shared by the benchmark's entry points; import it first.

BLAS pools are pinned to one thread before numpy loads (at most nproc
threads per workload; one keeps run-to-run spread lowest on small
matrices), and the checkout's ``src`` goes on the import path so the
benchmark runs the package from source.
"""

import os
import sys

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
