"""Pin the BLAS thread pools to one thread before numpy or scipy is imported.

With default threads, numpy's and scipy's separate OpenBLAS pools compete for
the cores, and the small dense solves the suite runs many times get several
times slower.  A value already set in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
