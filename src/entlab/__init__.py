"""entlab: a numerical laboratory for bipartite entanglement-rate bounds.

Modules:
    operators -- dense Hermitian primitives (spectra, logs, traces, norms)
    rates     -- the rate/commutator functionals, closed-form maximization,
                 bound functions, and the interval-decomposition audit
    search    -- randomized generators and gradient-ascent maximizers
    chains    -- gapped spin-chain paths, exact transport, entropy tracking
    cli       -- command-line front end
    __main__  -- console entry point (``entlab``, ``python -m entlab``)
"""

__version__ = "0.1.0"

# BLAS thread settings: the console entry point sets each one the caller left
# unset to 1, and every report header prints them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
