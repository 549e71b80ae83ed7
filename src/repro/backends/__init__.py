"""Process-level compute settings.

:mod:`repro.backends.threads` pins BLAS/OpenMP threadpools so N-worker
engine pools don't oversubscribe cores.
"""
