"""The worker pool that the lattice writers and the search share."""

import pytest

from corrdefault import _pool

from conftest import n_cpus

# The thread-count getters matching _pool's setters.
GETTERS = ("scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads(_job=None):
    """The thread count of every loaded OpenBLAS."""
    return [getattr(lib, name)() for lib in _pool.loaded_openblas() for name in GETTERS if hasattr(lib, name)]


def test_workers_run_one_blas_thread():
    import scipy.linalg  # noqa: F401 -- scipy's OpenBLAS loads beside numpy's

    before = _blas_threads()
    if not before:
        pytest.skip("no OpenBLAS is loaded")
    setters = [getattr(lib, name) for lib in _pool.loaded_openblas() for name in _pool._BLAS_SETTERS if hasattr(lib, name)]
    try:
        for setter in setters:  # a worker that kept its parent's count would report 2
            setter(2)
        with n_cpus(2), _pool.cpu_map(_blas_threads, [0, 1]) as per_job:
            assert list(per_job) == [[1] * len(before)] * 2
    finally:
        for setter, count in zip(setters, before):
            setter(count)
    assert _blas_threads() == before
