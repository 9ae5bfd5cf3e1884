"""ctypes binding for the compiled subdivision kernel, ``_subdiv.c``.

``CompiledKernel(path)`` opens a built library. Its
``search_cycle_subdivision`` takes the same arguments as the pure twin in
``_subdiv_py`` and returns the same ``(status, payload, nodes)`` shape, built
from tuples of Python ints.
"""

import ctypes
from array import array

from ._subdiv_py import FOUND

_INT_P = ctypes.POINTER(ctypes.c_int)
_BUDGET_MAX = (1 << 63) - 1


class CompiledKernel:
    """The kernel in the built library at ``path``."""

    def __init__(self, path: str):
        fn = ctypes.CDLL(path).fb_search_cycle_subdivision
        fn.argtypes = [ctypes.c_int, _INT_P, _INT_P, *[ctypes.c_int] * 4,
                       ctypes.c_longlong, _INT_P, _INT_P, _INT_P,
                       ctypes.POINTER(ctypes.c_longlong)]
        fn.restype = ctypes.c_int
        self._search = fn

    def search_cycle_subdivision(self, n, indptr, indices, k1, k2, k3, k4, budget):
        """Returns (status, payload, nodes); payload is (junctions, paths) on FOUND."""
        # ctypes truncates out-of-range ints silently and C indexes without
        # checks, so everything the kernel trusts is checked here.
        if (len(indptr) != n + 1 or indptr[0] != 0 or indptr[n] != len(indices)
                or any(a > b for a, b in zip(indptr, indptr[1:]))):
            raise ValueError("indptr is not a CSR row index over n vertices")
        if indices and not 0 <= min(indices) <= max(indices) < n:
            raise ValueError("arc head out of range")
        if min(k1, k2, k3, k4) < 1:
            raise ValueError("block lengths must be positive")
        # a block longer than n leaves the search ABSENT either way
        blocks = [min(k, n + 1) for k in (k1, k2, k3, k4)]
        c_indptr, c_indices = array("i", indptr), array("i", indices)
        path_buf = (ctypes.c_int * (4 * (n + 1)))()
        path_len, junctions = (ctypes.c_int * 4)(), (ctypes.c_int * 4)()
        nodes = ctypes.c_longlong()
        status = self._search(
            n, _pointer(c_indptr), _pointer(c_indices), *blocks,
            min(budget, _BUDGET_MAX), junctions, path_buf, path_len, nodes,
        )
        if status < 0:
            raise MemoryError("subdivision kernel could not allocate its work arrays")
        if status != FOUND:
            return status, None, nodes.value
        paths = tuple(
            tuple(path_buf[p * (n + 1):p * (n + 1) + path_len[p]]) for p in range(4)
        )
        return status, (tuple(junctions), paths), nodes.value


def _pointer(buf: array):
    return (ctypes.c_int * len(buf)).from_buffer(buf)
