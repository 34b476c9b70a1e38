"""Fixed-size chunking of a leading axis, shared by the batched kernels."""

from __future__ import annotations


def chunk_slices(n: int, size: int) -> list[slice]:
    """Slices covering ``range(n)`` in order, ``size`` items each except the
    last.  A one-item tail joins the slice before it, so a slice holds one
    item only when ``n == 1``: numpy and BLAS take other code paths for a
    single row or matrix (matrix-vector products, contiguous pairwise sums),
    which round differently from the same item inside a larger block.
    """
    if size < 2:
        raise ValueError(f"chunk size must be >= 2, got {size}")
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]
