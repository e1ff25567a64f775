"""Running one ``nd`` sub-cycle on an unpadded pattern, as ``thin`` runs it."""

import numpy as np

from slicethin import thinning


def run_subcycle(arr, axis, dirs):
    """One sub-cycle on ``arr``, in place; returns the number of cells deleted.

    ``arr`` may be any bool view: it is padded into a C-order buffer, the
    layout ``thin`` gives the kernel, and the interior is written back.
    """
    padded = np.zeros(np.add(arr.shape, 2), bool)
    interior = (slice(1, -1),) * arr.ndim
    padded[interior] = arr
    deleted = thinning.thin_subcycle(padded, axis, dirs)
    arr[...] = padded[interior]
    return deleted
