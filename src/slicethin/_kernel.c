/* One nd deletion sub-cycle in C: the scan and the deletability test of
 * the Python kernel (thinning._python_subcycle), in place on the zero-padded
 * C-order pattern that thin allocates once per run. The neighbour offsets
 * come from thinning._offsets.
 */
#include <stddef.h>

#define MAX_DIMS 8 /* pattern._MAX_DIMS; thin rejects larger k */

/* ahead = {n, then per cell F: F's offset, m, m offsets of shared cells}. */
static int deletable(const unsigned char *buf, ptrdiff_t i, const ptrdiff_t *block,
                     ptrdiff_t nblock, const ptrdiff_t *ahead)
{
    int count = 0;
    for (ptrdiff_t j = 0; j < nblock && count <= 2; j++)
        count += buf[i + block[j]];
    if (count <= 2) /* an end-point */
        return 0;
    for (ptrdiff_t n = *ahead++; n > 0; n--) {
        ptrdiff_t f = ahead[0], m = ahead[1];
        const ptrdiff_t *shared = ahead + 2;
        ahead += 2 + m;
        if (!buf[i + f])
            continue;
        int joined = 0;
        for (ptrdiff_t j = 0; j < m && !joined; j++)
            joined = buf[i + shared[j]];
        if (!joined) /* p carries the connection to F */
            return 0;
    }
    return 1;
}

/* shape is the padded shape. Lines go in lexicographic order of their
 * fixed coordinates, runs in index order; returns the number of cells deleted. */
ptrdiff_t slicethin_subcycle(unsigned char *buf, int ndim, const ptrdiff_t *shape, int axis,
                             int do_f, int do_b, const ptrdiff_t *block,
                             const ptrdiff_t *ahead_f, const ptrdiff_t *ahead_b)
{
    ptrdiff_t strides[MAX_DIMS], coord[MAX_DIMS], size = 1, nblock = 1, deleted = 0;
    int d;
    if (ndim > MAX_DIMS) /* the arrays above hold MAX_DIMS entries */
        return 0;
    for (d = ndim - 1; d >= 0; d--) {
        if (shape[d] < 3) /* no interior cells */
            return 0;
        strides[d] = size;
        size *= shape[d];
        coord[d] = 1;
        nblock *= 3;
    }
    ptrdiff_t step = strides[axis], n = shape[axis] - 2;
    for (;;) {
        ptrdiff_t i = step, end;
        for (d = 0; d < ndim; d++)
            if (d != axis)
                i += coord[d] * strides[d];
        end = i + n * step;
        while (i < end) {
            if (!buf[i]) {
                i += step;
                continue;
            }
            /* The padding ends every run. */
            ptrdiff_t back = i;
            while (buf[i + step])
                i += step;
            ptrdiff_t front = i;
            i += 2 * step;
            if (front == back)
                continue;
            if (do_f && deletable(buf, front, block, nblock, ahead_f)) {
                buf[front] = 0;
                deleted++;
            }
            if (do_b && buf[back + step] && deletable(buf, back, block, nblock, ahead_b)) {
                buf[back] = 0;
                deleted++;
            }
        }
        for (d = ndim - 1; d >= 0; d--) {
            if (d == axis)
                continue;
            if (++coord[d] < shape[d] - 1)
                break;
            coord[d] = 1;
        }
        if (d < 0)
            return deleted;
    }
}
