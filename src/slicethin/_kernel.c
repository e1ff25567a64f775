/* One nd deletion sub-cycle in C: the scan and the plane test of the Python
 * kernel (thinning._python_subcycle), in place on the zero-padded C-order
 * pattern that thin allocates once per run. The strides and the plane
 * offsets are built here, once per call, from the padded shape.
 */
#include <stddef.h>

#define MAX_DIMS 8     /* pattern._MAX_DIMS; thin rejects larger k */
#define MAX_PLANE 2187 /* 3^(MAX_DIMS - 1): the cells of a plane cube */

/* plane holds the offsets of the n = 3^(k-1) cells of p's plane cube, the
 * last plane axis fastest (p is cell n / 2); ahead steps to the plane ahead.
 * An end-point (<= 2 foreground cells in the 3^k block, p included) stays.
 * Otherwise the foreground of the plane ahead must lie in the one-cell box
 * dilation of p's plane with p left out, or p carries a connection to it. */
static int deletable(const unsigned char *buf, ptrdiff_t i, const ptrdiff_t *plane,
                     ptrdiff_t n, ptrdiff_t ahead)
{
    unsigned char near[MAX_PLANE];
    int count = 0;
    for (ptrdiff_t j = 0; j < n; j++) {
        near[j] = buf[i + plane[j]];
        count += buf[i + plane[j] - ahead] + near[j] + buf[i + plane[j] + ahead];
    }
    if (count <= 2)
        return 0;
    near[n / 2] = 0;
    /* One pass per plane axis: each line of the cube is (q - t, q, q + t). */
    for (ptrdiff_t t = 1; t < n; t *= 3)
        for (ptrdiff_t mid = t; mid < n; mid += 3 * t)
            for (ptrdiff_t q = mid; q < mid + t; q++) {
                unsigned char b = near[q];
                near[q] |= near[q - t] | near[q + t];
                near[q - t] |= b;
                near[q + t] |= b;
            }
    for (ptrdiff_t j = 0; j < n; j++)
        if (buf[i + ahead + plane[j]] && !near[j])
            return 0;
    return 1;
}

/* shape is the padded shape. Lines go in lexicographic order of their
 * fixed coordinates, runs in index order; returns the number of cells deleted. */
ptrdiff_t slicethin_subcycle(unsigned char *buf, int ndim, const ptrdiff_t *shape, int axis,
                             int do_f, int do_b)
{
    ptrdiff_t strides[MAX_DIMS], coord[MAX_DIMS], plane[MAX_PLANE], size = 1, n = 1, deleted = 0;
    int d;
    if (ndim > MAX_DIMS) /* the arrays above are sized for MAX_DIMS */
        return 0;
    for (d = ndim - 1; d >= 0; d--) {
        if (shape[d] < 3) /* no interior cells */
            return 0;
        strides[d] = size;
        size *= shape[d];
        coord[d] = 1;
        n *= d == axis ? 1 : 3;
    }
    for (ptrdiff_t j = 0; j < n; j++) { /* base-3 digits of j, less 1, last plane axis lowest */
        ptrdiff_t r = j;
        plane[j] = 0;
        for (d = ndim - 1; d >= 0; d--)
            if (d != axis) {
                plane[j] += (r % 3 - 1) * strides[d];
                r /= 3;
            }
    }
    ptrdiff_t step = strides[axis], len = shape[axis] - 2;
    for (;;) {
        ptrdiff_t i = step, end;
        for (d = 0; d < ndim; d++)
            if (d != axis)
                i += coord[d] * strides[d];
        end = i + len * step;
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
            if (do_f && deletable(buf, front, plane, n, step)) {
                buf[front] = 0;
                deleted++;
            }
            if (do_b && buf[back + step] && deletable(buf, back, plane, n, -step)) {
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
