/* The C kernels of slicethin, loaded by _native. Each works in place on the
 * zero-padded C-order buffer of pattern._padded, one byte of 0 or 1 a cell,
 * and has a Python or numpy twin that runs only where no library loads.
 *
 * slicethin_subcycle: one nd deletion sub-cycle, the scan and the plane test
 * of the Python kernel (thinning._python_subcycle). The strides and the
 * plane offsets are built here, once per call, from the padded shape. For
 * k <= 4 the plane test holds each plane as one 64-bit mask and dilates it
 * by shifts, with the line masks lo/hi built beside the offsets; for
 * k = 5..8 it works on byte planes (see deletable).
 *
 * slicethin_sweep: a whole Zhang-Suen or Guo-Hall run, the mark-then-sweep
 * loop of the numpy driver (baselines._numpy_sweep), coding only the pixels
 * of a contour list instead of every pixel of the image.
 *
 * slicethin_components: the number of (3^k - 1)-connected foreground
 * components, by a flood fill over the runs along the last axis.
 *
 * slicethin_counts: what the metrics count of an input and its skeleton, in
 * one pass over both: the areas, the skeleton cells outside the input and
 * the 2x2-covered skeleton cells (metrics._numpy_counts).
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define MAX_DIMS 8     /* pattern._MAX_DIMS; as_pattern rejects larger k */
#define MAX_PLANE 2187 /* 3^(MAX_DIMS - 1): the cells of a plane cube */

/* plane holds the offsets of the n = 3^(k-1) cells of p's plane cube, the
 * last plane axis fastest (p is cell n / 2); ahead steps to the plane ahead.
 * An end-point (<= 2 foreground cells in the 3^k block, p included) stays.
 * Otherwise the foreground of the plane ahead must lie in the one-cell box
 * dilation of p's plane with p left out, or p carries a connection to it.
 *
 * Up to k = 4 (n <= 64) each plane is one word, bit j for cell j: near is
 * p's plane without p, fwd the plane ahead, and lo[d] / hi[d] mark the cells
 * whose digit d (cube stride 3^d) is not 2 / not 0, the cells that a shift
 * by 3^d up / down keeps in their line. The caller tests an extreme whose
 * neighbour behind it along the axis is foreground, so the block holds p and
 * that neighbour, and any other foreground cell of p's plane makes it no
 * end-point: the count is read only when p is alone in its plane. */
static int deletable(const unsigned char *buf, ptrdiff_t i, const ptrdiff_t *plane,
                     ptrdiff_t n, ptrdiff_t ahead, const uint64_t *lo, const uint64_t *hi)
{
    if (n <= 64) {
        uint64_t near = 0, fwd = 0;
        int d = 0;
        for (ptrdiff_t j = 0; j < n; j++) {
            near |= (uint64_t)buf[i + plane[j]] << j;
            fwd |= (uint64_t)buf[i + ahead + plane[j]] << j;
        }
        near &= ~((uint64_t)1 << n / 2);
        if (!near) { /* p alone: the block is p, the plane behind and fwd */
            int count = 0;
            if (fwd)
                return 0; /* the dilation of an empty plane is empty */
            for (ptrdiff_t j = 0; j < n; j++)
                count += buf[i - ahead + plane[j]];
            return count > 1; /* with p, more than 2 */
        }
        for (ptrdiff_t t = 1; t < n; t *= 3, d++) /* one pass per plane axis */
            near |= ((near & lo[d]) << t) | ((near & hi[d]) >> t);
        return !(fwd & ~near);
    }
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
    uint64_t lo[MAX_DIMS] = {0}, hi[MAX_DIMS] = {0}; /* set only where n <= 64 */
    int d, c;
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
        for (d = ndim - 1, c = 0; d >= 0; d--)
            if (d != axis) {
                plane[j] += (r % 3 - 1) * strides[d];
                if (n <= 64) {
                    lo[c] |= (uint64_t)(r % 3 != 2) << j;
                    hi[c] |= (uint64_t)(r % 3 != 0) << j;
                }
                r /= 3;
                c++;
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
            if (do_f && deletable(buf, front, plane, n, step, lo, hi)) {
                buf[front] = 0;
                deleted++;
            }
            if (do_b && buf[back + step] && deletable(buf, back, plane, n, -step, lo, hi)) {
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

/* The bits of a sweep's buffer cell. */
#define FG 1     /* foreground */
#define LISTED 2 /* in the contour list */
#define MARKED 4 /* deletable in this sub-iteration */

/* buf is the padded rows x cols pattern; tables holds the two
 * sub-iterations' 256-entry deletability tables, indexed by the code of
 * P2..P9 (bit i is P(i+2)). list is scratch for one flat index per pattern
 * cell. Returns the number of iterations, the last one deleting nothing;
 * buf holds the skeleton, again as 0 or 1.
 *
 * The list holds every foreground pixel with a background 8-neighbour, and
 * maybe more: a pixel with 8 foreground neighbours has BP = 8 for ZS and
 * CP = 0 for GH, so neither rule can delete it. A sub-iteration marks the
 * listed pixels whose code, read from the FG bits alone, hits the table, so
 * every code sees the frozen image; then it deletes the marked pixels. The
 * next list is the unmarked pixels of this one plus the foreground
 * neighbours of the deleted ones, which the LISTED bit keeps from being
 * listed twice. Those neighbours are foreground pixels not yet listed, so
 * they fit in list after the current entries. */
ptrdiff_t slicethin_sweep(unsigned char *buf, ptrdiff_t rows, ptrdiff_t cols,
                          const unsigned char *tables, ptrdiff_t *list)
{
    /* P2..P9: north, then clockwise. */
    const ptrdiff_t ring[8] = {-cols, 1 - cols, 1, cols + 1, cols, cols - 1, -1, -cols - 1};
    ptrdiff_t n = 0, iterations = 0, r;
    int changed = 1, k;
    /* Only interior cells can be foreground, so their neighbours are in bounds. */
    for (ptrdiff_t i = cols + 1; i < (rows - 1) * cols - 1; i++)
        if (buf[i])
            for (k = 0; k < 8; k++)
                if (!buf[i + ring[k]]) {
                    buf[i] |= LISTED;
                    list[n++] = i;
                    break;
                }
    while (changed) {
        iterations++;
        changed = 0;
        for (const unsigned char *table = tables; table < tables + 512; table += 256) {
            ptrdiff_t kept = 0, added = 0;
            int marked = 0;
            for (r = 0; r < n; r++) {
                ptrdiff_t i = list[r];
                unsigned code = 0;
                for (k = 0; k < 8; k++)
                    code |= (unsigned)(buf[i + ring[k]] & FG) << k;
                if (table[code]) {
                    buf[i] |= MARKED;
                    marked = 1;
                }
            }
            if (!marked)
                continue;
            changed = 1;
            for (r = 0; r < n; r++) {
                ptrdiff_t i = list[r];
                if (!(buf[i] & MARKED)) {
                    list[kept++] = i;
                    continue;
                }
                buf[i] = 0;
                for (k = 0; k < 8; k++)
                    if (buf[i + ring[k]] == FG) {
                        buf[i + ring[k]] = FG | LISTED;
                        list[n + added++] = i + ring[k];
                    }
            }
            memmove(list + kept, list + n, (size_t)added * sizeof *list);
            n = kept + added;
        }
    }
    for (r = 0; r < n; r++)
        buf[list[r]] = FG;
    return iterations;
}

/* The run through the unvisited foreground cell j: marks it visited (2)
 * and returns its start. */
static ptrdiff_t visit(unsigned char *buf, ptrdiff_t j)
{
    ptrdiff_t start = j;
    while (buf[start - 1])
        start--;
    for (j = start; buf[j]; j++)
        buf[j] = 2;
    return start;
}

/* shape is the padded shape; stack is scratch for the start index of every
 * run along the last axis. Returns the number of (3^k - 1)-connected
 * foreground components; buf is left with 2 on every foreground cell.
 *
 * A fill starts at each unvisited foreground cell, in index order. A run is
 * marked visited when it is pushed, so it is pushed once. Cells l - 1 .. r + 1
 * of each of the 3^(k-1) - 1 neighbouring lines hold every cell adjacent to
 * the run [l, r] there, so popping it pushes the unvisited runs among them. */
ptrdiff_t slicethin_components(unsigned char *buf, int ndim, const ptrdiff_t *shape,
                               ptrdiff_t *stack)
{
    ptrdiff_t strides[MAX_DIMS], lines[MAX_PLANE], size = 1, n, count = 0;
    int d;
    if (ndim > MAX_DIMS) /* the arrays above are sized for MAX_DIMS */
        return -1;
    for (d = ndim - 1; d >= 0; d--) {
        strides[d] = size;
        size *= shape[d];
    }
    /* The plane loop of slicethin_subcycle over the line axes, kept apart:
     * a shared helper changed the sub-cycle's code and slowed nd thinning of
     * a 40^3 sphere by 13-27% (gcc 12.2, -O2). */
    n = 1;
    for (d = 0; d < ndim - 1; d++)
        n *= 3;
    for (ptrdiff_t j = 0; j < n; j++) { /* base-3 digits of j, less 1, last line axis lowest */
        ptrdiff_t r = j;
        lines[j] = 0;
        for (d = ndim - 2; d >= 0; d--) {
            lines[j] += (r % 3 - 1) * strides[d];
            r /= 3;
        }
    }
    lines[n / 2] = lines[n - 1]; /* the run's own line is not a neighbour */
    n--;
    for (ptrdiff_t i = 0; i < size; i++) {
        if (buf[i] != 1)
            continue;
        ptrdiff_t top = 0;
        count++;
        stack[top++] = visit(buf, i);
        while (top) {
            ptrdiff_t l = stack[--top], r = l;
            while (buf[r + 1])
                r++;
            for (ptrdiff_t j = 0; j < n; j++)
                for (ptrdiff_t c = l - 1 + lines[j]; c <= r + 1 + lines[j]; c++)
                    if (buf[c] == 1)
                        stack[top++] = visit(buf, c);
        }
    }
    return count;
}

/* Whether the 2x2 window with top-left corner t is all foreground. */
static int full_window(const unsigned char *buf, ptrdiff_t t, ptrdiff_t cols)
{
    return buf[t] && buf[t + 1] && buf[t + cols] && buf[t + cols + 1];
}

/* input and skeleton are padded buffers of one shape. Fills counts with the
 * input's area, the skeleton's area, the skeleton cells outside the input
 * and, in 2D, the skeleton cells that an all-foreground 2x2 window of the
 * skeleton covers (0 for k > 2); returns 0. A covered cell is the corner of
 * a full window whose top-left corner is the cell itself or its neighbour
 * to the west, north or north-west. Only interior cells are foreground, so
 * every window read is in bounds. */
ptrdiff_t slicethin_counts(const unsigned char *input, const unsigned char *skeleton, int ndim,
                           const ptrdiff_t *shape, ptrdiff_t *counts)
{
    ptrdiff_t size = 1, cols = shape[ndim - 1], area_in = 0, area_sk = 0, outside = 0, covered = 0;
    int d;
    for (d = 0; d < ndim; d++)
        size *= shape[d];
    for (ptrdiff_t i = 0; i < size; i++) {
        area_in += input[i];
        if (!skeleton[i])
            continue;
        area_sk++;
        outside += !input[i];
        covered += ndim == 2 && (full_window(skeleton, i - cols - 1, cols) ||
                                 full_window(skeleton, i - cols, cols) ||
                                 full_window(skeleton, i - 1, cols) || full_window(skeleton, i, cols));
    }
    counts[0] = area_in;
    counts[1] = area_sk;
    counts[2] = outside;
    counts[3] = covered;
    return 0;
}
