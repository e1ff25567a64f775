/* The C kernels of slicethin, loaded by _native. Each has a Python or numpy
 * twin that runs only where no library loads, and each but the two of the
 * file codec works in place on the zero-padded C-order buffer of
 * pattern._padded, one byte of 0 or 1 a cell.
 *
 * slicethin_thin: a whole nd run, every phase of the schedule to
 * convergence, with the scan and the plane test of the Python kernel
 * (thinning.thin_subcycle) in each sub-cycle. It keeps the runs along each
 * scheduled axis in lists that live for the call, so a sub-cycle tests the
 * listed runs and scans again, within those runs, only the lines in which a
 * sub-cycle along another axis has deleted a cell since. The strides and the plane offsets
 * are built once per sub-cycle from the padded shape. For k <= 4 the plane
 * test holds each plane as one 64-bit mask and dilates it by shifts, with
 * the line masks lo/hi built beside the offsets; for k = 5..8 it works on
 * byte planes (see deletable).
 *
 * slicethin_sweep: a whole Zhang-Suen or Guo-Hall run, the mark-then-sweep
 * loop of the numpy driver (baselines._numpy_sweep), coding only the pixels
 * of a contour list instead of every pixel of the image: the foreground
 * pixels with a background edge neighbour, found a word at a time, and then
 * the edge neighbours of the pixels deleted. A pixel's code is its 3x3
 * window, from three 4-byte row loads (a byte at a time where a word does
 * not hold its lowest byte first), and indexes one of two 512-entry tables
 * that each call builds from the two 256-entry ones it is given. Each
 * sub-iteration moves its marked pixels to a list of their own without a
 * branch.
 *
 * slicethin_components: the number of (3^k - 1)-connected foreground
 * components, by a flood fill over the runs along the last axis, which
 * memchr finds and memset marks.
 *
 * slicethin_counts: what the metrics count of an input and its skeleton, in
 * one pass over both, eight cells to a word and without a branch on a cell:
 * the areas, the skeleton cells outside the input and the 2x2-covered
 * skeleton cells (metrics._numpy_counts).
 *
 * slicethin_decode and slicethin_encode: the cells of a pattern file's
 * payload, read 16 bytes at a time where it takes the writers' layout, and
 * written four cells to an 8-byte store (the bytes path of formats).
 */
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
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

/* A growable list of (back, front) pairs. */
struct list {
    ptrdiff_t *pairs;
    ptrdiff_t cap; /* entries, two a run */
};

/* The runs of one scheduled axis, kept from one of its sub-cycles to the
 * next. A line's id is its rank in the sub-cycle's line order. */
struct runs {
    struct list list;       /* (back, front) of every run of 2 or more cells, lines in order */
    ptrdiff_t *count;       /* runs listed per line */
    unsigned char *dirty;   /* per line: bit 2 until it is scanned, bit 1 once a cell is deleted */
    ptrdiff_t id[MAX_DIMS]; /* a line's id is sum (coord[d] - 1) * id[d]; id[axis] = 0 */
};

/* Room for need entries in l; 0, or -1 where realloc fails. */
static int reserve(struct list *l, ptrdiff_t need)
{
    if (need <= l->cap)
        return 0;
    ptrdiff_t cap = need > 2 * l->cap ? need : 2 * l->cap;
    ptrdiff_t *pairs = realloc(l->pairs, (size_t)cap * sizeof *pairs);
    if (!pairs)
        return -1;
    l->pairs = pairs;
    l->cap = cap;
    return 0;
}

/* Sets the dirty byte of the line through the cell at coord on every axis
 * of axes but axis. */
static void mark(struct runs *runs, const int *axes, int naxes, int axis, int ndim,
                 const ptrdiff_t *coord)
{
    for (int j = 0; j < naxes; j++)
        if (axes[j] != axis) {
            ptrdiff_t line = 0;
            for (int d = 0; d < ndim; d++)
                line += (coord[d] - 1) * runs[axes[j]].id[d];
            runs[axes[j]].dirty[line] |= 1;
        }
}

/* One sub-cycle along axis, the deletions of the Python kernel
 * (thinning.thin_subcycle). runs[axis] gives the runs of each clean line and
 * its dirty lines are scanned again; the tested runs go to spare, which
 * then becomes runs[axis]'s list. A deletion moves its run's extreme in
 * place and sets the dirty byte of its line along every other axis of axes.
 * Returns the number of cells deleted, or -1 where spare cannot grow. */
static ptrdiff_t subcycle(unsigned char *buf, int ndim, const ptrdiff_t *shape,
                          const ptrdiff_t *strides, struct runs *runs, const int *axes, int naxes,
                          int axis, int dirs, struct list *spare)
{
    ptrdiff_t coord[MAX_DIMS], plane[MAX_PLANE], n = 1, deleted = 0;
    ptrdiff_t line = 0, r = 0, w = 0;
    uint64_t lo[MAX_DIMS] = {0}, hi[MAX_DIMS] = {0}; /* set only where n <= 64 */
    struct runs *own = &runs[axis];
    struct list t;
    int d, c;
    for (d = 0; d < ndim; d++) {
        coord[d] = 1;
        n *= d == axis ? 1 : 3;
    }
    for (ptrdiff_t q = 0; q < n; q++) { /* base-3 digits of q, less 1, last plane axis lowest */
        ptrdiff_t rest = q;
        plane[q] = 0;
        for (d = ndim - 1, c = 0; d >= 0; d--)
            if (d != axis) {
                plane[q] += (rest % 3 - 1) * strides[d];
                if (n <= 64) {
                    lo[c] |= (uint64_t)(rest % 3 != 2) << q;
                    hi[c] |= (uint64_t)(rest % 3 != 0) << q;
                }
                rest /= 3;
                c++;
            }
    }
    ptrdiff_t step = strides[axis], len = shape[axis] - 2;
    for (;;) {
        ptrdiff_t listed = own->count[line];
        if (listed || own->dirty[line]) {
            ptrdiff_t first = step, nruns = listed, kept = 0, *src, *dst;
            if (reserve(spare, w + (own->dirty[line] ? len + 1 : 2 * listed)))
                return -1;
            dst = spare->pairs + w;
            for (d = 0; d < ndim; d++)
                if (d != axis)
                    first += coord[d] * strides[d];
            if (own->dirty[line]) {
                /* Scan it into dst: all of it the first time, then only the
                 * listed runs, as no cell becomes foreground and a single
                 * cell never joins a run. The padding ends every run. */
                int whole = own->dirty[line] & 2;
                const ptrdiff_t *spans = own->list.pairs + r;
                nruns = 0;
                for (ptrdiff_t sp = 0; sp < (whole ? 1 : listed); sp++) {
                    ptrdiff_t i = whole ? first : spans[2 * sp];
                    ptrdiff_t end = whole ? first + len * step : spans[2 * sp + 1] + step;
                    while (i < end) {
                        if (!buf[i]) {
                            i += step;
                            continue;
                        }
                        ptrdiff_t back = i;
                        while (buf[i + step])
                            i += step;
                        if (i != back) {
                            dst[2 * nruns] = back;
                            dst[2 * nruns++ + 1] = i;
                        }
                        i += 2 * step;
                    }
                }
                own->dirty[line] = 0;
                src = dst;
            } else {
                src = own->list.pairs + r;
            }
            r += 2 * listed;
            /* Tested in order; kept never passes the read index where src is dst. */
            for (ptrdiff_t q = 0; q < 2 * nruns; q += 2) {
                ptrdiff_t back = src[q], front = src[q + 1];
                if (dirs & 1 && deletable(buf, front, plane, n, step, lo, hi)) {
                    buf[front] = 0;
                    deleted++;
                    coord[axis] = (front - first) / step + 1;
                    mark(runs, axes, naxes, axis, ndim, coord);
                    front -= step;
                }
                if (dirs & 2 && front != back && deletable(buf, back, plane, n, -step, lo, hi)) {
                    buf[back] = 0;
                    deleted++;
                    coord[axis] = (back - first) / step + 1;
                    mark(runs, axes, naxes, axis, ndim, coord);
                    back += step;
                }
                if (front != back) { /* a single cell is never tested again */
                    dst[kept++] = back;
                    dst[kept++] = front;
                }
            }
            own->count[line] = kept / 2;
            w += kept;
        }
        line++;
        for (d = ndim - 1; d >= 0; d--) {
            if (d == axis)
                continue;
            if (++coord[d] < shape[d] - 1)
                break;
            coord[d] = 1;
        }
        if (d < 0)
            break;
    }
    t = own->list;
    own->list = *spare;
    *spare = t;
    return deleted;
}

/* shape is the padded shape. subs holds each sub-cycle of the schedule as
 * (axis, directions), directions bit 1 for fronts and bit 2 for backs, and
 * ends[p] the number of sub-cycles up to the end of phase p. Runs every
 * phase to convergence: an iteration runs each sub-cycle of its phase once,
 * and the phase ends after an iteration that deletes nothing. Returns the
 * number of iterations, or -1 where an allocation fails; the lists are
 * freed either way.
 *
 * Lines go in lexicographic order of their fixed coordinates, runs in index
 * order. A sub-cycle deletes only run extremes, and no cell becomes
 * foreground again, so between two sub-cycles along an axis its runs change
 * only at the cells deleted: those of its own sub-cycle move an extreme, and
 * those of another axis's are in lines that its dirty bytes name, which are
 * scanned again. */
ptrdiff_t slicethin_thin(unsigned char *buf, int ndim, const ptrdiff_t *shape, const int *subs,
                         const int *ends, int nphases)
{
    ptrdiff_t strides[MAX_DIMS], size = 1, iterations = 0, deleted;
    struct runs runs[MAX_DIMS];
    struct list spare = {NULL, 0};
    int axes[MAX_DIMS], naxes = 0, d, e, j;
    if (ndim > MAX_DIMS) /* the arrays above are sized for MAX_DIMS */
        return nphases;
    for (d = ndim - 1; d >= 0; d--) {
        if (shape[d] < 3) /* no interior cells: each phase deletes nothing once */
            return nphases;
        strides[d] = size;
        size *= shape[d];
    }
    for (d = 0; d < ndim; d++) {
        for (j = 0; j < ends[nphases - 1] && subs[2 * j] != d; j++)
            ;
        if (j == ends[nphases - 1])
            continue; /* not in the schedule */
        struct runs *own = &runs[d];
        ptrdiff_t lines = 1;
        for (e = ndim - 1; e >= 0; e--) {
            own->id[e] = e == d ? 0 : lines;
            lines *= e == d ? 1 : shape[e] - 2;
        }
        own->list.pairs = NULL;
        own->list.cap = 0;
        own->count = calloc((size_t)lines, sizeof *own->count);
        own->dirty = malloc((size_t)lines);
        axes[naxes++] = d;
        if (!own->count || !own->dirty) {
            iterations = -1;
            goto done;
        }
        memset(own->dirty, 2, (size_t)lines);
    }
    for (int p = 0; p < nphases; p++)
        do {
            iterations++;
            deleted = 0;
            for (int s = p ? ends[p - 1] : 0; s < ends[p]; s++) {
                ptrdiff_t got = subcycle(buf, ndim, shape, strides, runs, axes, naxes,
                                         subs[2 * s], subs[2 * s + 1], &spare);
                if (got < 0) {
                    iterations = -1;
                    goto done;
                }
                deleted += got;
            }
        } while (deleted);
done:
    for (j = 0; j < naxes; j++) {
        free(runs[axes[j]].list.pairs);
        free(runs[axes[j]].count);
        free(runs[axes[j]].dirty);
    }
    free(spare.pairs);
    return iterations;
}

/* The eight cells from p on, a byte each, as one word. */
static uint64_t word(const unsigned char *p)
{
    uint64_t w;
    memcpy(&w, p, sizeof w);
    return w;
}

/* 1 where a word holds its lowest byte first, as the sweep's row loads and
 * the word steps of the codec assume; elsewhere they read a byte at a time.
 * gcc folds it to a constant. */
static int little_endian(void)
{
    const uint16_t one = 1;
    unsigned char low;
    memcpy(&low, &one, 1);
    return low;
}

/* The bits of a sweep's buffer cell. */
#define FG 1     /* foreground */
#define LISTED 2 /* in the contour list */

/* The FG bits of cells lane .. lane + 2 of the four from p, the first
 * lowest. Where a word holds its lowest byte first, they come from one
 * 4-byte load: one mask keeps the three FG bits, at bits 8 * lane + 0, 8
 * and 16, and one multiply by 2^16 + 2^9 + 2^2 gathers them to bits
 * 8 * lane + 16 to 18, where no other product of a bit and a term lands,
 * so none carries into them; elsewhere the bytes are read one at a time. */
static unsigned row3(const unsigned char *p, int lane)
{
    uint32_t four;
    if (!little_endian())
        return (p[lane] & FG) | (p[lane + 1] & FG) << 1 | (p[lane + 2] & FG) << 2;
    memcpy(&four, p, 4);
    four &= UINT32_C(0x010101) << 8 * lane;
    return four * UINT32_C(0x010204) >> (8 * lane + 16) & 7;
}

/* buf is the padded rows x cols pattern; tables holds the two
 * sub-iterations' 256-entry deletability tables, indexed by the code of
 * P2..P9 (bit i is P(i+2)). Returns the number of iterations, the last one
 * deleting nothing, or -1 where the lists find no memory; buf holds the
 * skeleton, again as 0 or 1.
 *
 * Neither rule deletes a pixel whose edge neighbours P2, P4, P6 and P8 are
 * all foreground: ZS needs AP = 1, which leaves one background corner and
 * BP = 7, and GH needs CP = 1, which needs a background edge neighbour. So
 * the contour list holds every foreground pixel with a background edge
 * neighbour, and maybe more. It is seeded eight cells at a time: a word of
 * cells with no such pixel (its own cells AND NOT the AND of the four
 * neighbouring words, tested only for zero) lists none, and only the other
 * words and the last few cells are tested one cell at a time.
 *
 * A sub-iteration codes each listed pixel from three 4-byte loads (row3),
 * so every code sees the frozen image: the row above and the pixel's own
 * row from column -1, the row below from column -2, which keeps every load
 * inside the buffer, even at the first and the last interior cell. The
 * nine bits, row-major (bit 3 * row + column, the row above first), index
 * one of two 512-entry tables that each call builds from the 256-entry
 * ones, ignoring the centre bit. Without a branch on the table's answer, it
 * keeps the pixel in place in the list or appends it to the marked list.
 * Then it deletes each marked pixel and appends its foreground edge
 * neighbours not yet listed, which the LISTED bit keeps from being listed
 * twice, after the kept entries: a pixel gains a background edge neighbour
 * only where one is deleted. The contour list holds distinct foreground
 * pixels and the marked list some of them, so one malloc of one flat index
 * per pattern cell for each, and one more (a pattern may have none), holds
 * both. */
ptrdiff_t slicethin_sweep(unsigned char *buf, ptrdiff_t rows, ptrdiff_t cols,
                          const unsigned char *tables)
{
    const ptrdiff_t edge[4] = {-cols, 1, cols, -1}; /* P2, P4, P6, P8 */
    ptrdiff_t cells = (rows - 2) * (cols - 2), end = (rows - 1) * cols - 1;
    ptrdiff_t n = 0, iterations = 0, r;
    int changed = 1, k;
    unsigned char windows[1024]; /* the two tables by the 3x3 window */
    ptrdiff_t *list = malloc((size_t)(2 * cells + 1) * sizeof *list), *marked;
    if (!list)
        return -1;
    marked = list + cells;
    for (unsigned x = 0; x < 1024; x++) {
        /* Window bits 1, 2, 5, 8, 7, 6, 3 and 0 are P2..P9; bit 9 picks the table. */
        unsigned code = (x >> 1 & 0x23) | (x >> 3 & 0x14) | (x >> 5 & 0x08) |
                        (x << 3 & 0x40) | (x << 7 & 0x80);
        windows[x] = tables[256 * (x >> 9) + code];
    }
    /* Only interior cells can be foreground, so their neighbours are in bounds. */
    for (ptrdiff_t i = cols + 1, stop; i < end; i = stop) {
        const unsigned char *u = buf + i - cols, *v = buf + i, *w = buf + i + cols;
        stop = end - i < 8 ? end : i + 8;
        if (stop - i == 8 && !(word(v) & ~(word(u) & word(v - 1) & word(v + 1) & word(w))))
            continue;
        for (; i < stop; i++, u++, v++, w++)
            if (*v && !(u[0] & v[-1] & v[1] & w[0])) {
                buf[i] = FG | LISTED;
                list[n++] = i;
            }
    }
    while (changed) {
        iterations++;
        changed = 0;
        for (const unsigned char *table = windows; table < windows + 1024; table += 512) {
            ptrdiff_t kept = 0, m = 0;
            for (r = 0; r < n; r++) {
                const unsigned char *v = buf + list[r];
                ptrdiff_t t = table[row3(v - cols - 1, 0) | row3(v - 1, 0) << 3 |
                                    row3(v + cols - 2, 1) << 6];
                marked[m] = list[r];
                m += t;
                list[kept] = list[r];
                kept += !t;
            }
            if (!m)
                continue;
            changed = 1;
            for (r = 0; r < m; r++)
                for (buf[marked[r]] = 0, k = 0; k < 4; k++)
                    if (buf[marked[r] + edge[k]] == FG) {
                        buf[marked[r] + edge[k]] = FG | LISTED;
                        list[kept++] = marked[r] + edge[k];
                    }
            n = kept;
        }
    }
    for (r = 0; r < n; r++)
        buf[list[r]] = FG;
    free(list);
    return iterations;
}

/* The cell just past the run through p, which memchr finds before limit,
 * as the padding ends every run; no call where p ends its run, as in a run
 * of one cell, common in a skeleton or a sparse pattern. */
static unsigned char *run_end(unsigned char *p, const unsigned char *limit)
{
    return p[1] ? memchr(p + 2, 0, (size_t)(limit - p - 2)) : p + 1;
}

/* The first unvisited foreground cell in [p, stop), or NULL: byte by byte
 * in a window of a few cells, for which a call to memchr costs more. */
static unsigned char *unvisited(unsigned char *p, const unsigned char *stop)
{
    if (stop - p > 8)
        return memchr(p, 1, (size_t)(stop - p));
    for (; p < stop; p++)
        if (*p == 1)
            return p;
    return NULL;
}

/* The run through the unvisited foreground cell at p: marks it visited (2)
 * and returns its start; *end gets the cell just past it. */
static unsigned char *visit(unsigned char *p, const unsigned char *limit, unsigned char **end)
{
    unsigned char *start = p;
    while (start[-1])
        start--;
    *end = run_end(p, limit);
    memset(start, 2, (size_t)(*end - start));
    return start;
}

/* shape is the padded shape. Returns the number of (3^k - 1)-connected
 * foreground components, or -1 where the stack finds no memory; buf is left
 * with 2 on every foreground cell.
 *
 * A fill starts at each unvisited foreground cell, in index order: memchr
 * finds the next 1, as visited cells are 2. A run is marked visited, by one
 * memset, when it is pushed, so it is pushed once. Cells l - 1 .. r + 1 of
 * each of the 3^(k-1) - 1 neighbouring lines hold every cell adjacent to
 * the run [l, r] there, so popping it pushes the unvisited runs among them,
 * which memchr finds where the window is longer than 8 cells, each search
 * starting again past the run it found. memchr also finds the end of each
 * run. The stack, malloced and freed here, holds one run start per entry;
 * the padding ends every run, so size / 2 + 1 entries bound the runs. */
ptrdiff_t slicethin_components(unsigned char *buf, int ndim, const ptrdiff_t *shape)
{
    ptrdiff_t strides[MAX_DIMS], lines[MAX_PLANE], size = 1, n, count = 0, top;
    unsigned char **stack, *limit, *end;
    int d;
    if (ndim > MAX_DIMS) /* the arrays above are sized for MAX_DIMS */
        return -1;
    for (d = ndim - 1; d >= 0; d--) {
        strides[d] = size;
        size *= shape[d];
    }
    /* The plane loop of the nd sub-cycle over the line axes, kept apart:
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
    stack = malloc((size_t)(size / 2 + 1) * sizeof *stack);
    if (!stack)
        return -1;
    limit = buf + size;
    for (unsigned char *p = buf; (p = memchr(p, 1, (size_t)(limit - p))) != NULL; p = end) {
        count++;
        top = 0;
        stack[top++] = visit(p, limit, &end);
        while (top) {
            unsigned char *l = stack[--top], *r = run_end(l, limit);
            for (ptrdiff_t j = 0; j < n; j++) {
                unsigned char *q = l - 1 + lines[j], *stop = r + 1 + lines[j], *past;
                while ((q = unvisited(q, stop)) != NULL) {
                    stack[top++] = visit(q, limit, &past);
                    q = past;
                }
            }
        }
    }
    free(stack);
    return count;
}

/* Lane by lane, 1 where a skeleton cell c is the corner of an
 * all-foreground 2x2 window of the skeleton, whose top-left corner is the
 * cell or its neighbour to the west, north or north-west: from c and its
 * eight neighbours, row by row, each 0 or 1 in every lane. */
static uint64_t covered(uint64_t nw, uint64_t n, uint64_t ne, uint64_t w, uint64_t c,
                        uint64_t e, uint64_t sw, uint64_t s, uint64_t se)
{
    return c & ((nw & n & w) | (n & ne & e) | (w & sw & s) | (e & s & se));
}

/* Adds up the byte lanes of each of the four words into counts, and clears them. */
static void add_lanes(uint64_t *lanes, ptrdiff_t *counts)
{
    const uint64_t bytes = UINT64_C(0x00FF00FF00FF00FF);
    for (int j = 0; j < 4; j++) {
        uint64_t pairs = (lanes[j] & bytes) + (lanes[j] >> 8 & bytes);
        counts[j] += (ptrdiff_t)(pairs * UINT64_C(0x0001000100010001) >> 48);
        lanes[j] = 0;
    }
}

/* input and skeleton are padded buffers of one shape. Fills counts with the
 * input's area, the skeleton's area, the skeleton cells outside the input
 * and, in 2D, the covered skeleton cells (0 for k > 2); returns 0. No
 * branch depends on one cell: the counts are taken eight cells at a time,
 * as the byte lanes of a word, each lane added up before it could pass 255,
 * and then the last few cells one at a time. Only a skeleton word with a
 * foreground cell reads the eight words around it for the cover test. The
 * first and the last cols + 1 cells are padding, so every neighbour read is
 * in bounds. */
ptrdiff_t slicethin_counts(const unsigned char *input, const unsigned char *skeleton, int ndim,
                           const ptrdiff_t *shape, ptrdiff_t *counts)
{
    ptrdiff_t size = 1, cols = shape[ndim - 1], i = cols + 1, end;
    uint64_t lanes[4] = {0, 0, 0, 0};
    int d;
    for (d = 0; d < ndim; d++)
        size *= shape[d];
    end = size - cols - 1;
    for (d = 0; d < 4; d++)
        counts[d] = 0;
    while (i + 8 <= end) {
        for (int words = 0; words < 255 && i + 8 <= end; words++, i += 8) {
            const unsigned char *p = skeleton + i;
            uint64_t in = word(input + i), sk = word(p);
            lanes[0] += in;
            lanes[1] += sk;
            lanes[2] += sk & ~in;
            if (ndim == 2 && sk) /* a word of background covers nothing */
                lanes[3] += covered(word(p - cols - 1), word(p - cols), word(p - cols + 1),
                                    word(p - 1), sk, word(p + 1),
                                    word(p + cols - 1), word(p + cols), word(p + cols + 1));
        }
        add_lanes(lanes, counts);
    }
    for (; i < end; i++) {
        const unsigned char *p = skeleton + i;
        counts[0] += input[i];
        counts[1] += p[0];
        counts[2] += p[0] & !input[i];
        if (ndim == 2)
            counts[3] += (ptrdiff_t)covered(p[-cols - 1], p[-cols], p[-cols + 1], p[-1], p[0],
                                            p[1], p[cols - 1], p[cols], p[cols + 1]);
    }
    return 0;
}

/* "0 0 0 0 " as a little-endian word: four cells in the writers' layout. */
#define SPACED UINT64_C(0x2030203020302030)

/* The cells 0/1 at bytes 0, 2, 4 and 6 of x, packed into its low four bytes. */
static uint64_t even_bytes(uint64_t x)
{
    x = (x | x >> 8) & UINT64_C(0x0000FFFF0000FFFF);
    return (x | x >> 16) & UINT64_C(0xFFFFFFFF);
}

/* The index of the lowest nonzero byte of the nonzero word x. */
static ptrdiff_t low_byte(uint64_t x)
{
    ptrdiff_t i = 0;
    for (; !(x & 0xFF); x >>= 8)
        i++;
    return i;
}

/* data[pos .. pos + len) is the payload of a pattern file of total cells;
 * packed is 1 for PBM, whose bits may touch, and 0 for NDBIN, whose bits
 * are one token each. Writes the cells to out, 0 or 1 each, and returns
 * total, or -1 where the payload holds a '#', a byte that is neither a
 * blank (the bytes of bytes.isspace) nor a bit, two touching bits in NDBIN,
 * or other than total bits: formats._payload then decodes it, or locates
 * its fault, as it does where no library loads.
 *
 * Where the payload takes the writers' layout, a bit and a space in turn,
 * a step checks 16 bytes with one XOR and one mask test and stores 8 cells.
 * A step that fails at a byte off the layout, such as the newline that ends
 * a line, keeps the cells of the bit-and-space pairs before that byte:
 * even_bytes mixes each cell only with the space after it or the one before
 * it. The bytes from the failing one on are classed one at a time until the
 * next step. A step, which starts at a bit, is entered only where the byte
 * before it is no bit: in NDBIN the two would touch, and in PBM a step that
 * failed would otherwise be tried again at every byte. A step reads only
 * bytes before pos + len, and stores only below out + total. */
ptrdiff_t slicethin_decode(const char *data, ptrdiff_t pos, ptrdiff_t len, unsigned char *out,
                           ptrdiff_t total, int packed)
{
    const unsigned char *p = (const unsigned char *)data + pos, *end = p + len;
    ptrdiff_t n = 0;
    int bit = 0; /* whether the byte before p is a bit */
    for (;;) {
        if (!bit)
            for (; end - p >= 16 && total - n >= 8 && little_endian(); p += 16, n += 8) {
                uint64_t a = word(p) ^ SPACED, b = word(p + 8) ^ SPACED;
                uint64_t cells = even_bytes(a) | even_bytes(b) << 32;
                const uint64_t off = UINT64_C(0xFFFEFFFEFFFEFFFE); /* a byte off the layout */
                memcpy(out + n, &cells, 8);
                if ((a | b) & off) { /* keep the pairs before the first such byte */
                    ptrdiff_t good = a & off ? low_byte(a & off) : 8 + low_byte(b & off);
                    p += good / 2 * 2;
                    n += good / 2;
                    break;
                }
            }
        if (p == end)
            return n == total ? total : -1;
        if (*p == ' ' || (unsigned char)(*p - '\t') < 5) { /* \t \n \v \f \r */
            bit = 0;
        } else if ((*p == '0' || *p == '1') && n < total && (packed || !bit)) {
            out[n++] = (unsigned char)(*p - '0');
            bit = 1;
        } else {
            return -1;
        }
        p++;
    }
}

/* Four cells in the writers' layout, by the cells as the bits of a nibble,
 * the first lowest. */
static const char quads[16][9] = {
    "0 0 0 0 ", "1 0 0 0 ", "0 1 0 0 ", "1 1 0 0 ", "0 0 1 0 ", "1 0 1 0 ", "0 1 1 0 ", "1 1 1 0 ",
    "0 0 0 1 ", "1 0 0 1 ", "0 1 0 1 ", "1 1 0 1 ", "0 0 1 1 ", "1 0 1 1 ", "0 1 1 1 ", "1 1 1 1 "};

/* Writes the cells of buf in C order as the writers' payload to out: each
 * cell as '0' or '1' and a space, except that a newline ends each line
 * along the last axis. buf has ndim axes of the sizes in shape; pad is 1
 * where it is padded, and only its interior is written, and 0 where it is
 * the cells of an array. Four cells go out in one 8-byte store from quads:
 * one multiply gathers the four cell bytes of a little-endian word, at bits
 * 0, 8, 16 and 24, to bits 24 to 27, and every other product of a bit and
 * a term lands apart, so none carries into them. Returns the number of
 * bytes written, 2 a cell. */
ptrdiff_t slicethin_encode(unsigned char *out, const unsigned char *buf, int ndim,
                           const ptrdiff_t *shape, int pad)
{
    ptrdiff_t strides[MAX_DIMS], coord[MAX_DIMS], size = 1, width = shape[ndim - 1] - 2 * pad;
    unsigned char *o = out;
    int d;
    if (ndim > MAX_DIMS) /* the arrays above are sized for MAX_DIMS */
        return -1;
    for (d = ndim - 1; d >= 0; d--) {
        strides[d] = size;
        size *= shape[d];
        coord[d] = pad;
    }
    for (;;) { /* one line along the last axis */
        const unsigned char *line = buf + pad;
        ptrdiff_t j = 0;
        for (d = 0; d < ndim - 1; d++)
            line += coord[d] * strides[d];
        for (; j + 4 <= width && little_endian(); j += 4, o += 8) {
            uint32_t four;
            memcpy(&four, line + j, 4);
            memcpy(o, quads[(uint32_t)(four * UINT32_C(0x01020408)) >> 24], 8);
        }
        for (; j < width; j++, o += 2) {
            o[0] = (unsigned char)('0' + line[j]);
            o[1] = ' ';
        }
        o[-1] = '\n';
        for (d = ndim - 2; d >= 0; d--) {
            if (++coord[d] < shape[d] - pad)
                break;
            coord[d] = pad;
        }
        if (d < 0)
            return o - out;
    }
}
