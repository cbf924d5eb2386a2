/* The C loops of wavecontrol, each beside its numpy twin in _leapfrog.py:
 * march_1d and march_2d step levels 2..nt of the leapfrog march (twins
 * _march_1d and _march_2d), and segment_point, segment_value and
 * segment_cubic form the line search's E(lam) (twins: Segment's point,
 * value and cube).  _leapfrog.py checks each array before a loop reads it.
 *
 * Every loop evaluates its expression in the order that its twin writes
 * it, one IEEE operation per step; built with -ffp-contract=off and
 * without -ffast-math, so no multiply-add is fused and no sum is
 * reassociated, and each loop writes its twin's bits.
 *
 * March: y is the C-contiguous trajectory, (nt+1) levels of n nodes
 * (2D: n = nx*ny, C order) with level 0 and 1 already written and zeros on
 * the boundary.  a and s are the potential and the source (NULL when
 * absent), unscaled: level n starts at a + n*a_stride (the stride may be
 * negative, for a field in reversed time) and holds its n nodes
 * contiguously, in the order of y's, so both are read at y's node index.
 * w is a spatial weight of the source, n contiguous nodes read at the same
 * index (NULL for none): the step adds (s w) dt2, the two products of a
 * source s w formed beforehand, so the Gramian's forward march reads
 * chi phi from the backward trajectory in place.  Both only step: they
 * write every level through nt, and solver._march looks for a nonfinite
 * level once they return.
 */
#include <stddef.h>

/* ((((k0 y + c yR) + c yL) - y_prev) - (dt2 A) y) + dt2 (S W) */
static void step_1d(double *restrict out, const double *restrict cur,
                    const double *restrict prev, const double *restrict a,
                    const double *restrict s, const double *restrict w,
                    ptrdiff_t nx, double c, double k0, double dt2)
{
    for (ptrdiff_t i = 1; i < nx - 1; i++) {
        double v = k0 * cur[i] + c * cur[i + 1] + c * cur[i - 1] - prev[i];
        if (a)
            v = v - a[i] * dt2 * cur[i];
        if (s)
            v = v + (w ? s[i] * w[i] : s[i]) * dt2;
        out[i] = v;
    }
}

void march_1d(double *y, ptrdiff_t nt, ptrdiff_t nx, double c, double k0,
              double dt2, const double *a, ptrdiff_t a_stride,
              const double *s, ptrdiff_t s_stride, const double *w)
{
    for (ptrdiff_t n = 1; n < nt; n++)
        step_1d(y + (n + 1) * nx, y + n * nx, y + (n - 1) * nx,
                a ? a + n * a_stride : NULL, s ? s + n * s_stride : NULL, w, nx, c,
                k0, dt2);
}

/* ((((k0 y - y_prev) + cx (xp + xm)) + cy (yp + ym)) - (dt2 A) y) + dt2 (S W)
 * on the interior of one level. */
static inline void step_2d(double *restrict out, const double *restrict cur,
                           const double *restrict prev, const double *restrict a,
                           const double *restrict s, const double *restrict w,
                           ptrdiff_t nx, ptrdiff_t ny, double cx, double cy,
                           double k0, double dt2)
{
    for (ptrdiff_t i = 1; i < nx - 1; i++) {
        ptrdiff_t row = i * ny;
        out[row] = 0.0;
        out[row + ny - 1] = 0.0;
        for (ptrdiff_t k = row + 1; k < row + ny - 1; k++) {
            double v = k0 * cur[k] - prev[k];
            v = v + cx * (cur[k + ny] + cur[k - ny]);
            v = v + cy * (cur[k + 1] + cur[k - 1]);
            if (a)
                v = v - a[k] * dt2 * cur[k];
            if (s)
                v = v + (w ? s[k] * w[k] : s[k]) * dt2;
            out[k] = v;
        }
    }
}

void march_2d(double *y, ptrdiff_t nt, ptrdiff_t nx, ptrdiff_t ny,
              double cx, double cy, double k0, double dt2,
              const double *a, ptrdiff_t a_stride,
              const double *s, ptrdiff_t s_stride, const double *w)
{
    ptrdiff_t n_level = nx * ny;
    for (ptrdiff_t n = 1; n < nt; n++) {
        double *out = y + (n + 1) * n_level, *cur = y + n * n_level, *prev = y + (n - 1) * n_level;
        const double *an = a ? a + n * a_stride : NULL, *sn = s ? s + n * s_stride : NULL;
        /* w is tested here and a NULL one passed as a constant, so the inner
         * loop of each inlined step tests only a and s: GCC 12 unswitches and
         * vectorizes that loop, and left it scalar when it also tested w */
        if (w)
            step_2d(out, cur, prev, an, sn, w, nx, ny, cx, cy, k0, dt2);
        else
            step_2d(out, cur, prev, an, sn, NULL, nx, ny, cx, cy, k0, dt2);
    }
}


/* Line search.  A field is read as the march reads a, through the address
 * of its level 0 and its level stride; E(lam) reads the interior nodes of
 * levels 1..nt-1, and in each level `rows` runs of `cols` nodes, the first
 * at node `first` and the next `row_stride` nodes on (1D: one run, nodes
 * 1..nx-2; 2D: rows 1..nx-2, columns 1..ny-2).  The buffers work, val and
 * the g terms hold those nodes contiguously, in that order.  Overflow
 * reads inf, as IEEE arithmetic gives it, and raises nothing. */

/* work = y - Y lam, the point of the segment that g is evaluated at */
void segment_point(double *restrict work, ptrdiff_t nt, ptrdiff_t first,
                   ptrdiff_t rows, ptrdiff_t row_stride, ptrdiff_t cols,
                   double lam, const double *restrict y, ptrdiff_t y_stride,
                   const double *restrict Y, ptrdiff_t Y_stride)
{
    for (ptrdiff_t n = 1; n < nt; n++) {
        const double *yn = y + n * y_stride + first, *Yn = Y + n * Y_stride + first;
        for (ptrdiff_t i = 0; i < rows; i++, work += cols)
            for (ptrdiff_t j = 0; j < cols; j++)
                work[j] = yn[i * row_stride + j] - Yn[i * row_stride + j] * lam;
    }
}

/* val = ((1 - lam) r + ((g(work) - g(y)) + lam g'(y) Y))^2, with gw = g(work),
 * gy = g(y) and gpY = g'(y) Y */
void segment_value(double *restrict val, ptrdiff_t nt, ptrdiff_t first,
                   ptrdiff_t rows, ptrdiff_t row_stride, ptrdiff_t cols,
                   double lam, const double *restrict r, ptrdiff_t r_stride,
                   const double *restrict gw, const double *restrict gy,
                   const double *restrict gpY)
{
    double keep = 1.0 - lam;
    ptrdiff_t k = 0;
    for (ptrdiff_t n = 1; n < nt; n++) {
        const double *rn = r + n * r_stride + first;
        for (ptrdiff_t i = 0; i < rows; i++, k += cols)
            for (ptrdiff_t j = 0; j < cols; j++) {
                double v = rn[i * row_stride + j] * keep
                           + ((gw[k + j] - gy[k + j]) + gpY[k + j] * lam);
                val[k + j] = v * v;
            }
    }
}

/* val as segment_value writes it, with gw = (w w) w formed here from
 * w = y - Y lam: numpy's r * r * r, the g of cubic_sat wherever |w| <= R.
 * The caller calls it only where every node's |w| is within R. */
void segment_cubic(double *restrict val, ptrdiff_t nt, ptrdiff_t first,
                   ptrdiff_t rows, ptrdiff_t row_stride, ptrdiff_t cols,
                   double lam, const double *restrict y, ptrdiff_t y_stride,
                   const double *restrict Y, ptrdiff_t Y_stride,
                   const double *restrict r, ptrdiff_t r_stride,
                   const double *restrict gy, const double *restrict gpY)
{
    double keep = 1.0 - lam;
    ptrdiff_t k = 0;
    for (ptrdiff_t n = 1; n < nt; n++) {
        const double *yn = y + n * y_stride + first, *Yn = Y + n * Y_stride + first,
                     *rn = r + n * r_stride + first;
        for (ptrdiff_t i = 0; i < rows; i++, k += cols)
            for (ptrdiff_t j = 0; j < cols; j++) {
                ptrdiff_t at = i * row_stride + j;
                double w = yn[at] - Yn[at] * lam;
                double gw = w * w * w;
                double v = rn[at] * keep + ((gw - gy[k + j]) + gpY[k + j] * lam);
                val[k + j] = v * v;
            }
    }
}
