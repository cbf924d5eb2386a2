/* Leapfrog step loops of wavecontrol.solver._march, levels 2..nt.
 *
 * Each node's update is evaluated in the order that solver._march_1d and
 * solver._march_2d write it, one IEEE operation per step; built with
 * -ffp-contract=off and without -ffast-math, so no multiply-add is fused
 * and no sum is reassociated, and the trajectory equals the numpy march
 * bit for bit.  y is the C-contiguous trajectory, (nt+1) levels of n nodes
 * (2D: n = nx*ny, C order) with level 0 and 1 already written and zeros on
 * the boundary.  a and s are the potential and the source (NULL when
 * absent), unscaled: level n starts at a + n*a_stride (the stride may be
 * negative, for a field in reversed time) and holds its n nodes
 * contiguously, in the order of y's, so both are read at y's node index.
 * Both loops return the first level that holds a nonfinite value, 0 when
 * there is none; the march stops at the check that finds it, as the numpy
 * march does.
 */
#include <math.h>
#include <stddef.h>

#define CHECK_STRIDE 32   /* solver._CHECK_STRIDE */

static int finite_level(const double *v, ptrdiff_t n)
{
    for (ptrdiff_t k = 0; k < n; k++)
        if (!isfinite(v[k]))
            return 0;
    return 1;
}

/* First nonfinite level in [lo, hi]; the caller knows level hi is one. */
static ptrdiff_t first_bad(const double *y, ptrdiff_t n, ptrdiff_t lo, ptrdiff_t hi)
{
    for (ptrdiff_t level = lo; level < hi; level++)
        if (!finite_level(y + level * n, n))
            return level;
    return hi;
}

/* Checks level m (just written) where the numpy march checks it: every
 * CHECK_STRIDE levels and at nt. */
static ptrdiff_t check(const double *y, ptrdiff_t n, ptrdiff_t m, ptrdiff_t nt)
{
    if ((m % CHECK_STRIDE == 0 || m == nt) && !finite_level(y + m * n, n)) {
        ptrdiff_t lo = m + 1 - CHECK_STRIDE;
        return first_bad(y, n, lo > 1 ? lo : 1, m);
    }
    return 0;
}

/* ((((k0 y + c yR) + c yL) - y_prev) - (dt2 A) y) + dt2 S */
static void step_1d(double *restrict out, const double *restrict cur,
                    const double *restrict prev, const double *restrict a,
                    const double *restrict s, ptrdiff_t nx, double c, double k0,
                    double dt2)
{
    for (ptrdiff_t i = 1; i < nx - 1; i++) {
        double v = k0 * cur[i] + c * cur[i + 1] + c * cur[i - 1] - prev[i];
        if (a)
            v = v - a[i] * dt2 * cur[i];
        if (s)
            v = v + s[i] * dt2;
        out[i] = v;
    }
}

ptrdiff_t march_1d(double *y, ptrdiff_t nt, ptrdiff_t nx, double c, double k0,
                   double dt2, const double *a, ptrdiff_t a_stride,
                   const double *s, ptrdiff_t s_stride)
{
    for (ptrdiff_t n = 1; n < nt; n++) {
        step_1d(y + (n + 1) * nx, y + n * nx, y + (n - 1) * nx,
                a ? a + n * a_stride : NULL, s ? s + n * s_stride : NULL, nx, c, k0,
                dt2);
        ptrdiff_t bad = check(y, nx, n + 1, nt);
        if (bad)
            return bad;
    }
    return 0;
}

/* ((((k0 y - y_prev) + cx (xp + xm)) + cy (yp + ym)) - (dt2 A) y) + dt2 S on
 * the interior of one level. */
static void step_2d(double *restrict out, const double *restrict cur,
                    const double *restrict prev, const double *restrict a,
                    const double *restrict s, ptrdiff_t nx, ptrdiff_t ny,
                    double cx, double cy, double k0, double dt2)
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
                v = v + s[k] * dt2;
            out[k] = v;
        }
    }
}

ptrdiff_t march_2d(double *y, ptrdiff_t nt, ptrdiff_t nx, ptrdiff_t ny,
                   double cx, double cy, double k0, double dt2,
                   const double *a, ptrdiff_t a_stride,
                   const double *s, ptrdiff_t s_stride)
{
    ptrdiff_t n_level = nx * ny;
    for (ptrdiff_t n = 1; n < nt; n++) {
        step_2d(y + (n + 1) * n_level, y + n * n_level, y + (n - 1) * n_level,
                a ? a + n * a_stride : NULL, s ? s + n * s_stride : NULL,
                nx, ny, cx, cy, k0, dt2);
        ptrdiff_t bad = check(y, n_level, n + 1, nt);
        if (bad)
            return bad;
    }
    return 0;
}
