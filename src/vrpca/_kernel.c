/* The library's two compiled loops. vrpca._native alone builds, loads and
 * calls them; its _ABI table must match the prototypes below (a test
 * parses them). vrpca_steps_k1 runs solvers._steps_k1; vrpca_balance_rows
 * runs oracle._balance_rows and sums no dot product itself: it calls the
 * BLAS ddot numpy's x @ y calls, through a pointer the caller passes.
 *
 * Built with -O3 -ffp-contract=off and without -ffast-math or -march, so the
 * compiler neither fuses nor reorders floating-point operations: it
 * vectorizes only the elementwise loops and dot's four fixed accumulators,
 * every sum below runs in the order written, and repeat runs are bitwise
 * identical whatever the build machine. Neither loop starts a thread. */
#include <math.h>
#include <stdint.h>

/* how many steps ahead the next columns and anchor projections are
 * prefetched: one step of lead hides too little of a column's load */
#define PREFETCH_AHEAD 4

/* Dot product with four accumulators in a fixed order: the sum does not
 * wait on one long dependency chain, and its order depends on d alone. */
static double dot(const double *a, const double *b, int64_t d)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    int64_t k = 0;
    for (; k + 4 <= d; k += 4) {
        s0 += a[k] * b[k];
        s1 += a[k + 1] * b[k + 1];
        s2 += a[k + 2] * b[k + 2];
        s3 += a[k + 3] * b[k + 3];
    }
    for (; k < d; k++)
        s0 += a[k] * b[k];
    return (s0 + s1) + (s2 + s3);
}

/* w <- (w + c x) + s eu, returning the new w^T w summed in dot's order. */
static double update(double *w, const double *x, const double *eu, double c,
                     double s, int64_t d)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    int64_t k = 0;
    for (; k + 4 <= d; k += 4) {
        double w0 = (w[k] + c * x[k]) + s * eu[k];
        double w1 = (w[k + 1] + c * x[k + 1]) + s * eu[k + 1];
        double w2 = (w[k + 2] + c * x[k + 2]) + s * eu[k + 2];
        double w3 = (w[k + 3] + c * x[k + 3]) + s * eu[k + 3];
        w[k] = w0;
        w[k + 1] = w1;
        w[k + 2] = w2;
        w[k + 3] = w3;
        s0 += w0 * w0;
        s1 += w1 * w1;
        s2 += w2 * w2;
        s3 += w3 * w3;
    }
    for (; k < d; k++) {
        double wk = (w[k] + c * x[k]) + s * eu[k];
        w[k] = wk;
        s0 += wk * wk;
    }
    return (s0 + s1) + (s2 + s3);
}

static void prefetch(const double *p, int64_t len)
{
#if defined(__GNUC__)
    for (int64_t k = 0; k < len; k += 8) /* one 64-byte line per 8 doubles */
        __builtin_prefetch(p + k);
#else
    (void)p;
    (void)len;
#endif
}

/* solvers._steps_k1 on its operands, x being its xd: etas, anchor or basis
 * NULL for none (etas NULL: every step takes eta), j the columns of basis
 * and btx, buf d doubles of scratch for the projected column. */
int64_t vrpca_steps_k1(const double *x, int64_t d, const int64_t *idx,
                       int64_t m, const double *a, const double *eu,
                       double eta, const double *etas, const double *anchor,
                       const double *basis, const double *btx, int64_t j,
                       double *w, double *buf, double norm_floor)
{
    for (int64_t t = 0; t < m; t++) {
        int64_t i = idx[t];
        const double *xi = x + i * d;
        if (t + PREFETCH_AHEAD < m) {
            prefetch(x + idx[t + PREFETCH_AHEAD] * d, d);
            prefetch(a + idx[t + PREFETCH_AHEAD], 1);
        }
        if (basis) {
            const double *bi = btx + i * j;
            for (int64_t k = 0; k < d; k++) {
                double p = 0.0;
                for (int64_t l = 0; l < j; l++)
                    p += basis[k * j + l] * bi[l];
                buf[k] = xi[k] - p;
            }
            xi = buf;
        }
        double s = (anchor == 0 || dot(w, anchor, d) >= 0.0) ? 1.0 : -1.0;
        double c = (etas ? etas[t] : eta) * (dot(xi, w, d) - s * a[i]);
        double nrm2 = update(w, xi, eu, c, s, d);
        if (nrm2 < norm_floor * norm_floor)
            return t + 1;
        double nrm = sqrt(nrm2);
        for (int64_t k = 0; k < d; k++)
            w[k] /= nrm;
    }
    return 0;
}

/* cblas ddot, n typed as the BLAS build's integer: 64 bits in ILP64 builds
 * (whose symbols end in 64_), else 32 */
typedef double (*ddot64_fn)(int64_t, const double *, int64_t, const double *,
                            int64_t);
typedef double (*ddot32_fn)(int32_t, const double *, int32_t, const double *,
                            int32_t);

static double blas_dot(const void *ddot, int64_t ilp64, const double *a,
                       const double *b, int64_t d)
{
    if (ilp64)
        return ((ddot64_fn)ddot)(d, a, 1, b, 1);
    return ((ddot32_fn)ddot)((int32_t)d, a, 1, b, 1);
}

/* The row numpy's argmin (sign -1) or argmax (sign +1) would pick of rows a
 * and b of v: the better value, a NaN before any number, the lower index on
 * ties. -1 marks a padding leaf, which never wins. */
static int64_t pick(const double *v, int64_t a, int64_t b, double sign)
{
    if (a < 0)
        return b;
    if (b < 0)
        return a;
    double x = sign * v[a], y = sign * v[b];
    int xnan = x != x, ynan = y != y;
    if (xnan != ynan)
        return xnan ? a : b;
    if (!xnan && x != y)
        return x > y ? a : b;
    return a < b ? a : b;
}

/* Replay the matches on the path from row i's leaf to the root. */
static void replay(int64_t *tree, int64_t leaves, const double *v, int64_t i,
                   double sign)
{
    for (int64_t k = (leaves + i) / 2; k >= 1; k /= 2)
        tree[k] = pick(v, tree[2 * k], tree[2 * k + 1], sign);
}

static void build(int64_t *tree, int64_t leaves, const double *v, int64_t n,
                  double sign)
{
    for (int64_t k = 0; k < leaves; k++)
        tree[leaves + k] = k < n ? k : -1;
    for (int64_t k = leaves - 1; k >= 1; k--)
        tree[k] = pick(v, tree[2 * k], tree[2 * k + 1], sign);
}

/* oracle._balance_rows on its operands, b being n x d. ddot is numpy's
 * BLAS ddot, ilp64 nonzero when its n is 64 bits wide. bi and bj are d
 * doubles of scratch, tree 4 * leaves int64 (leaves: the least power of two
 * >= n) for the argmin and argmax tournament trees. */
void vrpca_balance_rows(double *b, int64_t n, int64_t d, double *norms,
                        double tau, double tol, const void *ddot,
                        int64_t ilp64, double *bi, double *bj, int64_t *tree,
                        int64_t leaves)
{
    int64_t *lo_tree = tree, *hi_tree = tree + 2 * leaves;
    build(lo_tree, leaves, norms, n, -1.0);
    build(hi_tree, leaves, norms, n, 1.0);
    for (int64_t rot = 0; rot < n; rot++) {
        int64_t i = lo_tree[1], j = hi_tree[1];
        double lo = norms[i], hi = norms[j];
        if (hi - lo <= tol)
            return;
        double *row_i = b + i * d, *row_j = b + j * d;
        double cross = blas_dot(ddot, ilp64, row_i, row_j, d);
        double disc = cross * cross - (lo - tau) * (hi - tau);
        double root = sqrt(disc < 0.0 ? 0.0 : disc); /* max(disc, 0.0) */
        /* the larger-magnitude root, for numerical stability */
        double t1 = (cross + root) / (hi - tau);
        double t2 = (cross - root) / (hi - tau);
        double t = fabs(t1) >= fabs(t2) ? t1 : t2;
        double c = 1.0 / sqrt(1.0 + t * t);
        double s = t * c;
        for (int64_t k = 0; k < d; k++) {
            bi[k] = row_i[k] * c - row_j[k] * s;
            bj[k] = row_i[k] * s + row_j[k] * c;
        }
        for (int64_t k = 0; k < d; k++)
            row_i[k] = bi[k];
        for (int64_t k = 0; k < d; k++)
            row_j[k] = bj[k];
        norms[i] = blas_dot(ddot, ilp64, bi, bi, d);
        norms[j] = blas_dot(ddot, ilp64, bj, bj, d);
        replay(lo_tree, leaves, norms, i, -1.0);
        replay(lo_tree, leaves, norms, j, -1.0);
        replay(hi_tree, leaves, norms, i, 1.0);
        replay(hi_tree, leaves, norms, j, 1.0);
    }
}
