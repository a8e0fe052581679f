/* The library's two compiled loops. vrpca._native alone builds, loads and
 * calls them; its _ABI table must match the prototypes below (a test
 * parses them). vrpca_steps_k1 runs solvers._steps_k1 and
 * vrpca_balance_rows oracle._balance_rows; both take every dot product from
 * dot below, whose order _native._sum8 mirrors.
 *
 * Built with -O3 -ffp-contract=off and without -ffast-math or -march, so the
 * compiler neither fuses nor reorders floating-point operations: it
 * vectorizes only the elementwise loops and the eight fixed accumulators
 * of dot and update, every sum below runs in the order written, and repeat
 * runs are bitwise identical whatever the build machine.
 *
 * On x86-64 glibc, vrpca_steps_k1 is built twice, for AVX2 and for the
 * baseline SSE2, and the loader's ifunc picks one copy by the running CPU.
 * The two give the same bits: each of the eight accumulators is one vector
 * lane in either copy, and with contraction off every lane makes the same
 * IEEE operations in the same order. Its helpers are always inlined, so
 * the AVX2 copy runs no SSE code (mixing the two costs a transition
 * penalty on each call). There is no AVX-512 copy: it gained little or
 * nothing over AVX2 on the hosts measured. Neither loop starts a thread. */
#include <math.h>
#include <stdint.h>

/* how many steps ahead the next columns and anchor projections are
 * prefetched: one step of lead hides too little of a column's load */
#define PREFETCH_AHEAD 4

#if defined(__GNUC__)
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

/* the fixed pairing of the eight accumulators that ends dot and update */
#define SUM8(s) \
    (((s[0] + s[4]) + (s[1] + s[5])) + ((s[2] + s[6]) + (s[3] + s[7])))

/* Dot product with eight accumulators in a fixed order: the sum waits on
 * eight short dependency chains instead of one long one, and its order
 * depends on d alone. The remainder past the last multiple of 8 goes into
 * the first accumulator. */
INLINE double dot(const double *a, const double *b, int64_t d)
{
    double s[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    int64_t k = 0;
    for (; k + 8 <= d; k += 8)
        for (int l = 0; l < 8; l++)
            s[l] += a[k + l] * b[k + l];
    for (; k < d; k++)
        s[0] += a[k] * b[k];
    return SUM8(s);
}

/* w <- (w + c x) + s eu, returning the new w^T w summed in dot's order. */
INLINE double update(double *w, const double *x, const double *eu, double c,
                     double s, int64_t d)
{
    double q[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    int64_t k = 0;
    for (; k + 8 <= d; k += 8)
        for (int l = 0; l < 8; l++) {
            double wk = (w[k + l] + c * x[k + l]) + s * eu[k + l];
            w[k + l] = wk;
            q[l] += wk * wk;
        }
    for (; k < d; k++) {
        double wk = (w[k] + c * x[k]) + s * eu[k];
        w[k] = wk;
        q[0] += wk * wk;
    }
    return SUM8(q);
}

INLINE void prefetch(const double *p, int64_t len)
{
#if defined(__GNUC__)
    for (int64_t k = 0; k < len; k += 8) /* one 64-byte line per 8 doubles */
        __builtin_prefetch(p + k);
#else
    (void)p;
    (void)len;
#endif
}

/* target_clones needs an ifunc, which the loader of x86-64 glibc provides */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) \
    && defined(__has_attribute)
#if __has_attribute(target_clones)
#define STEP_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef STEP_CLONES
#define STEP_CLONES
#endif

/* solvers._steps_k1 on its operands, x being its xd: etas, anchor or basis
 * NULL for none (etas NULL: every step takes eta), j the columns of basis
 * and btx, buf d doubles of scratch for the projected column. Each step
 * normalizes by one reciprocal, 1 / sqrt(w^T w), multiplied into w. */
STEP_CLONES
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
        double inv = 1.0 / sqrt(nrm2);
        for (int64_t k = 0; k < d; k++)
            w[k] *= inv;
    }
    return 0;
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

/* oracle._balance_rows on its operands, b being n x d. bi and bj are d
 * doubles of scratch, tree 4 * leaves int64 (leaves: the least power of two
 * >= n) for the argmin and argmax tournament trees. */
void vrpca_balance_rows(double *b, int64_t n, int64_t d, double *norms,
                        double tau, double tol, double *bi, double *bj,
                        int64_t *tree, int64_t leaves)
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
        double cross = dot(row_i, row_j, d);
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
        norms[i] = dot(bi, bi, d);
        norms[j] = dot(bj, bj, d);
        replay(lo_tree, leaves, norms, i, -1.0);
        replay(lo_tree, leaves, norms, j, -1.0);
        replay(hi_tree, leaves, norms, i, 1.0);
        replay(hi_tree, leaves, norms, j, 1.0);
    }
}
