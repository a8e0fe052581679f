/* The library's two compiled loops. vrpca._native alone builds, loads and
 * calls them; its _ABI table must match the prototypes below (a test
 * parses them). vrpca_steps_k1 runs solvers._steps_k1 and
 * vrpca_balance_rows oracle._balance_rows; every sum of products in them
 * runs in the order of dot below, which _native._sum8 mirrors.
 *
 * Built with -O3 -ffp-contract=off and without -ffast-math or -march, so the
 * compiler neither fuses nor reorders floating-point operations: it
 * vectorizes only elementwise loops and the eight fixed accumulators of
 * dot, every sum below runs in the order written, and repeat runs are
 * bitwise identical whatever the build machine.
 *
 * A k=1 step makes one pass over the iterate. The iterate is held
 * unnormalized, as w times a pending scale that the caller keeps between
 * calls, and the pass that updates w also sums the new w^T w, the next
 * column's x^T w and, with an anchor, w^T w~: three independent sums, in
 * place of three passes that each waited on the last.
 *
 * The steps take GCC's vector extensions, which clang has too; with
 * another compiler the build fails and the numpy steps run. On x86-64,
 * vrpca_steps_k1 has three copies: AVX-512 (the eight lanes as one 64-byte
 * vector), AVX2 (two 32-byte vectors) and the baseline SSE2 (four 16-byte
 * vectors). Each call runs the widest copy the CPU has; other targets
 * build the baseline copy alone. All three give the same bits: each of the
 * eight accumulators is one vector lane in every copy, and with
 * contraction off every lane makes the same IEEE operations in the same
 * order. Their helpers are always inlined, so a copy runs no code of a
 * narrower instruction set (mixing SSE and AVX costs a transition penalty
 * on each call). On a 2-vCPU Xeon VM with AVX-512 (GCC 12), a step took
 * a median 44 ns at d = 100 and 105 ns at d = 300 in the AVX-512 copy, 52
 * and 123 ns in the AVX2 copy and 69 and 173 ns in the baseline copy.
 * Neither loop starts a thread. */
#include <math.h>
#include <stdint.h>

/* how many steps ahead the next columns and anchor projections are
 * prefetched: one step of lead hides too little of a column's load */
#define PREFETCH_AHEAD 4

#define INLINE static inline __attribute__((always_inline))

/* the fixed pairing of the eight accumulators that ends every sum */
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

/* The eight lanes of a step's three sums as vectors: one v8 in the
 * AVX-512 copy, two v4 in the AVX2 copy and four v2 in the baseline one.
 * GCC and clang run a vector operation as the same IEEE operation on
 * every lane. A vector type wider than the copy's registers compiles to
 * much slower code (see the README). The types need only 8-byte
 * alignment. */
typedef double v2 __attribute__((vector_size(16), aligned(8), may_alias));
typedef double v4 __attribute__((vector_size(32), aligned(8), may_alias));
typedef double v8 __attribute__((vector_size(64), aligned(8), may_alias));

/* LANES(name, vec) defines name, the part of a step's pass over the first
 * d - d % 8 entries of w with the lanes as G vectors of type vec:
 * w <- (w inv + c x) + s eu, each new entry's square, its product with
 * x_next and, with an anchor, with the anchor summed into lanes q, p, r. */
#define LANES(name, vec)                                                      \
    INLINE void name(double *w, const double *x, const double *eu,          \
                     double inv, double c, double s, const double *xn,       \
                     const double *anchor, double *q, double *p, double *r,  \
                     int64_t d)                                              \
    {                                                                        \
        enum { G = 8 * sizeof(double) / sizeof(vec) };                       \
        vec vq[G] = {{0.0}}, vp[G] = {{0.0}}, vr[G] = {{0.0}};               \
        for (int64_t k = 0; k + 8 <= d; k += 8)                              \
            for (int g = 0; g < G; g++) {                                    \
                int64_t e = k + g * (8 / G);                                 \
                vec wk = (*(vec *)(w + e) * inv + *(vec *)(x + e) * c)       \
                         + *(vec *)(eu + e) * s;                             \
                *(vec *)(w + e) = wk;                                        \
                vq[g] += wk * wk;                                            \
                vp[g] += *(vec *)(xn + e) * wk;                              \
                if (anchor)                                                  \
                    vr[g] += wk * *(vec *)(anchor + e);                      \
            }                                                                \
        for (int g = 0; g < G; g++) {                                        \
            *(vec *)(q + g * (8 / G)) = vq[g];                               \
            *(vec *)(p + g * (8 / G)) = vp[g];                               \
            *(vec *)(r + g * (8 / G)) = vr[g];                               \
        }                                                                    \
    }
LANES(lanes2, v2)
LANES(lanes4, v4)
LANES(lanes8, v8)

/* One step's pass over w: w <- (w inv + c x) + s eu, returning the new
 * w^T w and leaving x_next^T w in *px and, with an anchor, w^T anchor in
 * *pa, each summed in dot's order (products commute bit for bit). The
 * lanes are ``width``-double vectors. */
INLINE double pass(double *w, const double *x, const double *eu, double inv,
                   double c, double s, const double *xn, double *px,
                   const double *anchor, double *pa, int64_t d, int width)
{
    double q[8], p[8], r[8]; /* the lanes of the three sums */
    if (width == 8)
        lanes8(w, x, eu, inv, c, s, xn, anchor, q, p, r, d);
    else if (width == 4)
        lanes4(w, x, eu, inv, c, s, xn, anchor, q, p, r, d);
    else
        lanes2(w, x, eu, inv, c, s, xn, anchor, q, p, r, d);
    for (int64_t k = d & -8; k < d; k++) {
        double wk = (w[k] * inv + x[k] * c) + eu[k] * s;
        w[k] = wk;
        q[0] += wk * wk;
        p[0] += xn[k] * wk;
        if (anchor)
            r[0] += wk * anchor[k];
    }
    *px = SUM8(p);
    if (anchor)
        *pa = SUM8(r);
    return SUM8(q);
}

INLINE void prefetch(const double *p, int64_t len)
{
    for (int64_t k = 0; k < len; k += 8) /* one 64-byte line per 8 doubles */
        __builtin_prefetch(p + k);
}

/* the operands of vrpca_steps_k1, as its copies take them */
#define STEP_PARAMS                                                         \
    const double *x, int64_t d, const int64_t *idx, int64_t m,              \
        const double *a, const double *eu, double eta, const double *etas,  \
        const double *anchor, double *w, double *scale, double norm_floor
#define STEP_ARGS x, d, idx, m, a, eu, eta, etas, anchor, w, scale, norm_floor

/* vrpca_steps_k1 with lanes of ``width`` doubles. */
INLINE int64_t steps(STEP_PARAMS, int width)
{
    if (m == 0)
        return 0;
    double inv = *scale;
    const double *xi = x + idx[0] * d;
    double p = dot(xi, w, d);
    double pa = anchor ? dot(w, anchor, d) : 0.0;
    for (int64_t t = 0; t < m; t++) {
        if (t + PREFETCH_AHEAD < m) {
            prefetch(x + idx[t + PREFETCH_AHEAD] * d, d);
            prefetch(a + idx[t + PREFETCH_AHEAD], 1);
        }
        /* the last step sums against its own column, unread */
        const double *xn = t + 1 < m ? x + idx[t + 1] * d : xi;
        double s = pa >= 0.0 ? 1.0 : -1.0; /* +1 without an anchor */
        double c = (etas ? etas[t] : eta) * (inv * p - s * a[idx[t]]);
        double nrm2 = anchor ? pass(w, xi, eu, inv, c, s, xn, &p, anchor,
                                    &pa, d, width)
                             : pass(w, xi, eu, inv, c, s, xn, &p, 0, 0, d,
                                    width);
        if (nrm2 < norm_floor * norm_floor) {
            *scale = 1.0;
            return t + 1;
        }
        inv = 1.0 / sqrt(nrm2);
        xi = xn;
    }
    *scale = inv;
    return 0;
}

/* The AVX-512 and AVX2 copies of the steps, on x86-64. Each #define line
 * below can be deleted alone, for a build without that copy. */
#if defined(__x86_64__)
#define AVX512_COPY
#define AVX2_COPY
#endif

#ifdef AVX512_COPY
__attribute__((target("avx512f"))) static int64_t avx512_steps(STEP_PARAMS)
{
    return steps(STEP_ARGS, 8);
}
#endif
#ifdef AVX2_COPY
__attribute__((target("avx2"))) static int64_t avx2_steps(STEP_PARAMS)
{
    return steps(STEP_ARGS, 4);
}
#endif

/* solvers._steps_k1 on its operands, x being its xd, whose sampled
 * columns are read in place (a deflation stage passes its projected copy
 * of the data): etas or anchor NULL for none (etas NULL: every step takes
 * eta). The iterate is w times the pending scale *scale, read at entry
 * and written back at exit: a step's reciprocal norm 1 / sqrt(w^T w)
 * becomes the next step's scale, and the step after uses
 * c = eta (inv x^T w - s a_i). The first step's x^T w and w^T anchor come
 * from dot, the same sums a pass before them would have made, so
 * splitting a run into calls moves no bit. A degenerate candidate is left
 * in w with *scale = 1. Runs the widest copy the CPU has. */
int64_t vrpca_steps_k1(const double *x, int64_t d, const int64_t *idx,
                       int64_t m, const double *a, const double *eu,
                       double eta, const double *etas, const double *anchor,
                       double *w, double *scale, double norm_floor)
{
#ifdef AVX512_COPY
    if (__builtin_cpu_supports("avx512f"))
        return avx512_steps(STEP_ARGS);
#endif
#ifdef AVX2_COPY
    if (__builtin_cpu_supports("avx2"))
        return avx2_steps(STEP_ARGS);
#endif
    return steps(STEP_ARGS, 2);
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

/* oracle._balance_rows on its operands, b being n x d, each rotation in
 * place on its two rows. tree is 4 * leaves int64 (leaves: the least power
 * of two >= n) for the argmin and argmax tournament trees. */
void vrpca_balance_rows(double *b, int64_t n, int64_t d, double *norms,
                        double tau, double tol, int64_t *tree, int64_t leaves)
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
            double xi = row_i[k], xj = row_j[k];
            row_i[k] = xi * c - xj * s;
            row_j[k] = xi * s + xj * c;
        }
        norms[i] = dot(row_i, row_i, d);
        norms[j] = dot(row_j, row_j, d);
        replay(lo_tree, leaves, norms, i, -1.0);
        replay(lo_tree, leaves, norms, j, -1.0);
        replay(hi_tree, leaves, norms, i, 1.0);
        replay(hi_tree, leaves, norms, j, 1.0);
    }
}
