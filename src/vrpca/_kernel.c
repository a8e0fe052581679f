/* One segment of k=1 VR-PCA steps; see solvers._steps_k1 for the contract
 * and solvers._steps_k1_numpy for the reference it must match to 1e-12.
 *
 * Built with -O3 -ffp-contract=off and without -ffast-math or -march, so the
 * compiler neither fuses nor reorders floating-point operations: it
 * vectorizes only the elementwise loops and dot's four fixed accumulators,
 * every sum below runs in the order written, and repeat runs are bitwise
 * identical whatever the build machine. */
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

/* x: F-ordered d x n data; idx: m column indices; a: the n anchor
 * projections x_i^T w~; eu: eta * u.  anchor (or NULL): w~, whose overlap
 * sign s with w flips a_i and eu.  basis (or NULL): C-ordered d x j
 * deflation basis B, with btx the C-ordered n x j rows B^T x_i; buf holds
 * the projected column.  Returns 0, or the 1-based step whose candidate
 * norm fell below norm_floor; w then holds that unnormalized candidate. */
int64_t vrpca_steps_k1(const double *x, int64_t d, const int64_t *idx,
                       int64_t m, const double *a, const double *eu,
                       double eta, const double *anchor, const double *basis,
                       const double *btx, int64_t j, double *w, double *buf,
                       double norm_floor)
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
        double c = eta * (dot(xi, w, d) - s * a[i]);
        double nrm2 = update(w, xi, eu, c, s, d);
        if (nrm2 < norm_floor * norm_floor)
            return t + 1;
        double nrm = sqrt(nrm2);
        for (int64_t k = 0; k < d; k++)
            w[k] /= nrm;
    }
    return 0;
}
