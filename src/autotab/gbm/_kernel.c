/* Histogram and split-scan kernel of the two tree growers in trees.py.
 *
 * Every loop repeats the float order of the numpy kernel it replaces, so
 * trees are bit-identical to it:
 *   - bin sums are added in row order (np.bincount);
 *   - prefix sums run sequentially over bins 0..254 (np.cumsum);
 *   - gain = 0.5 * ((gl^2/(hl+reg) + gr^2/(hr+reg)) - gt^2/(ht+reg));
 *   - a cell with fewer than min_data rows on either side is -inf, and an
 *     argmax takes the first maximum, a NaN counting as the maximum;
 *   - oblivious totals add max(gain, 0) (0 where the gain is not finite)
 *     over nodes in node order.
 * The per-(feature, node) totals gt/ht/ct are numpy's pairwise sums over the
 * 256 bins; the caller computes them and passes them in.
 *
 * Codes are uint8, Fortran-ordered: code (row r, feature f) is at f*n + r.
 * A histogram block is (3, k, 256) doubles: gradient sums, hessian sums
 * and row counts over k (feature) or (feature, node) rows of 256 bins.
 * Build with -ffp-contract=off and without -ffast-math.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define N_HIST 256
#define VALUE_BINS 255 /* bins 0..254 hold values, 255 is the missing bin */

/* Histograms of the rows order[begin:end] over nf features into out (3, nf, 256). */
void leaf_hist(const uint8_t *codes, int64_t n, const double *g, const double *h,
               const int64_t *order, int64_t begin, int64_t end,
               const int64_t *feats, int64_t nf, double *gbuf, double *hbuf, double *out)
{
    int64_t m = end - begin;
    const int64_t *rows = order + begin;
    double *G = out, *H = out + nf * N_HIST, *C = out + 2 * nf * N_HIST;
    memset(out, 0, sizeof(double) * 3 * nf * N_HIST);
    for (int64_t i = 0; i < m; i++) {
        gbuf[i] = g[rows[i]];
        hbuf[i] = h[rows[i]];
    }
    for (int64_t fi = 0; fi < nf; fi++) {
        const uint8_t *col = codes + feats[fi] * n;
        double *Gf = G + fi * N_HIST, *Hf = H + fi * N_HIST, *Cf = C + fi * N_HIST;
        for (int64_t i = 0; i < m; i++) {
            int c = col[rows[i]];
            Gf[c] += gbuf[i];
            Hf[c] += hbuf[i];
            Cf[c] += 1.0;
        }
    }
}

/* Split the node whose rows are order[begin:end] on code(f) <= t.
 *
 * The rows are partitioned stably, left child first. The smaller child's
 * histograms (the left one on a tie) are built into small; the parent's
 * block becomes the larger child's by subtraction. Returns the left size.
 */
int64_t leaf_split(const uint8_t *codes, int64_t n, const double *g, const double *h,
                   int64_t *order, int64_t begin, int64_t end, int64_t f, int64_t t,
                   const int64_t *feats, int64_t nf, double *gbuf, double *hbuf,
                   int64_t *tmp, double *parent, double *small)
{
    const uint8_t *col = codes + f * n;
    int64_t n_left = 0, n_right = 0;
    for (int64_t i = begin; i < end; i++) {
        int64_t r = order[i];
        if (col[r] <= t)
            order[begin + n_left++] = r;
        else
            tmp[n_right++] = r;
    }
    memcpy(order + begin + n_left, tmp, sizeof(int64_t) * n_right);
    if (n_left <= n_right)
        leaf_hist(codes, n, g, h, order, begin, begin + n_left, feats, nf, gbuf, hbuf, small);
    else
        leaf_hist(codes, n, g, h, order, begin + n_left, end, feats, nf, gbuf, hbuf, small);
    for (int64_t k = 0; k < 3 * nf * N_HIST; k++)
        parent[k] -= small[k];
    return n_left;
}

/* Newton gains of one 256-bin histogram row over thresholds 0..254, given its
 * totals; cells leaving fewer than min_data rows on a side are -inf. */
static void gain_row(const double *G, const double *H, const double *C,
                     double gt, double ht, double ct, double reg, double min_data,
                     double *gains)
{
    double parent = gt * gt / (ht + reg);
    double gl = G[0], hl = H[0], cl = C[0];
    for (int t = 0; t < VALUE_BINS; t++) {
        if (t > 0) {
            gl += G[t];
            hl += H[t];
            cl += C[t];
        }
        double gr = gt - gl, hr = ht - hl, cr = ct - cl;
        if (cl < min_data || cr < min_data)
            gains[t] = -INFINITY;
        else
            gains[t] = 0.5 * ((gl * gl / (hl + reg) + gr * gr / (hr + reg)) - parent);
    }
}

/* Best (gain, feature position, bin) of one node: its histograms hist
 * (3, nf, 256) and their bin totals tot (3, nf). The argmax runs over
 * (feature, bin) in row-major order, as np.argmax over the flat gains. */
void leaf_scan(const double *hist, const double *tot, int64_t nf, double reg,
               double min_data, double *best)
{
    const double *G = hist, *H = hist + nf * N_HIST, *C = hist + 2 * nf * N_HIST;
    double gains[VALUE_BINS];
    double top = 0.0;
    int64_t top_f = -1, top_t = 0;
    for (int64_t fi = 0; fi < nf && !(top_f >= 0 && isnan(top)); fi++) {
        gain_row(G + fi * N_HIST, H + fi * N_HIST, C + fi * N_HIST,
                 tot[fi], tot[nf + fi], tot[2 * nf + fi], reg, min_data, gains);
        for (int t = 0; t < VALUE_BINS; t++) {
            if (top_f < 0 || !(gains[t] <= top)) {
                top = gains[t];
                top_f = fi;
                top_t = t;
                if (isnan(top))
                    break;
            }
        }
    }
    best[0] = top;
    best[1] = (double)top_f;
    best[2] = (double)top_t;
}

/* Per-level histograms of an oblivious tree: out (nf, 3, n_nodes, 256) over
 * the rows rows[0:m], whose gradients, hessians and level nodes are
 * gr, hr and node (aligned with rows). */
void obl_hist(const uint8_t *codes, int64_t n, const int64_t *rows, int64_t m,
              const double *gr, const double *hr, const int64_t *node,
              const int64_t *feats, int64_t nf, int64_t n_nodes, double *out)
{
    int64_t block = n_nodes * N_HIST;
    memset(out, 0, sizeof(double) * nf * 3 * block);
    for (int64_t fi = 0; fi < nf; fi++) {
        const uint8_t *col = codes + feats[fi] * n;
        double *G = out + fi * 3 * block, *H = G + block, *C = H + block;
        for (int64_t i = 0; i < m; i++) {
            int64_t k = node[i] * N_HIST + col[rows[i]];
            G[k] += gr[i];
            H[k] += hr[i];
            C[k] += 1.0;
        }
    }
}

/* Best level split of an oblivious tree from obl_hist's out and its bin
 * totals tot (nf, 3, n_nodes). For each feature the clipped gains are summed
 * over nodes per bin; the first bin with the largest total is that feature's
 * candidate, and a later feature wins only with a strictly larger total.
 * best = (total, feature position or -1, bin). */
void obl_scan(const double *hist, const double *tot, int64_t nf, int64_t n_nodes,
              double reg, double min_data, double *best)
{
    int64_t block = n_nodes * N_HIST;
    double gains[VALUE_BINS], totals[VALUE_BINS];
    double best_total = 0.0;
    int64_t best_f = -1, best_t = -1;
    for (int64_t fi = 0; fi < nf; fi++) {
        const double *G = hist + fi * 3 * block, *H = G + block, *C = H + block;
        const double *T = tot + fi * 3 * n_nodes;
        for (int t = 0; t < VALUE_BINS; t++)
            totals[t] = 0.0;
        for (int64_t k = 0; k < n_nodes; k++) {
            gain_row(G + k * N_HIST, H + k * N_HIST, C + k * N_HIST,
                     T[k], T[n_nodes + k], T[2 * n_nodes + k], reg, min_data, gains);
            for (int t = 0; t < VALUE_BINS; t++)
                totals[t] += isfinite(gains[t]) ? (gains[t] >= 0.0 ? gains[t] : 0.0) : 0.0;
        }
        int t_max = 0;
        for (int t = 1; t < VALUE_BINS; t++)
            if (!(totals[t] <= totals[t_max]))
                t_max = t;
        if (totals[t_max] > best_total) {
            best_total = totals[t_max];
            best_f = fi;
            best_t = t_max;
        }
    }
    best[0] = best_total;
    best[1] = (double)best_f;
    best[2] = (double)best_t;
}

/* Send each row one level down: node = 2 * node + (code(f) > t). */
void obl_route(const uint8_t *codes, int64_t n, const int64_t *rows, int64_t m,
               int64_t f, int64_t t, int64_t *node)
{
    const uint8_t *col = codes + f * n;
    for (int64_t i = 0; i < m; i++)
        node[i] = node[i] * 2 + (col[rows[i]] > t);
}
