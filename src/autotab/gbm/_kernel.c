/* The tree kernel of trees.py: each tree grows in one call, leaf_grow
 * (best-first leaf-wise) or obl_grow (oblivious, one split per level).
 * discordant_pairs, at the end, is the Kendall pair count of encoders.py.
 *
 * Every loop repeats the float order of the numpy kernel it replaced (kept in
 * tests/oracles.py), so trees are bit-identical to it:
 *   - bin sums are added in row order (np.bincount);
 *   - prefix sums run sequentially over bins 0..254 (np.cumsum);
 *   - gain = 0.5 * ((gl^2/(hl+reg) + gr^2/(hr+reg)) - gt^2/(ht+reg));
 *   - a cell with fewer than min_data rows on either side is -inf, and an
 *     argmax takes the first maximum, a NaN counting as the maximum;
 *   - oblivious totals add max(gain, 0) (0 where the gain is not finite)
 *     over nodes in node order;
 *   - the bin totals of a histogram row and a leaf's gradient and hessian
 *     sums are numpy's pairwise sums (pairwise_sum below);
 *   - a leaf-wise tree takes the split of largest gain next, the lowest node
 *     id on a tie (heapq on (-gain, id)).
 *
 * Besides its training rows a grower carries passenger rows (left-out and
 * validation rows): they are routed at every split as the training rows are
 * but add to no histogram, and get their leaf's value like them.
 *
 * Codes are uint8, Fortran-ordered: code (row r, feature f) is at f*n + r.
 * A histogram block is (3, k, 256) doubles: gradient sums, hessian sums
 * and row counts over k (feature) or (feature, node) rows of 256 bins.
 * Build with -ffp-contract=off and without -ffast-math.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define N_HIST 256
#define VALUE_BINS 255 /* bins 0..254 hold values, 255 is the missing bin */
#define ZERO_DENOMINATOR (-1) /* a leaf's hessian sum + reg is 0 */
#define NO_MEMORY (-2)

static double pairwise(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int k = 0; k < 8; k++)
            r[k] = a[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += a[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* np.add.reduce of a[0:n]: 0.0 plus numpy's pairwise sum (8 accumulators up
 * to 128 values, halves split at a multiple of 8 above). */
double pairwise_sum(const double *a, int64_t n)
{
    return 0.0 + pairwise(a, n);
}

static void *alloc(int64_t count, size_t size)
{
    return malloc((size_t)(count > 0 ? count : 1) * size);
}

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

/* Stable partition of the rows idx[0:m] on col <= t, left first; returns
 * the left count. */
static int64_t partition(const uint8_t *col, int64_t t, int64_t *idx, int64_t m, int64_t *tmp)
{
    int64_t n_left = 0, n_right = 0;
    for (int64_t i = 0; i < m; i++) {
        int64_t r = idx[i];
        if (col[r] <= t)
            idx[n_left++] = r;
        else
            tmp[n_right++] = r;
    }
    memcpy(idx + n_left, tmp, sizeof(int64_t) * n_right);
    return n_left;
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
    int64_t n_left = partition(codes + f * n, t, order + begin, end - begin, tmp);
    if (n_left <= end - begin - n_left)
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

/* Bin totals of k histogram rows of 256 bins, as hist.sum(axis=-1). */
static void row_totals(const double *hist, int64_t k, double *tot)
{
    for (int64_t r = 0; r < k; r++)
        tot[r] = pairwise_sum(hist + r * N_HIST, N_HIST);
}

typedef struct {
    int64_t begin, end;   /* its training rows: order[begin:end] */
    int64_t pbegin, pend; /* its passengers: order[pbegin:pend] */
    int64_t slot;         /* its histogram slot while it is a leaf, else -1 */
    int64_t fpos, t;      /* its best split, if open */
    double gain;
    int open;             /* a leaf whose best split awaits its turn */
} Node;

/* Scan a new leaf: it is open if it has rows for two children and a split
 * of finite positive gain. tot is scratch for the slot's bin totals. */
static void scan_leaf(Node *nd, const double *hists, int64_t nf, int64_t min_data,
                      double reg, double *tot)
{
    double best[3];
    const double *hist = hists + nd->slot * 3 * nf * N_HIST;
    if (nd->end - nd->begin < 2 * min_data)
        return;
    row_totals(hist, 3 * nf, tot);
    leaf_scan(hist, tot, nf, reg, (double)min_data, best);
    if (best[0] > 0.0 && isfinite(best[0])) {
        nd->gain = best[0];
        nd->fpos = (int64_t)best[1];
        nd->t = (int64_t)best[2];
        nd->open = 1;
    }
}

/* Grow one tree best-first: split the open leaf of largest gain until
 * max_leaves leaves or no leaf is open.
 *
 * order[0:m] holds the training rows and order[m:m+n_pass] the passengers;
 * both are regrouped leaf by leaf in place, and out[i] gets the leaf value
 * of order[i]. A split builds the smaller child's histograms and derives
 * the larger one's by subtraction in the parent's slot, so there is one
 * slot per leaf. Node i's fields go to feature, threshold, left, right
 * (-1 for a leaf) and value (0 for an internal node); each split's gain is
 * added to feature_gain[f] in split order. Returns the node count,
 * ZERO_DENOMINATOR or NO_MEMORY.
 */
int64_t leaf_grow(const uint8_t *codes, int64_t n, const double *g, const double *h,
                  int64_t *order, int64_t m, int64_t n_pass, const int64_t *feats,
                  int64_t nf, int64_t max_leaves, int64_t min_data, double reg, double lr,
                  int32_t *feature, int32_t *threshold, int32_t *left, int32_t *right,
                  double *value, double *feature_gain, double *out)
{
    int64_t slot_size = 3 * nf * N_HIST, n_nodes = 1, n_leaves = 1, status;
    double *hists = alloc(max_leaves * slot_size, sizeof(double));
    double *tot = alloc(3 * nf, sizeof(double));
    double *gbuf = alloc(m, sizeof(double)), *hbuf = alloc(m, sizeof(double));
    int64_t *tmp = alloc(m > n_pass ? m : n_pass, sizeof(int64_t));
    Node *nodes = alloc(2 * max_leaves - 1, sizeof(Node));
    if (!hists || !tot || !gbuf || !hbuf || !tmp || !nodes) {
        status = NO_MEMORY;
        goto done;
    }
    nodes[0] = (Node){0, m, m, m + n_pass, 0, 0, 0, 0.0, 0};
    leaf_hist(codes, n, g, h, order, 0, m, feats, nf, gbuf, hbuf, hists);
    scan_leaf(&nodes[0], hists, nf, min_data, reg, tot);

    while (n_leaves < max_leaves) {
        int64_t pick = -1; /* largest gain, lowest id on a tie */
        for (int64_t k = 0; k < n_nodes; k++)
            if (nodes[k].open && (pick < 0 || nodes[k].gain > nodes[pick].gain))
                pick = k;
        if (pick < 0)
            break;
        Node *p = &nodes[pick], *l = &nodes[n_nodes], *r = &nodes[n_nodes + 1];
        int64_t f = feats[p->fpos];
        int64_t n_left = leaf_split(codes, n, g, h, order, p->begin, p->end, f, p->t, feats,
                                    nf, gbuf, hbuf, tmp, hists + p->slot * slot_size,
                                    hists + n_leaves * slot_size);
        int64_t p_left = partition(codes + f * n, p->t, order + p->pbegin,
                                   p->pend - p->pbegin, tmp);
        int left_small = n_left <= p->end - p->begin - n_left; /* it got the new slot */
        *l = (Node){p->begin, p->begin + n_left, p->pbegin, p->pbegin + p_left,
                    left_small ? n_leaves : p->slot, 0, 0, 0.0, 0};
        *r = (Node){p->begin + n_left, p->end, p->pbegin + p_left, p->pend,
                    left_small ? p->slot : n_leaves, 0, 0, 0.0, 0};
        feature[pick] = (int32_t)f;
        threshold[pick] = (int32_t)p->t;
        left[pick] = (int32_t)n_nodes;
        right[pick] = (int32_t)(n_nodes + 1);
        value[pick] = 0.0;
        feature_gain[f] += p->gain;
        p->open = 0;
        p->slot = -1;
        n_nodes += 2;
        n_leaves++;
        if (n_leaves < max_leaves) { /* else growth ends: no split is taken from them */
            scan_leaf(l, hists, nf, min_data, reg, tot);
            scan_leaf(r, hists, nf, min_data, reg, tot);
        }
    }

    for (int64_t nid = 0; nid < n_nodes; nid++) {
        Node *nd = &nodes[nid];
        if (nd->slot < 0)
            continue;
        const double *hist = hists + nd->slot * slot_size;
        double g_sum = pairwise_sum(hist, nf * N_HIST);
        double h_sum = pairwise_sum(hist + nf * N_HIST, nf * N_HIST);
        if (h_sum + reg == 0.0) {
            status = ZERO_DENOMINATOR;
            goto done;
        }
        double v = -lr * g_sum / (h_sum + reg);
        feature[nid] = -1;
        threshold[nid] = 0;
        left[nid] = right[nid] = -1;
        value[nid] = v;
        for (int64_t i = nd->begin; i < nd->end; i++)
            out[i] = v;
        for (int64_t i = nd->pbegin; i < nd->pend; i++)
            out[i] = v;
    }
    status = n_nodes;
done:
    free(hists);
    free(tot);
    free(gbuf);
    free(hbuf);
    free(tmp);
    free(nodes);
    return status;
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

/* Grow one oblivious tree of at most max_depth levels: each level takes the
 * single (feature, bin) of largest positive total gain over its nodes.
 *
 * idx[0:m] are the training rows and idx[m:m+n_pass] the passengers; out[i]
 * gets the leaf value of idx[i]. Level d's split goes to level_feat[d] and
 * level_bin[d] and its total gain is added to feature_gain; leaf_value gets
 * -lr * G / (H + reg) of each of the 2^depth leaves, 0 for a leaf no
 * training row reaches. Returns the depth or NO_MEMORY.
 */
int64_t obl_grow(const uint8_t *codes, int64_t n, const double *g, const double *h,
                 const int64_t *idx, int64_t m, int64_t n_pass, const int64_t *feats,
                 int64_t nf, int64_t max_depth, int64_t min_data, double reg, double lr,
                 int32_t *level_feat, int32_t *level_bin, double *leaf_value,
                 double *feature_gain, double *out)
{
    int64_t max_nodes = (int64_t)1 << (max_depth > 1 ? max_depth - 1 : 0);
    int64_t n_leaves = (int64_t)1 << (max_depth > 0 ? max_depth : 0), depth = 0;
    double *gr = alloc(m, sizeof(double)), *hr = alloc(m, sizeof(double));
    int64_t *node = calloc((size_t)(m + n_pass + 1), sizeof(int64_t));
    double *hists = alloc(nf * 3 * max_nodes * N_HIST, sizeof(double));
    double *tot = alloc(nf * 3 * max_nodes, sizeof(double));
    double *h_leaf = alloc(n_leaves, sizeof(double));
    int64_t *count = calloc((size_t)n_leaves, sizeof(int64_t));
    if (!gr || !hr || !node || !hists || !tot || !h_leaf || !count) {
        depth = NO_MEMORY;
        goto done;
    }
    for (int64_t i = 0; i < m; i++) {
        gr[i] = g[idx[i]];
        hr[i] = h[idx[i]];
    }
    for (; depth < max_depth; depth++) {
        int64_t n_nodes = (int64_t)1 << depth;
        double best[3];
        obl_hist(codes, n, idx, m, gr, hr, node, feats, nf, n_nodes, hists);
        row_totals(hists, nf * 3 * n_nodes, tot);
        obl_scan(hists, tot, nf, n_nodes, reg, (double)min_data, best);
        if (best[1] < 0 || !(best[0] > 0.0))
            break;
        int64_t f = feats[(int64_t)best[1]], t = (int64_t)best[2];
        const uint8_t *col = codes + f * n;
        level_feat[depth] = (int32_t)f;
        level_bin[depth] = (int32_t)t;
        feature_gain[f] += best[0];
        for (int64_t i = 0; i < m + n_pass; i++)
            node[i] = node[i] * 2 + (col[idx[i]] > t);
    }

    n_leaves = (int64_t)1 << depth;
    for (int64_t k = 0; k < n_leaves; k++)
        leaf_value[k] = h_leaf[k] = 0.0;
    for (int64_t i = 0; i < m; i++) { /* G (in leaf_value) and H per leaf, as np.bincount */
        leaf_value[node[i]] += gr[i];
        h_leaf[node[i]] += hr[i];
        count[node[i]]++;
    }
    for (int64_t k = 0; k < n_leaves; k++)
        leaf_value[k] = count[k] ? -lr * leaf_value[k] / (h_leaf[k] + reg) : 0.0;
    for (int64_t i = 0; i < m + n_pass; i++)
        out[i] = leaf_value[node[i]];
done:
    free(gr);
    free(hr);
    free(node);
    free(hists);
    free(tot);
    free(h_leaf);
    free(count);
    return depth;
}

/* The pairs i < j of y[0:n] with y[i] > y[j] strictly (Kendall's discordant
 * pairs once the rows are sorted by (x, y); Knight, JASA 1966). A bottom-up
 * merge sort counts, at each merge, the left-run values still waiting when a
 * strictly smaller right-run value moves first. It overwrites y and tmp,
 * which holds n doubles. */
int64_t discordant_pairs(double *y, int64_t n, double *tmp)
{
    int64_t count = 0;
    double *src = y, *dst = tmp;
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = mid + width < n ? mid + width : n;
            int64_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi) {
                if (src[j] < src[i]) {
                    count += mid - i;
                    dst[k++] = src[j++];
                } else {
                    dst[k++] = src[i++];
                }
            }
            while (i < mid)
                dst[k++] = src[i++];
            while (j < hi)
                dst[k++] = src[j++];
        }
        double *swap = src;
        src = dst;
        dst = swap;
    }
    return count;
}
