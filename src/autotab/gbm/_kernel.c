/* The tree kernel of trees.py: each tree grows in one call, leaf_grow
 * (best-first leaf-wise) or obl_grow (oblivious, one split per level).
 * After the growers come the rest of a boosting iteration that is exact
 * arithmetic or index bookkeeping (lay_out, gradients, add_scores), the
 * prediction of a whole forest of either flavour (leaf_route), the positive
 * rank sum of metrics.py's ROC AUC, rank_concordance, which counts the
 * pairs of encoders.py's Normalized Gini from ranks, in one pass with no
 * comparison sort, and two readers of a CSV file's bytes for data.py:
 * parse_numbers, which reads a column of decimal numbers, and code_cells,
 * which gives each cell of a text category column the id of its distinct
 * bytes.
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
 *   - the G and H totals of a histogram row and a leaf's gradient and
 *     hessian sums are numpy's pairwise sums (pairwise_sums below);
 *   - a leaf-wise tree takes the split of largest gain next, the lowest node
 *     id on a tie (heapq on (-gain, id)).
 *
 * Each histogram row carries a bitmap of N_WORDS words, bit b of word w
 * marking bin 64*w + b, and every loop over bins visits the set bins only.
 * A bin that is not set holds +0.0 in G, H and C to the numpy kernel and is
 * never read here (its memory may hold anything). Skipping it changes no
 * sum, because no histogram holds -0.0: a bin starts at +0.0, adding to
 * +0.0 never gives -0.0 and neither does x - x, so x + 0.0 is x for every
 * partial sum x. Hence an unset bin
 *   - leaves the prefix sums unchanged: its gain repeats the gain of the bin
 *     before it, which the first-maximum argmax has already seen (threshold
 *     0 is always scanned);
 *   - leaves every accumulator of a pairwise sum unchanged, the one it would
 *     start included, so the set bins fed in bin order give numpy's total;
 *   - leaves x - 0.0 = x in a subtraction;
 * and a row's count total is its node's row count, counts being exact in any
 * order. A set bin may be empty, and then holds +0.0 or, in a histogram
 * derived by subtraction, a float residual that it keeps, as in numpy.
 * A directly built histogram sets the bins its rows reach (read from its
 * counts from FEW_ROWS rows up); the larger child of a leaf-wise split keeps
 * its parent's bitmap; below the root, a node of an oblivious level with
 * FEW_ROWS rows per node or more takes its parent's bitmap, a superset of
 * its own.
 *
 * Besides its training rows a grower carries passenger rows (left-out and
 * validation rows): they are routed at every split as the training rows are
 * but add to no histogram, and get their leaf's value like them.
 *
 * Codes are uint8, Fortran-ordered: code (row r, feature f) is at f*n + r.
 * A histogram block is (3, k, 256) doubles: gradient sums, hessian sums
 * and row counts over k (feature) or (feature, node) rows of 256 bins, with
 * k * N_WORDS words of bitmap.
 * Build with -ffp-contract=off and without -ffast-math.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define N_HIST 256
#define N_WORDS (N_HIST / 64)
#define VALUE_BINS 255 /* bins 0..254 hold values, 255 is the missing bin */
#define ZERO_DENOMINATOR (-1) /* a leaf's hessian sum + reg is 0 */
#define NO_MEMORY (-2)
#define FEW_ROWS (N_HIST / 2) /* rows per histogram row below which bins are marked row by row */

static double combine(const double *r)
{
    return ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
}

/* Add the set entries i of a[lo:hi] and b[lo:hi] to ra[i % 8] and rb[i % 8],
 * in order. */
static void add_set(const double *a, const double *b, const uint64_t *bits, int64_t lo,
                    int64_t hi, double *ra, double *rb)
{
    for (int64_t w = lo >> 6; 64 * w < hi; w++) {
        uint64_t word = bits[w];
        if (64 * w < lo)
            word &= ~(uint64_t)0 << (lo & 63);
        if (64 * w + 64 > hi)
            word &= ~(uint64_t)0 >> (64 * w + 64 - hi);
        for (; word; word &= word - 1) {
            int64_t i = 64 * w + __builtin_ctzll(word);
            ra[i & 7] += a[i];
            rb[i & 7] += b[i];
        }
    }
}

/* numpy's pairwise sums of the set entries of a[lo:lo+n] and b[lo:lo+n]
 * into sums[0] and sums[1]: up to 128 values 8 accumulators (entry i goes to
 * i % 8, as lo is a multiple of 8) and the n % 8 last in order, below 8
 * values a sequential sum from -0.0; above 128 values the halves split at a
 * multiple of 8. */
static void pairwise(const double *a, const double *b, const uint64_t *bits, int64_t lo,
                     int64_t n, double *sums)
{
    if (n > 128) {
        double first[2];
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        pairwise(a, b, bits, lo, n2, first);
        pairwise(a, b, bits, lo + n2, n - n2, sums);
        sums[0] = first[0] + sums[0];
        sums[1] = first[1] + sums[1];
        return;
    }
    int64_t body = lo + (n < 8 ? 0 : n - n % 8);
    double ra[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    double rb[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
    add_set(a, b, bits, lo, body, ra, rb);
    sums[0] = n < 8 ? -0.0 : combine(ra);
    sums[1] = n < 8 ? -0.0 : combine(rb);
    for (int64_t i = body; i < lo + n; i++)
        if (bits[i >> 6] >> (i & 63) & 1) {
            sums[0] += a[i];
            sums[1] += b[i];
        }
}

/* np.add.reduce of a[0:n] and of b[0:n] into sums[0] and sums[1], where
 * only the entries set in bits may be nonzero (bit i marks entry i; the rest
 * count as +0.0 and are not read): 0.0 plus numpy's pairwise sum. */
void pairwise_sums(const double *a, const double *b, const uint64_t *bits, int64_t n,
                   double *sums)
{
    pairwise(a, b, bits, 0, n, sums);
    sums[0] = 0.0 + sums[0];
    sums[1] = 0.0 + sums[1];
}

static void *alloc(int64_t count, size_t size)
{
    return malloc((size_t)(count > 0 ? count : 1) * size);
}

/* Bitmaps of k histogram rows from their counts C (k, 256). */
static void bits_from_counts(const double *C, int64_t k, uint64_t *bits)
{
    for (int64_t w = 0; w < k * N_WORDS; w++) {
        const double *c = C + 64 * w;
        uint32_t low = 0, high = 0; /* two independent chains of shifts */
        for (int b = 31; b >= 0; b--) {
            low = low << 1 | (c[b] > 0.0);
            high = high << 1 | (c[b + 32] > 0.0);
        }
        bits[w] = (uint64_t)high << 32 | low;
    }
}

/* Histograms of the rows order[begin:end] over nf features into out
 * (3, nf, 256) and their bitmaps into bits (nf, N_WORDS). Below FEW_ROWS
 * rows only the bins the rows reach are cleared and marked; from there on
 * clearing whole rows and reading the bitmaps from the counts is faster. */
void leaf_hist(const uint8_t *codes, int64_t n, const double *g, const double *h,
               const int64_t *order, int64_t begin, int64_t end,
               const int64_t *feats, int64_t nf, double *gbuf, double *hbuf, double *out,
               uint64_t *bits)
{
    int64_t m = end - begin;
    const int64_t *rows = order + begin;
    double *G = out, *H = out + nf * N_HIST, *C = out + 2 * nf * N_HIST;
    int few = m < FEW_ROWS;
    for (int64_t i = 0; i < m; i++) {
        gbuf[i] = g[rows[i]];
        hbuf[i] = h[rows[i]];
    }
    for (int64_t fi = 0; fi < nf; fi++) {
        const uint8_t *col = codes + feats[fi] * n;
        double *Gf = G + fi * N_HIST, *Hf = H + fi * N_HIST, *Cf = C + fi * N_HIST;
        uint64_t *bf = bits + fi * N_WORDS;
        if (few) {
            memset(bf, 0, sizeof(uint64_t) * N_WORDS);
            for (int64_t i = 0; i < m; i++) {
                int c = col[rows[i]];
                Gf[c] = Hf[c] = Cf[c] = 0.0;
                bf[c >> 6] |= (uint64_t)1 << (c & 63);
            }
        } else {
            memset(Gf, 0, sizeof(double) * N_HIST);
            memset(Hf, 0, sizeof(double) * N_HIST);
            memset(Cf, 0, sizeof(double) * N_HIST);
        }
        for (int64_t i = 0; i < m; i++) {
            int c = col[rows[i]];
            Gf[c] += gbuf[i];
            Hf[c] += hbuf[i];
            Cf[c] += 1.0;
        }
        if (!few)
            bits_from_counts(Cf, 1, bf);
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
 * histograms (the left one on a tie) are built into small and small_bits;
 * the parent's block becomes the larger child's by subtracting small over
 * its set bins, and keeps its bitmap. Returns the left size.
 */
int64_t leaf_split(const uint8_t *codes, int64_t n, const double *g, const double *h,
                   int64_t *order, int64_t begin, int64_t end, int64_t f, int64_t t,
                   const int64_t *feats, int64_t nf, double *gbuf, double *hbuf,
                   int64_t *tmp, double *parent, double *small, uint64_t *small_bits)
{
    int64_t n_left = partition(codes + f * n, t, order + begin, end - begin, tmp);
    if (n_left <= end - begin - n_left)
        leaf_hist(codes, n, g, h, order, begin, begin + n_left, feats, nf, gbuf, hbuf, small,
                  small_bits);
    else
        leaf_hist(codes, n, g, h, order, begin + n_left, end, feats, nf, gbuf, hbuf, small,
                  small_bits);
    for (int64_t fi = 0; fi < nf; fi++) {
        double *P = parent + fi * N_HIST;
        const double *S = small + fi * N_HIST;
        for (int w = 0; w < N_WORDS; w++)
            for (uint64_t word = small_bits[fi * N_WORDS + w]; word; word &= word - 1) {
                int64_t k = 64 * w + __builtin_ctzll(word);
                for (int64_t plane = 0; plane < 3 * nf * N_HIST; plane += nf * N_HIST)
                    P[plane + k] -= S[plane + k];
            }
    }
    return n_left;
}

/* The Newton gain of a threshold whose left side has the sums gl, hl, cl,
 * -inf if it leaves fewer than min_data rows on a side. */
static double cell_gain(double gl, double hl, double cl, double gt, double ht, double count,
                        double parent, double reg, double min_data)
{
    double gr = gt - gl, hr = ht - hl, cr = count - cl;
    if (cl < min_data || cr < min_data)
        return -INFINITY;
    return 0.5 * ((gl * gl / (hl + reg) + gr * gr / (hr + reg)) - parent);
}

/* Newton gains of one histogram row of count rows where they can change:
 * at threshold 0 and at each set bin of 1..254 (an unset bin repeats the
 * gain before it). The thresholds go to at[] and their gains to gains[];
 * returns how many, k, and sets at[k] to VALUE_BINS. */
static int gain_row(const double *G, const double *H, const double *C, const uint64_t *bits,
                    double count, double reg, double min_data, int *at, double *gains)
{
    double tot[2];
    pairwise_sums(G, H, bits, N_HIST, tot);
    double gt = tot[0], ht = tot[1], parent = gt * gt / (ht + reg);
    double gl = 0.0, hl = 0.0, cl = 0.0; /* +0.0 + G[0] is G[0] */
    int k = 0;
    if (!(bits[0] & 1)) {
        at[k] = 0;
        gains[k++] = cell_gain(gl, hl, cl, gt, ht, count, parent, reg, min_data);
    }
    for (int w = 0; w < N_WORDS; w++) {
        uint64_t word = bits[w];
        if (w == N_WORDS - 1)
            word &= ~((uint64_t)1 << 63); /* the missing bin is no threshold */
        for (; word; word &= word - 1) {
            int t = 64 * w + __builtin_ctzll(word);
            gl += G[t];
            hl += H[t];
            cl += C[t];
            at[k] = t;
            gains[k++] = cell_gain(gl, hl, cl, gt, ht, count, parent, reg, min_data);
        }
    }
    at[k] = VALUE_BINS;
    return k;
}

/* Best (gain, feature position, bin) of one node of count rows: its
 * histograms hist (3, nf, 256) and their bitmaps bits (nf, N_WORDS). The
 * argmax runs over (feature, bin) in row-major order, as np.argmax over the
 * flat gains. */
void leaf_scan(const double *hist, const uint64_t *bits, int64_t nf, int64_t count, double reg,
               double min_data, double *best)
{
    const double *G = hist, *H = hist + nf * N_HIST, *C = hist + 2 * nf * N_HIST;
    int at[VALUE_BINS + 1];
    double gains[VALUE_BINS];
    double top = 0.0;
    int64_t top_f = -1, top_t = 0;
    for (int64_t fi = 0; fi < nf && !(top_f >= 0 && isnan(top)); fi++) {
        int k = gain_row(G + fi * N_HIST, H + fi * N_HIST, C + fi * N_HIST, bits + fi * N_WORDS,
                         (double)count, reg, min_data, at, gains);
        for (int j = 0; j < k; j++) {
            if (top_f < 0 || !(gains[j] <= top)) {
                top = gains[j];
                top_f = fi;
                top_t = at[j];
                if (isnan(top))
                    break;
            }
        }
    }
    best[0] = top;
    best[1] = (double)top_f;
    best[2] = (double)top_t;
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
 * of finite positive gain. */
static void scan_leaf(Node *nd, const double *hists, const uint64_t *bits, int64_t nf,
                      int64_t min_data, double reg)
{
    double best[3];
    if (nd->end - nd->begin < 2 * min_data)
        return;
    leaf_scan(hists + nd->slot * 3 * nf * N_HIST, bits + nd->slot * nf * N_WORDS, nf,
              nd->end - nd->begin, reg, (double)min_data, best);
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
 * layout[0:m] holds the training rows and layout[m:m+n_pass] the
 * passengers; order gets a copy of it, which is regrouped leaf by leaf in
 * place, and out[i] gets the leaf value of order[i]. A split builds the
 * smaller child's histograms and derives the larger one's by subtraction
 * in the parent's slot, so there is one slot (and one bitmap) per leaf.
 * Node i's fields go to feature, threshold, left, right (-1 for a leaf) and
 * value (0 for an internal node). Returns the node count, ZERO_DENOMINATOR
 * or NO_MEMORY.
 */
int64_t leaf_grow(const uint8_t *codes, int64_t n, const double *g, const double *h,
                  const int64_t *layout, int64_t *order, int64_t m, int64_t n_pass,
                  const int64_t *feats, int64_t nf, int64_t max_leaves, int64_t min_data,
                  double reg, double lr, int32_t *feature, int32_t *threshold, int32_t *left,
                  int32_t *right, double *value, double *out)
{
    int64_t slot_size = 3 * nf * N_HIST, slot_words = nf * N_WORDS;
    int64_t n_nodes = 1, n_leaves = 1, status;
    double *hists = alloc(max_leaves * slot_size, sizeof(double));
    uint64_t *bits = alloc(max_leaves * slot_words, sizeof(uint64_t));
    double *gbuf = alloc(m, sizeof(double)), *hbuf = alloc(m, sizeof(double));
    int64_t *tmp = alloc(m > n_pass ? m : n_pass, sizeof(int64_t));
    Node *nodes = alloc(2 * max_leaves - 1, sizeof(Node));
    if (!hists || !bits || !gbuf || !hbuf || !tmp || !nodes) {
        status = NO_MEMORY;
        goto done;
    }
    memcpy(order, layout, sizeof(int64_t) * (size_t)(m + n_pass));
    nodes[0] = (Node){0, m, m, m + n_pass, 0, 0, 0, 0.0, 0};
    leaf_hist(codes, n, g, h, order, 0, m, feats, nf, gbuf, hbuf, hists, bits);
    scan_leaf(&nodes[0], hists, bits, nf, min_data, reg);

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
                                    hists + n_leaves * slot_size, bits + n_leaves * slot_words);
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
        p->open = 0;
        p->slot = -1;
        n_nodes += 2;
        n_leaves++;
        if (n_leaves < max_leaves) { /* else growth ends: no split is taken from them */
            scan_leaf(l, hists, bits, nf, min_data, reg);
            scan_leaf(r, hists, bits, nf, min_data, reg);
        }
    }

    for (int64_t nid = 0; nid < n_nodes; nid++) {
        Node *nd = &nodes[nid];
        if (nd->slot < 0)
            continue;
        const double *hist = hists + nd->slot * slot_size;
        double sums[2];
        pairwise_sums(hist, hist + nf * N_HIST, bits + nd->slot * slot_words, nf * N_HIST, sums);
        double g_sum = sums[0], h_sum = sums[1];
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
    free(bits);
    free(gbuf);
    free(hbuf);
    free(tmp);
    free(nodes);
    return status;
}

/* Per-level histograms of an oblivious tree: out (nf, 3, n_nodes, 256) over
 * the rows rows[0:m], whose gradients, hessians and level nodes are gr, hr
 * and node (aligned with rows), and their bitmaps bits (nf, n_nodes,
 * N_WORDS). Below FEW_ROWS rows per node only the bins the rows reach are
 * cleared and marked, as clearing the whole block would cost more than the
 * rows and leave a denser bitmap to scan. Otherwise every bin is cleared and
 * node k takes the bitmap of its parent k / 2 from parent_bits (nf,
 * n_nodes / 2, N_WORDS), a superset as its rows are some of the parent's, or
 * at the root (parent_bits NULL) the bitmap of its counts. */
void obl_hist(const uint8_t *codes, int64_t n, const int64_t *rows, int64_t m,
              const double *gr, const double *hr, const int64_t *node,
              const int64_t *feats, int64_t nf, int64_t n_nodes, double *out, uint64_t *bits,
              const uint64_t *parent_bits)
{
    int64_t block = n_nodes * N_HIST;
    int few = m < n_nodes * FEW_ROWS;
    if (!few)
        memset(out, 0, sizeof(double) * nf * 3 * block);
    for (int64_t fi = 0; fi < nf; fi++) {
        const uint8_t *col = codes + feats[fi] * n;
        double *G = out + fi * 3 * block, *H = G + block, *C = H + block;
        uint64_t *bf = bits + fi * n_nodes * N_WORDS;
        if (few) {
            memset(bf, 0, sizeof(uint64_t) * n_nodes * N_WORDS);
            for (int64_t i = 0; i < m; i++) {
                int64_t k = node[i] * N_HIST + col[rows[i]];
                G[k] = H[k] = C[k] = 0.0;
                bf[k >> 6] |= (uint64_t)1 << (k & 63);
            }
        }
        for (int64_t i = 0; i < m; i++) {
            int64_t k = node[i] * N_HIST + col[rows[i]];
            G[k] += gr[i];
            H[k] += hr[i];
            C[k] += 1.0;
        }
        if (!few && parent_bits)
            for (int64_t k = 0; k < n_nodes; k++)
                memcpy(bf + k * N_WORDS, parent_bits + (fi * (n_nodes / 2) + k / 2) * N_WORDS,
                       sizeof(uint64_t) * N_WORDS);
        else if (!few)
            bits_from_counts(C, n_nodes, bf);
    }
}

/* Best level split of an oblivious tree from obl_hist's out and bits and the
 * nodes' row counts. For each feature the clipped gains are summed over
 * nodes per bin; the first bin with the largest total is that feature's
 * candidate, and a later feature wins only with a strictly larger total.
 * A clipped gain of 0 (and so every node of fewer than 2 * min_data rows)
 * adds nothing: no total is -0.0. best = (total, feature position or -1,
 * bin). */
void obl_scan(const double *hist, const uint64_t *bits, const int64_t *counts, int64_t nf,
              int64_t n_nodes, double reg, double min_data, double *best)
{
    int64_t block = n_nodes * N_HIST;
    int at[VALUE_BINS + 1];
    double gains[VALUE_BINS], totals[VALUE_BINS];
    double best_total = 0.0;
    int64_t best_f = -1, best_t = -1;
    for (int64_t fi = 0; fi < nf; fi++) {
        const double *G = hist + fi * 3 * block, *H = G + block, *C = H + block;
        for (int t = 0; t < VALUE_BINS; t++)
            totals[t] = 0.0;
        for (int64_t k = 0; k < n_nodes; k++) {
            if ((double)counts[k] < 2.0 * min_data)
                continue;
            int n_at = gain_row(G + k * N_HIST, H + k * N_HIST, C + k * N_HIST,
                                bits + (fi * n_nodes + k) * N_WORDS, (double)counts[k], reg,
                                min_data, at, gains);
            for (int j = 0; j < n_at; j++)
                if (gains[j] > 0.0 && gains[j] < INFINITY) /* else clipped to 0 */
                    for (int t = at[j]; t < at[j + 1]; t++) /* up to the next set bin */
                        totals[t] += gains[j];
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
 * gets the leaf value of idx[i]. The tree is written as the complete binary
 * tree of its levels, the layout leaf_grow's node arrays have (trees.py):
 * node i of level d splits on level d's (feature, bin) into 2i + 1 and
 * 2i + 2, and leaf k of the level bits is node 2^depth - 1 + k, with
 * -lr * G / (H + reg), 0 for a leaf no training row reaches. The node
 * arrays hold 2^(max_depth + 1) - 1 entries. Returns the node count or
 * NO_MEMORY.
 */
int64_t obl_grow(const uint8_t *codes, int64_t n, const double *g, const double *h,
                 const int64_t *idx, int64_t m, int64_t n_pass, const int64_t *feats,
                 int64_t nf, int64_t max_depth, int64_t min_data, double reg, double lr,
                 int32_t *feature, int32_t *threshold, int32_t *left, int32_t *right,
                 double *value, double *out)
{
    int64_t max_nodes = (int64_t)1 << (max_depth > 1 ? max_depth - 1 : 0);
    int64_t n_leaves = (int64_t)1 << (max_depth > 0 ? max_depth : 0), depth = 0;
    int64_t status = NO_MEMORY;
    double *gr = alloc(m, sizeof(double)), *hr = alloc(m, sizeof(double));
    int64_t *node = calloc((size_t)(m + n_pass + 1), sizeof(int64_t));
    double *hists = alloc(nf * 3 * max_nodes * N_HIST, sizeof(double));
    uint64_t *bits = alloc(nf * max_nodes * N_WORDS, sizeof(uint64_t));
    uint64_t *parent_bits = alloc(nf * max_nodes * N_WORDS, sizeof(uint64_t));
    double *h_leaf = alloc(n_leaves, sizeof(double));
    int64_t *count = alloc(n_leaves, sizeof(int64_t));
    if (!gr || !hr || !node || !hists || !bits || !parent_bits || !h_leaf || !count)
        goto done;
    for (int64_t i = 0; i < m; i++) {
        gr[i] = g[idx[i]];
        hr[i] = h[idx[i]];
    }
    for (; depth < max_depth; depth++) {
        int64_t n_nodes = (int64_t)1 << depth;
        double best[3];
        memset(count, 0, sizeof(int64_t) * n_nodes);
        for (int64_t i = 0; i < m; i++)
            count[node[i]]++;
        uint64_t *swap = parent_bits; /* the last level's bitmaps become the parents' */
        parent_bits = bits;
        bits = swap;
        obl_hist(codes, n, idx, m, gr, hr, node, feats, nf, n_nodes, hists, bits,
                 depth ? parent_bits : NULL);
        obl_scan(hists, bits, count, nf, n_nodes, reg, (double)min_data, best);
        if (best[1] < 0 || !(best[0] > 0.0))
            break;
        int64_t f = feats[(int64_t)best[1]], t = (int64_t)best[2];
        const uint8_t *col = codes + f * n;
        for (int64_t k = n_nodes - 1; k < 2 * n_nodes - 1; k++) {
            feature[k] = (int32_t)f;
            threshold[k] = (int32_t)t;
            left[k] = (int32_t)(2 * k + 1);
            right[k] = (int32_t)(2 * k + 2);
            value[k] = 0.0;
        }
        for (int64_t i = 0; i < m + n_pass; i++)
            node[i] = node[i] * 2 + (col[idx[i]] > t);
    }

    n_leaves = (int64_t)1 << depth;
    double *leaf_value = value + n_leaves - 1; /* the leaves follow the n_leaves - 1 splits */
    for (int64_t k = 0; k < n_leaves; k++) {
        feature[n_leaves - 1 + k] = left[n_leaves - 1 + k] = right[n_leaves - 1 + k] = -1;
        threshold[n_leaves - 1 + k] = 0;
        leaf_value[k] = h_leaf[k] = 0.0;
        count[k] = 0;
    }
    for (int64_t i = 0; i < m; i++) { /* G (in leaf_value) and H per leaf, as np.bincount */
        leaf_value[node[i]] += gr[i];
        h_leaf[node[i]] += hr[i];
        count[node[i]]++;
    }
    for (int64_t k = 0; k < n_leaves; k++)
        leaf_value[k] = count[k] ? -lr * leaf_value[k] / (h_leaf[k] + reg) : 0.0;
    for (int64_t i = 0; i < m + n_pass; i++)
        out[i] = leaf_value[node[i]];
    status = 2 * n_leaves - 1;
done:
    free(gr);
    free(hr);
    free(node);
    free(hists);
    free(bits);
    free(parent_bits);
    free(h_leaf);
    free(count);
    return status;
}

/* The layout of a sample drawn from 0..n-1: drawn[0:k] are the drawn
 * indices. out[0:m] gets the m distinct ones in ascending order and
 * out[m:n] the rest in ascending order, as the nonzero() of a boolean mask
 * and of its negation would list them; returns m. drawn (n entries) is
 * then reset to 0..n-1, the np.arange that Generator.permutation(n)
 * shuffles, so shuffling it again draws as permutation(n) would. mark
 * holds n bytes. */
int64_t lay_out(int64_t *drawn, int64_t k, int64_t n, uint8_t *mark, int64_t *out)
{
    int64_t m = 0, rest;
    memset(mark, 0, (size_t)n);
    for (int64_t i = 0; i < k; i++)
        mark[drawn[i]] = 1;
    for (int64_t i = 0; i < n; i++)
        m += mark[i];
    rest = m;
    m = 0;
    for (int64_t i = 0; i < n; i++) {
        if (mark[i])
            out[m++] = i;
        else
            out[rest++] = i;
        drawn[i] = i;
    }
    return m;
}

#define LOSS_BINARY 0     /* logloss on sigmoid scores */
#define LOSS_MULTICLASS 1 /* softmax cross-entropy, y holding class numbers */
#define LOSS_SQUARED 2    /* squared error, p the raw score */

/* Gradients g and hessians h of output c for the n training rows, from the
 * transformed scores p (row i's at p[i * stride + c]) and the targets y:
 *   binary:     g = p - y, h = p * (1 - p);
 *   multiclass: g = p - 1 where y is c, else p; h = p * (1 - p);
 *   squared:    g = p - y, h = 1.
 * Each is one IEEE operation per row, so the values are numpy's. */
void gradients(int64_t loss, const double *p, int64_t stride, int64_t c, const double *y,
               int64_t n, double *g, double *h)
{
    for (int64_t i = 0; i < n; i++) {
        double pi = p[i * stride + c];
        if (loss == LOSS_MULTICLASS) {
            g[i] = y[i] == (double)c ? pi - 1.0 : pi;
            h[i] = pi * (1.0 - pi);
        } else if (loss == LOSS_BINARY) {
            g[i] = pi - y[i];
            h[i] = pi * (1.0 - pi);
        } else {
            g[i] = pi - y[i];
            h[i] = 1.0;
        }
    }
}

/* raw[order[i] * stride + c] += values[i] for i < n: a grown tree's leaf
 * values added into the raw scores of output c (order's rows are
 * distinct). */
void add_scores(double *raw, int64_t stride, int64_t c, const int64_t *order,
                const double *values, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        raw[order[i] * stride + c] += values[i];
}

/* Predict a packed forest: for each tree t in order, add the value of the
 * leaf that row r of X reaches to raw[r * outputs + t % outputs], as
 * trees.route does tree by tree. X is Fortran-ordered float64 with n rows;
 * tree t is nodes starts[t]..starts[t + 1] - 1 of the node arrays, its
 * children numbered from its own first node, feature < 0 marking a leaf.
 *
 * Each tree stably partitions the row indices 0..n-1 node by node, depth
 * first, left child first: the rows with x <= threshold go left and the rest
 * (NaN among them) right, and a node no row reaches sends none further. A
 * node's rows stay ascending, so its column is read front to back. Every
 * row's score is the same left fold over the trees as route_forest's numpy
 * loop, which adds `route`'s leaf values tree by tree, so the sums are its
 * bits.
 *
 * The node arrays are trusted, so trees.route_forest checks them first:
 * every internal node's feature is below the column count and both its
 * children are above its own id and below its tree's node count. A walk so
 * ends, and at most max_nodes entries are ever on its stack. work holds
 * 2 * n + 3 * max_nodes int64. */
void leaf_route(const double *X, int64_t n, const int32_t *feature, const double *threshold,
                const int32_t *left, const int32_t *right, const double *value,
                const int64_t *starts, int64_t n_trees, int64_t outputs, double *raw,
                int64_t *work)
{
    int64_t *idx = work, *tmp = work + n, *stack = work + 2 * n;
    for (int64_t t = 0; t < n_trees; t++) {
        int64_t base = starts[t], c = t % outputs;
        for (int64_t i = 0; i < n; i++)
            idx[i] = i;
        stack[0] = 0; /* entries are (node, lo, hi): the node's rows are idx[lo:hi] */
        stack[1] = 0;
        stack[2] = n;
        for (int64_t top = 3; top > 0;) {
            top -= 3;
            int64_t node = base + stack[top], lo = stack[top + 1], hi = stack[top + 2];
            int64_t f = feature[node];
            if (lo == hi)
                continue;
            if (f < 0) {
                double v = value[node];
                for (int64_t i = lo; i < hi; i++)
                    raw[idx[i] * outputs + c] += v;
                continue;
            }
            const double *col = X + f * n;
            double thr = threshold[node];
            int64_t n_left = lo, n_right = 0;
            for (int64_t i = lo; i < hi; i++) { /* branch-free stable partition */
                int64_t r = idx[i], go_left = col[r] <= thr;
                idx[n_left] = r;
                tmp[n_right] = r;
                n_left += go_left;
                n_right += 1 - go_left;
            }
            memcpy(idx + n_left, tmp, sizeof(int64_t) * (size_t)n_right);
            stack[top] = right[node];
            stack[top + 1] = n_left;
            stack[top + 2] = hi;
            stack[top + 3] = left[node];
            stack[top + 4] = lo;
            stack[top + 5] = n_left;
            top += 6;
        }
    }
}

#define FEW_KEYS 32 /* keys below which an insertion sort is faster */
#define MAX_BUCKET_BITS 10

/* Sort key[0:n] ascending, carrying flag[] along: an MSD radix sort that
 * puts the keys into about n / 2 buckets by their offset from the smallest
 * key, in the top bits of the key range, and sorts each bucket the same
 * way; FEW_KEYS keys or fewer are insertion-sorted. Each level takes at
 * least 5 bits off the range, so at most 13 levels recurse. The tmp
 * buffers hold n entries. */
static void sort_keys(uint64_t *key, uint8_t *flag, int64_t n, uint64_t *key_tmp,
                      uint8_t *flag_tmp)
{
    uint32_t start[(1 << MAX_BUCKET_BITS) + 1];
    if (n <= FEW_KEYS) {
        for (int64_t i = 1; i < n; i++) {
            uint64_t k = key[i];
            uint8_t f = flag[i];
            int64_t j = i;
            for (; j > 0 && key[j - 1] > k; j--) {
                key[j] = key[j - 1];
                flag[j] = flag[j - 1];
            }
            key[j] = k;
            flag[j] = f;
        }
        return;
    }
    uint64_t lo = key[0], hi = key[0];
    for (int64_t i = 1; i < n; i++) {
        lo = key[i] < lo ? key[i] : lo;
        hi = key[i] > hi ? key[i] : hi;
    }
    if (lo == hi)
        return;
    int bits = 63 - __builtin_clzll((uint64_t)n); /* n > FEW_KEYS: 5 or more */
    bits = bits < MAX_BUCKET_BITS ? bits : MAX_BUCKET_BITS;
    int range_bits = 64 - __builtin_clzll(hi - lo);
    int shift = range_bits > bits ? range_bits - bits : 0;
    int64_t n_buckets = (int64_t)((hi - lo) >> shift) + 1;
    memset(start, 0, sizeof(uint32_t) * (size_t)(n_buckets + 1));
    for (int64_t i = 0; i < n; i++)
        start[((key[i] - lo) >> shift) + 1]++;
    for (int64_t b = 1; b <= n_buckets; b++)
        start[b] += start[b - 1];
    for (int64_t i = 0; i < n; i++) {
        uint32_t j = start[(key[i] - lo) >> shift]++;
        key_tmp[j] = key[i];
        flag_tmp[j] = flag[i];
    }
    memcpy(key, key_tmp, sizeof(uint64_t) * (size_t)n);
    memcpy(flag, flag_tmp, (size_t)n);
    if (shift == 0)
        return; /* each bucket holds one key value */
    for (int64_t b = 0, begin = 0; b < n_buckets; begin = start[b++])
        if (start[b] - begin > 1)
            sort_keys(key + begin, flag + begin, start[b] - begin, key_tmp, flag_tmp);
}

/* Sum of the 1-based average ranks of scores[0:n] over the rows where
 * pos[i] is nonzero, or NaN if a score is NaN. Scores tied at sorted
 * positions left..right-1 (+0.0 ties -0.0) share the rank (left + 1 +
 * right) / 2. Ranks are half-integers, so the sum is exact in any order
 * below 2^52. The scores are sorted as keys whose unsigned order is their
 * float order, the pos flags carried along. work holds 3n uint64. */
double positive_rank_sum(const double *scores, const uint8_t *pos, int64_t n, uint64_t *work)
{
    uint64_t *key = work, *key_tmp = work + n;
    uint8_t *flag = (uint8_t *)(work + 2 * n), *flag_tmp = flag + n;
    double sum = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double x = scores[i] + 0.0; /* -0.0 becomes +0.0 */
        uint64_t u;
        if (isnan(x))
            return NAN;
        memcpy(&u, &x, sizeof u);
        key[i] = u >> 63 ? ~u : u | (uint64_t)1 << 63;
        flag[i] = pos[i] != 0;
    }
    sort_keys(key, flag, n, key_tmp, flag_tmp);
    for (int64_t left = 0, right; left < n; left = right) {
        int64_t picked = 0;
        for (right = left; right < n && key[right] == key[left]; right++)
            picked += flag[right];
        sum += (double)picked * ((double)(left + 1 + right) / 2.0);
    }
    return sum;
}

/* Kendall's C - D of (x, y) from ranks, with no comparison sort (Knight,
 * JASA 1966; Fenwick, 1994): over the pairs (i, j) with y_rank[i] <
 * y_rank[j], +1 where x_rank[i] < x_rank[j] and -1 where x_rank[i] >
 * x_rank[j]; pairs tied in x or in y count for neither. *pairs gets P, the
 * number of pairs whose targets differ.
 *
 * A counting sort puts the x ranks into buckets by target rank, and the
 * buckets are visited in rank order. A Fenwick tree over the x ranks holds
 * the rows of the buckets already visited, with a plain count per x rank
 * beside it: a row has `below` of them strictly below its x rank (a prefix
 * sum of the tree), `same[x]` tied with it and the rest strictly above, so
 * it adds below - above = 2 * below + same[x] - added. A bucket's rows are
 * all counted before any of them is added, so pairs tied in y count for
 * nothing. Ranks are int64, x's below x_levels and y's below y_levels;
 * either may have gaps. work holds n + y_levels + 2 * x_levels + 2 int64. */
int64_t rank_concordance(const int64_t *x_rank, const int64_t *y_rank, int64_t n,
                         int64_t x_levels, int64_t y_levels, int64_t *work,
                         int64_t *pairs)
{
    int64_t *xs = work;                 /* x ranks, bucketed by target rank */
    int64_t *end = xs + n;              /* y_levels + 1 bucket bounds */
    int64_t *tree = end + y_levels + 1; /* Fenwick tree, 1-based: rank r at r + 1 */
    int64_t *same = tree + x_levels + 1;
    memset(end, 0, (size_t)(y_levels + 2 * x_levels + 2) * sizeof(int64_t));
    for (int64_t i = 0; i < n; i++)
        end[y_rank[i] + 1]++;
    for (int64_t r = 1; r < y_levels; r++)
        end[r] += end[r - 1];
    for (int64_t i = 0; i < n; i++) /* then end[r] is the end of bucket r */
        xs[end[y_rank[i]]++] = x_rank[i];

    int64_t added = 0, total = 0, untied = 0;
    for (int64_t r = 0, lo = 0; r < y_levels; lo = end[r++]) {
        int64_t hi = end[r];
        if (hi == lo)
            continue;
        for (int64_t k = lo; k < hi; k++) {
            int64_t below = 0;
            for (int64_t t = xs[k]; t > 0; t -= t & -t)
                below += tree[t];
            total += 2 * below + same[xs[k]];
        }
        untied += (hi - lo) * added;
        for (int64_t k = lo; k < hi; k++) {
            same[xs[k]]++;
            for (int64_t t = xs[k] + 1; t <= x_levels; t += t & -t)
                tree[t]++;
        }
        added += hi - lo;
    }
    *pairs = untied;
    return total - untied;
}

#define EXACT_SIGNIFICAND ((uint64_t)1 << 53) /* every integer up to it is a double */
#define EXACT_POW10 22 /* 10^22 = 2^22 * 5^22 is the largest power of ten that is a double */
#define LONG_EXPONENT ((int64_t)1 << 30) /* a written exponent past it is only counted */

static const double POW10[EXACT_POW10 + 1] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/* The numbers of data.py's typing cascade and schema re-parse: cell i is
 * data[starts[i]:ends[i]]. A cell in the grammar is the ASCII
 *     [+-]? (digits [. [digits]] | . digits) [(e|E) [+-]? digits]
 * and nothing else: no padding, no `_`, no inf or nan, no other digits.
 * Returns -1 at the first cell outside the grammar (the caller then converts
 * the whole column in Python), else 1 if every cell is an integer literal
 * [+-]?digits and 0 if not.
 *
 * A cell's significand w is its digits read as one integer, the point
 * dropped, and its exponent e the written exponent less the number of
 * digits after the point, so its value is w * 10^e. Where w <= 2^53 and
 * |e| <= 22, both w and 10^|e| are doubles exactly, so out[i] = w * 10^e
 * (or w / 10^-e) is one IEEE multiply (or divide) of exact operands. IEEE
 * rounds that one result to the nearest double, ties to even, which is the
 * double nearest the cell's value: Python's float of the cell, bit for bit
 * (Clinger, "How to Read Floating Point Numbers Accurately", PLDI 1990; the
 * fast path of Lemire, SPE 2021). A w of 0 gives a zero of the cell's sign
 * at any e. Every other cell gets flag[i] = 1 and out[i] unset, for the
 * caller to convert in Python; flag[i] is 0 otherwise. w stops growing past
 * 2^53 and the written exponent past LONG_EXPONENT, so no sum overflows. */
int64_t parse_numbers(const uint8_t *data, const int64_t *starts, const int64_t *ends, int64_t n,
                      double *out, uint8_t *flag)
{
    int64_t integral = 1;
    for (int64_t i = 0; i < n; i++) {
        const uint8_t *p = data + starts[i], *end = data + ends[i];
        int negative = 0, point = 0, exponent = 0;
        int64_t digits = 0, e = 0, x = 0;
        uint64_t w = 0;
        if (p < end && (*p == '+' || *p == '-'))
            negative = *p++ == '-';
        for (; p < end; p++) {
            if (*p >= '0' && *p <= '9') {
                digits++;
                e -= point;
                if (w <= EXACT_SIGNIFICAND)
                    w = w * 10 + (uint64_t)(*p - '0');
            } else if (*p == '.' && !point) {
                point = 1;
            } else {
                break;
            }
        }
        if (!digits)
            return -1;
        if (p < end && (*p == 'e' || *p == 'E')) {
            int exp_negative = 0;
            exponent = 1;
            if (++p < end && (*p == '+' || *p == '-'))
                exp_negative = *p++ == '-';
            if (p == end)
                return -1;
            for (; p < end && *p >= '0' && *p <= '9'; p++)
                if (x <= LONG_EXPONENT)
                    x = x * 10 + (*p - '0');
            e += exp_negative ? -x : x;
        }
        if (p != end)
            return -1;
        integral &= !point && !exponent;
        flag[i] = 0;
        if (w == 0) {
            out[i] = negative ? -0.0 : 0.0;
        } else if (w <= EXACT_SIGNIFICAND && x <= LONG_EXPONENT && e >= -EXACT_POW10
                   && e <= EXACT_POW10) {
            double v = e < 0 ? (double)w / POW10[-e] : (double)w * POW10[e];
            out[i] = negative ? -v : v;
        } else {
            flag[i] = 1;
        }
    }
    return integral;
}

#define FIRST_SLOTS 64 /* slots of code_cells' first table; a power of two */

typedef struct {
    uint64_t hash;
    int64_t id; /* -1 marks an empty slot */
} Slot;

static Slot *empty_slots(int64_t size)
{
    Slot *table = alloc(size, sizeof(Slot));
    for (int64_t s = 0; table && s < size; s++)
        table[s].id = -1;
    return table;
}

/* The distinct cells of data.py's category coder: cell i is
 * data[starts[i]:ends[i]]. codes[i] is the id of cell i's bytes, ids
 * counting from 0 in order of first appearance, and first[id] is the
 * position of the first cell with that id. Returns the number of ids, or
 * NO_MEMORY.
 *
 * An open-addressing table of (hash, id) slots, probed linearly from the
 * FNV-1a hash of a cell's bytes, finds each cell's id: a slot matches when
 * its hash, the length and the bytes (memcmp against the id's first cell)
 * are equal, so a colliding hash costs a probe and never a wrong id. The
 * table starts at FIRST_SLOTS slots and doubles whenever half of them are
 * taken, so its size follows the number of ids, not of cells. */
int64_t code_cells(const uint8_t *data, const int64_t *starts, const int64_t *ends, int64_t n,
                   int32_t *codes, int64_t *first)
{
    int64_t size = FIRST_SLOTS, k = 0;
    Slot *table = empty_slots(size);
    if (!table)
        return NO_MEMORY;
    for (int64_t i = 0; i < n; i++) {
        const uint8_t *p = data + starts[i];
        int64_t len = ends[i] - starts[i], s;
        uint64_t h = 14695981039346656037ULL;
        for (int64_t b = 0; b < len; b++)
            h = (h ^ p[b]) * 1099511628211ULL;
        for (s = (int64_t)(h & (uint64_t)(size - 1)); table[s].id >= 0; s = (s + 1) & (size - 1)) {
            int64_t j = first[table[s].id];
            if (table[s].hash == h && ends[j] - starts[j] == len
                && memcmp(data + starts[j], p, (size_t)len) == 0)
                break;
        }
        if (table[s].id >= 0) {
            codes[i] = (int32_t)table[s].id;
            continue;
        }
        codes[i] = (int32_t)k;
        first[k] = i;
        table[s].hash = h;
        table[s].id = k++;
        if (2 * k < size)
            continue;
        Slot *grown = empty_slots(2 * size); /* every id again, in a table twice the size */
        if (!grown) {
            free(table);
            return NO_MEMORY;
        }
        for (int64_t t = 0; t < size; t++) {
            if (table[t].id < 0)
                continue;
            int64_t u = (int64_t)(table[t].hash & (uint64_t)(2 * size - 1));
            while (grown[u].id >= 0)
                u = (u + 1) & (2 * size - 1);
            grown[u] = table[t];
        }
        free(table);
        table = grown;
        size *= 2;
    }
    free(table);
    return k;
}
