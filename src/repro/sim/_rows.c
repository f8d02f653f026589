/* Per-row passes beside the time loop, for repro.framework.layout and
 * the strict pre-flight's lint and race passes.
 *
 * Each entry point walks rows in place: capture's slot arrays, or a
 * frozen trace's width-tagged columns with its per-thread int64
 * `starts`.  Python sizes every output, and no entry point keeps state
 * between calls: the service captures and checks traces on executor
 * threads, and ctypes releases the GIL for the call.  The only memory
 * allocated here is a call's own hash set or slot table, freed before
 * it returns.
 *
 * The entry points, each held to an oracle by the tests:
 *   graphpim_lay_out      capture's row layout, byte for byte against
 *                         repro.framework.layout's numpy body;
 *   graphpim_lint         lint_columnar's per-row checks, counts and
 *                         first rows;
 *   graphpim_race_scan,   detect_races_columnar's store scan, the
 *   graphpim_race_cells,  cells its stores write and the writer
 *   graphpim_race_keep    filter;
 * the two passes finding for finding against the per-event analyzers.
 * Arithmetic on values wraps as numpy's int64 does (through uint64).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "_column.h"

/* ------------------------------------------------------------------ */
/* A set of non-negative int64 keys (open addressing, linear probing), */
/* with one byte of filter bits per slot: a lookup of an absent key    */
/* usually stops at the filter, which is an eighth of the table.       */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t *keys;  /* -1 marks an empty slot */
    uint8_t *bits;  /* 8 * cap filter bits */
    int64_t cap;    /* power of two */
    int64_t used;
    int shift;      /* 64 - log2(cap) */
} kset;

static int kset_init(kset *s, int64_t expect) {
    s->cap = 16;
    s->shift = 60;
    while (s->cap < 2 * expect) {
        s->cap <<= 1;
        s->shift--;
    }
    s->used = 0;
    s->keys = malloc((size_t)s->cap * sizeof(int64_t));
    s->bits = calloc((size_t)s->cap, 1);
    if (!s->keys || !s->bits) {
        free(s->keys);
        free(s->bits);
        return -1;
    }
    memset(s->keys, 0xff, (size_t)s->cap * sizeof(int64_t));
    return 0;
}

static void kset_free(kset *s) {
    free(s->keys);
    free(s->bits);
}

static inline uint64_t kset_hash(int64_t key) {
    return (uint64_t)key * 0x9E3779B97F4A7C15ULL;
}

static inline int kset_has(const kset *s, int64_t key) {
    uint64_t h = kset_hash(key), f = h >> (s->shift - 3);
    if (!(s->bits[f >> 3] >> (f & 7) & 1))
        return 0;
    for (int64_t i = (int64_t)(h >> s->shift);; i = (i + 1) & (s->cap - 1)) {
        if (s->keys[i] == key)
            return 1;
        if (s->keys[i] < 0)
            return 0;
    }
}

static int kset_add(kset *s, int64_t key);

static int kset_grow(kset *s) {
    kset bigger;
    if (kset_init(&bigger, s->cap) != 0)
        return -1;
    for (int64_t i = 0; i < s->cap; i++)
        if (s->keys[i] >= 0)
            kset_add(&bigger, s->keys[i]);
    kset_free(s);
    *s = bigger;
    return 0;
}

/* Adds key (>= 0); 0, or -1 when out of memory. */
static int kset_add(kset *s, int64_t key) {
    uint64_t h = kset_hash(key), f = h >> (s->shift - 3);
    int64_t i = (int64_t)(h >> s->shift);
    for (; s->keys[i] >= 0; i = (i + 1) & (s->cap - 1))
        if (s->keys[i] == key)
            return 0;
    s->keys[i] = key;
    s->bits[f >> 3] |= (uint8_t)(1u << (f & 7));
    s->used++;
    return 2 * s->used > s->cap ? kset_grow(s) : 0;
}

/* ------------------------------------------------------------------ */
/* Row layout (repro.framework.layout.lay_out).                        */
/* ------------------------------------------------------------------ */

/* Kind of a slot that records work but no event (layout.WORK). */
#define LAY_WORK (-1)

/* Fields of one slot descriptor row: kind, size, op, ret, then addr,
 * work and keep as (value, width) pairs.  Width 0 means the value is
 * the slot's scalar; otherwise it is the address of an array of that
 * byte width with one entry per item (head, tail) or edge. */
#define LAY_FIELDS 10

typedef struct {
    column c;
    int64_t value;
} lay_field;

typedef struct {
    int64_t kind, size, op, ret;
    lay_field addr, work, keep;
} lay_slot;

/* The six output columns and their byte widths (addr is int64), or
 * data[0] NULL on the counting walk. */
typedef struct {
    char *data[6];
    int64_t width[6];
} lay_out_cols;

static inline int64_t lay_at(const lay_field *f, int64_t i) {
    return f->c.width ? col_at(f->c, i) : f->value;
}

static lay_field lay_decode(const int64_t *d) {
    lay_field f;
    f.c.width = d[1];
    f.c.data = d[1] ? (const char *)(intptr_t)d[0] : NULL;
    f.value = d[1] ? 0 : d[0];
    return f;
}

/* One slot at entry i: its work is counted where it runs, and a kept
 * event slot records a row whose gap is the work counted since the
 * segment's previous row. */
static inline void lay_slot_at(const lay_slot *s, int64_t i,
                               uint64_t *pending, int64_t *row,
                               int64_t *gap_min, int64_t *gap_max,
                               const lay_out_cols *out) {
    int64_t keep = lay_at(&s->keep, i);
    *pending += (uint64_t)lay_at(&s->work, i) * (uint64_t)keep;
    if (s->kind == LAY_WORK || !keep)
        return;
    int64_t gap = (int64_t)*pending, r = *row;
    *pending = 0;
    *row = r + 1;
    if (!out) {
        if (gap < *gap_min)
            *gap_min = gap;
        if (gap > *gap_max)
            *gap_max = gap;
        return;
    }
    col_put(out->data[0], out->width[0], r, s->kind);
    ((int64_t *)out->data[1])[r] = lay_at(&s->addr, i);
    col_put(out->data[2], out->width[2], r, s->size);
    col_put(out->data[3], out->width[3], r, gap);
    col_put(out->data[4], out->width[4], r, s->op);
    col_put(out->data[5], out->width[5], r, s->ret);
}

/* Lays out `n_segments` segments of items (counts[k] items each, in
 * order): each item's head slots, degrees[item] rounds of the edge
 * slots (edge arrays run over all items' edges; degrees NULL means
 * none), then its tail slots.  The slot table `desc` holds n_head,
 * then n_edge, then n_tail rows of LAY_FIELDS.
 *
 * With cols NULL the call counts: it fills bounds (n_segments + 1 row
 * offsets), trailing (each segment's work after its last row) and
 * gap_range (the least and greatest gap; 0, -1 with no rows).  With
 * cols set it writes the rows into the six columns of the given widths
 * (widths[6]).  Returns the number of rows, or -1 when out of memory. */
int64_t graphpim_lay_out(
    int64_t n_segments, const int64_t *counts, const int64_t *degrees,
    int64_t n_head, int64_t n_edge, int64_t n_tail, const int64_t *desc,
    int64_t *bounds, int64_t *trailing, int64_t *gap_range,
    void *kind_p, void *addr_p, void *size_p, void *gap_p, void *op_p,
    void *ret_p, const int64_t *widths) {
    int64_t n_slots = n_head + n_edge + n_tail;
    lay_slot *slots = malloc((size_t)(n_slots ? n_slots : 1) * sizeof *slots);
    if (!slots)
        return -1;
    for (int64_t s = 0; s < n_slots; s++) {
        const int64_t *d = desc + s * LAY_FIELDS;
        slots[s].kind = d[0];
        slots[s].size = d[1];
        slots[s].op = d[2];
        slots[s].ret = d[3];
        slots[s].addr = lay_decode(d + 4);
        slots[s].work = lay_decode(d + 6);
        slots[s].keep = lay_decode(d + 8);
    }
    const lay_slot *head = slots, *edge = slots + n_head,
                   *tail = slots + n_head + n_edge;
    lay_out_cols cols;
    const lay_out_cols *out = NULL;
    if (kind_p) {
        void *data[6] = {kind_p, addr_p, size_p, gap_p, op_p, ret_p};
        for (int c = 0; c < 6; c++) {
            cols.data[c] = data[c];
            cols.width[c] = widths[c];
        }
        out = &cols;
    }
    int64_t item = 0, e = 0, row = 0;
    int64_t gap_min = INT64_MAX, gap_max = INT64_MIN;
    if (bounds)
        bounds[0] = 0;
    for (int64_t k = 0; k < n_segments; k++) {
        uint64_t pending = 0;
        for (int64_t end = item + counts[k]; item < end; item++) {
            for (int64_t s = 0; s < n_head; s++)
                lay_slot_at(head + s, item, &pending, &row, &gap_min,
                            &gap_max, out);
            int64_t degree = degrees && n_edge ? degrees[item] : 0;
            for (int64_t end_e = e + degree; e < end_e; e++)
                for (int64_t s = 0; s < n_edge; s++)
                    lay_slot_at(edge + s, e, &pending, &row, &gap_min,
                                &gap_max, out);
            for (int64_t s = 0; s < n_tail; s++)
                lay_slot_at(tail + s, item, &pending, &row, &gap_min,
                            &gap_max, out);
        }
        if (bounds) {
            trailing[k] = (int64_t)pending;
            bounds[k + 1] = row;
        }
    }
    if (gap_range) {
        gap_range[0] = row ? gap_min : 0;
        gap_range[1] = row ? gap_max : -1;
    }
    free(slots);
    return row;
}

/* ------------------------------------------------------------------ */
/* Lint sweep (repro.analysis.passes.lint_pass.lint_columnar).         */
/* ------------------------------------------------------------------ */

/* Finding variants, in the legacy linter's intra-event check order. */
#define V_BARRIER_NEG 0
#define V_SIZEGAP 1
#define V_REGION 2
#define V_OP 3
#define V_PIM001 4
#define V_PIM002 5
#define N_VARIANTS 6

static inline int in_list(int64_t v, const int64_t *list, int64_t n) {
    for (int64_t i = 0; i < n; i++)
        if (list[i] == v)
            return 1;
    return 0;
}

/* Sorted allocation spans, with the span each region tag last found:
 * consecutive accesses of a thread mostly stay in one array per region,
 * so the search is mostly skipped. */
typedef struct {
    const int64_t *bases, *ends;
    int64_t n, shift;
    int64_t hint[4];
} spans;

/* Whether address a (>= 0) lies in the span with the last base <= a,
 * as the oracle's bisect decides. */
static inline int in_allocation(spans *sp, int64_t a) {
    int64_t *hint = &sp->hint[(a >> sp->shift) & 3], i = *hint;
    if (i < 0 || sp->bases[i] > a ||
        (i + 1 < sp->n && sp->bases[i + 1] <= a)) {
        int64_t len = sp->n; /* branch-free: the last base <= a */
        for (i = 0; len > 1; len -= len / 2)
            i = sp->bases[i + len / 2] <= a ? i + len / 2 : i;
        if (!sp->n || sp->bases[i] > a)
            return 0;
        *hint = i;
    }
    return a < sp->ends[i];
}

/* One sweep of every row of T threads.
 *
 * params: region_shift, property region, region end, the number of
 * valid atomic ops, of ops with an HMC command, of allocation spans
 * (-1: no allocation check), whether PIM002 is checked, and the cap of
 * rows kept per variant.  valid_ops and supported_ops list the op
 * values; bases and ends are the spans' sorted bounds.
 *
 * Outputs: counts[v] every row of variant v; kept[v * cap ...] its first
 * min(cap, counts[v]) global rows, ascending; barriers[t] thread t's
 * barrier count and flags[t] bit 0 when its barrier ids differ from
 * thread 0's, bit 1 when they ever decrease.  Returns 0, or -1 when out
 * of memory. */
int graphpim_lint(
    int64_t T, const void *kind_p, const void *addr_p, const void *size_p,
    const void *gap_p, const void *op_p, const int64_t *widths,
    const int64_t *starts, const int64_t *params, const int64_t *valid_ops,
    const int64_t *supported_ops, const int64_t *bases, const int64_t *ends,
    int64_t *counts, int64_t *kept, int64_t *barriers, int64_t *flags) {
    const column kind = {kind_p, widths[0]}, addr = {addr_p, widths[1]},
                 size = {size_p, widths[2]}, gap = {gap_p, widths[3]},
                 op = {op_p, widths[4]};
    const int64_t shift = params[0], pmr = params[1], region_end = params[2];
    const int64_t n_valid = params[3], n_supported = params[4];
    const int64_t n_spans = params[5], check_pim002 = params[6];
    const int64_t cap = params[7];
    const int64_t n = T ? starts[T] : 0;
    spans sp = {bases, ends, n_spans, shift, {-1, -1, -1, -1}};
    kset lines = {NULL, NULL, 0, 0, 0};
    if (check_pim002) {
        /* The lines of PMR atomics, whose cached accesses PIM002 flags. */
        if (kset_init(&lines, 1024) != 0)
            return -1;
        for (int64_t p = 0; p < n; p++) {
            int64_t a = col_at(addr, p);
            if (col_at(kind, p) == EV_ATOMIC && (a >> shift) == pmr &&
                kset_add(&lines, a >> 6) != 0) {
                kset_free(&lines);
                return -1;
            }
        }
    }
    for (int v = 0; v < N_VARIANTS; v++)
        counts[v] = 0;
    /* Thread 0's barrier ids, walked beside each later thread's. */
    const int64_t ref_lo = T ? starts[0] : 0, ref_hi = T ? starts[1] : 0;
    for (int64_t t = 0; t < T; t++) {
        int64_t ref = ref_lo, seen = 0, last_id = 0, flag = 0;
        for (int64_t p = starts[t]; p < starts[t + 1]; p++) {
            int64_t k = col_at(kind, p), a = col_at(addr, p);
            int64_t s = col_at(size, p), g = col_at(gap, p);
            unsigned hits = 0;
            if (k == EV_BARRIER) {
                /* The barrier id rides in the size column. */
                hits |= (unsigned)(s < 0 || g < 0) << V_BARRIER_NEG;
                if (seen && s < last_id)
                    flag |= 2;
                last_id = s;
                seen++;
                if (t) {
                    while (ref < ref_hi && col_at(kind, ref) != EV_BARRIER)
                        ref++;
                    if (ref == ref_hi || col_at(size, ref) != s)
                        flag |= 1;
                    else
                        ref++;
                }
            } else {
                int region_ok = a >= 0 && a < region_end;
                int in_pmr = (a >> shift) == pmr;
                hits |= (unsigned)(s <= 0 || g < 0) << V_SIZEGAP;
                hits |= (unsigned)(!region_ok ||
                                   (n_spans >= 0 && !in_allocation(&sp, a)))
                        << V_REGION;
                if (k == EV_ATOMIC) {
                    int64_t o = col_at(op, p);
                    hits |= (unsigned)!in_list(o, valid_ops, n_valid) << V_OP;
                    hits |= (unsigned)(in_pmr &&
                                       !in_list(o, supported_ops, n_supported))
                            << V_PIM001;
                } else if (check_pim002 && in_pmr) {
                    hits |= (unsigned)kset_has(&lines, a >> 6) << V_PIM002;
                }
            }
            for (int v = 0; hits; v++, hits >>= 1) {
                if (!(hits & 1))
                    continue;
                if (counts[v] < cap)
                    kept[v * cap + counts[v]] = p;
                counts[v]++;
            }
        }
        if (t) {
            while (ref < ref_hi && col_at(kind, ref) != EV_BARRIER)
                ref++;
            if (ref < ref_hi)
                flag |= 1; /* thread 0 has more barriers */
        }
        barriers[t] = seen;
        flags[t] = flag;
    }
    if (check_pim002)
        kset_free(&lines);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Race sweeps (repro.analysis.passes.race_pass).                      */
/* ------------------------------------------------------------------ */

/* A walk over every row of T threads that stops at each access (a row
 * that is not a barrier), with its row `at`, kind k and barrier epoch:
 * its thread's barrier count before it. */
typedef struct {
    column kind;
    const int64_t *starts;
    int64_t T, t, p, end, at, k, epoch;
} access_walk;

static access_walk access_walk_start(column kind, const int64_t *starts,
                                     int64_t T) {
    access_walk w = {kind, starts, T, -1, 0, 0, 0, 0, 0};
    return w;
}

/* Advances to the next access; 0 when the rows run out. */
static inline int next_access(access_walk *w) {
    for (;;) {
        while (w->p == w->end) {
            if (++w->t >= w->T)
                return 0;
            w->p = w->starts[w->t];
            w->end = w->starts[w->t + 1];
            w->epoch = 0;
        }
        int64_t p = w->p++, k = col_at(w->kind, p);
        if (k == EV_BARRIER) {
            w->epoch++;
            continue;
        }
        w->at = p;
        w->k = k;
        return 1;
    }
}

/* Whether access p is well-formed (every byte in [0, 2^63), as the
 * oracle's _well_formed), and its first and last bucket. */
static inline int access_buckets(column addr, column size, int64_t p,
                                 int64_t bucket_shift, int64_t *first,
                                 int64_t *last) {
    int64_t a = col_at(addr, p), s = col_at(size, p);
    if (a < 0 || s <= 0 || s - 1 > INT64_MAX - a)
        return 0;
    *first = a >> bucket_shift;
    *last = (a + s - 1) >> bucket_shift;
    return 1;
}

/* The store scan and sweep 1: out[0] the well-formed plain stores,
 * out[1] the greatest epoch and out[2] the greatest last bucket of any
 * well-formed access (0 with none), out[3] the buckets the stores
 * cover, counted up to INT64_MAX.  All four are 0 when there is no
 * well-formed store, found by a walk that reads addr and size at
 * stores alone and stops at the first. */
void graphpim_race_scan(int64_t T, const void *kind_p, const void *addr_p,
                        const void *size_p, const int64_t *widths,
                        const int64_t *starts, int64_t bucket_shift,
                        int64_t *out) {
    const column kind = {kind_p, widths[0]}, addr = {addr_p, widths[1]},
                 size = {size_p, widths[2]};
    access_walk w = access_walk_start(kind, starts, T);
    int64_t first = 0, last = 0;
    int64_t stores = 0, max_epoch = 0, max_bucket = 0, cells = 0;
    while (next_access(&w) &&
           !(w.k == EV_STORE &&
             access_buckets(addr, size, w.at, bucket_shift, &first, &last)))
        ;
    if (w.t < T)
        w = access_walk_start(kind, starts, T);
    while (next_access(&w)) {
        if (!access_buckets(addr, size, w.at, bucket_shift, &first, &last))
            continue;
        if (w.epoch > max_epoch)
            max_epoch = w.epoch;
        if (last > max_bucket)
            max_bucket = last;
        if (w.k == EV_STORE) {
            int64_t span = last - first + 1;
            stores++;
            cells = span > INT64_MAX - cells ? INT64_MAX : cells + span;
        }
    }
    out[0] = stores;
    out[1] = max_epoch;
    out[2] = max_bucket;
    out[3] = cells;
}

/* The packed cells (epoch << bbits | bucket) of every bucket each
 * well-formed store covers, in row order, into keys (out[3] of the
 * scan entries). */
void graphpim_race_cells(int64_t T, const void *kind_p, const void *addr_p,
                         const void *size_p, const int64_t *widths,
                         const int64_t *starts, int64_t bucket_shift,
                         int64_t bbits, int64_t *keys) {
    const column kind = {kind_p, widths[0]}, addr = {addr_p, widths[1]},
                 size = {size_p, widths[2]};
    access_walk w = access_walk_start(kind, starts, T);
    int64_t first = 0, last = 0;
    int64_t j = 0;
    while (next_access(&w))
        if (w.k == EV_STORE &&
            access_buckets(addr, size, w.at, bucket_shift, &first, &last))
            for (int64_t b = first; b <= last; b++)
                keys[j++] = (w.epoch << bbits) | b;
}

/* Buckets an access may span and still be looked up one by one. */
#define PROBE_SPAN 8

/* The writer filter (sweep 2), in two calls over the same rows.
 *
 * With rows NULL the call probes: it sets bit p of `mask` (one bit per
 * row, zeroed by the caller) for every well-formed access p whose cells
 * meet one of the `n_written` sorted, distinct cells in `written` (which
 * ends with a sentinel above every cell, not counted in n_written), and
 * returns how many it set, or -1 when out of memory.  With rows set it
 * writes each marked row, its epoch, first bucket and bucket count, in
 * row order, and returns how many. */
int64_t graphpim_race_keep(int64_t T, const void *kind_p,
                           const void *addr_p, const void *size_p,
                           const int64_t *widths, const int64_t *starts,
                           int64_t bucket_shift, int64_t bbits,
                           const int64_t *written, int64_t n_written,
                           uint8_t *mask, int64_t *rows, int64_t *epochs,
                           int64_t *firsts, int64_t *spans) {
    const column kind = {kind_p, widths[0]}, addr = {addr_p, widths[1]},
                 size = {size_p, widths[2]};
    access_walk w = access_walk_start(kind, starts, T);
    int64_t first = 0, last = 0;
    int64_t j = 0;
    if (rows) {
        while (next_access(&w)) {
            if (!(mask[w.at >> 3] >> (w.at & 7) & 1))
                continue;
            access_buckets(addr, size, w.at, bucket_shift, &first, &last);
            rows[j] = w.at;
            epochs[j] = w.epoch;
            firsts[j] = first;
            spans[j] = last - first + 1;
            j++;
        }
        return j;
    }
    kset cells;
    if (kset_init(&cells, n_written) != 0)
        return -1;
    for (int64_t i = 0; i < n_written; i++)
        if (kset_add(&cells, written[i]) != 0) {
            kset_free(&cells);
            return -1;
        }
    while (next_access(&w)) {
        if (!access_buckets(addr, size, w.at, bucket_shift, &first, &last))
            continue;
        int64_t low = (w.epoch << bbits) | first, high = low + (last - first);
        int hit = 0;
        if (last - first < PROBE_SPAN) {
            for (int64_t c = low; c <= high && !hit; c++)
                hit = kset_has(&cells, c);
        } else {
            int64_t lo = 0, hi = n_written; /* first cell >= low */
            while (lo < hi) {
                int64_t mid = lo + (hi - lo) / 2;
                if (written[mid] < low)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            hit = written[lo] <= high;
        }
        if (hit) {
            mask[w.at >> 3] |= (uint8_t)(1u << (w.at & 7));
            j++;
        }
    }
    kset_free(&cells);
    return j;
}
