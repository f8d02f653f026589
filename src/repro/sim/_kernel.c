/* Batch simulation time loop for repro.sim.vectorized.
 *
 * A translation of the per-event reference interpreter (repro.sim.core,
 * repro.sim.cache, repro.hmc.device and repro.faults.injector) that
 * drains the same smallest-clock-first scheduler.  It reads the trace's
 * own six columns (kind, addr, size, gap, op, ret) in place, each a
 * signed integer array of its own byte width (1, 2, 4 or 8; the trace
 * keeps each column in the narrowest type that holds it), and the
 * per-thread int64 `starts` offsets, and derives each event's route,
 * cache sets, vault/bank, transaction kind, response FLITs, FP flag and
 * issue cycles as the event is scheduled.
 *
 * Fault plans run here too.  Python builds the plan's FaultInjector and
 * hands over its packet-error tables (one per link direction, indexed
 * by FLIT count, so C never calls pow), the per-vault stall phases
 * (already multiplied by the period) and its draw stream: a block of
 * doubles filled by the injector's generator, consumed by cursor and
 * refilled through a callback.  Within one transaction attempt the
 * draws come in the reference's order: request-packet retransmissions,
 * response-packet retransmissions, then one drop draw when the plan's
 * drop rate is positive.
 *
 * BIT-IDENTITY CONTRACT: every double-precision operation here mirrors
 * the reference implementation's expression order exactly.  CPython
 * floats are C doubles, so identical operations in identical order give
 * identical bits — provided the compiler neither contracts multiply-adds
 * into FMAs nor reassociates.  Build with -ffp-contract=off and WITHOUT
 * -ffast-math (repro.sim._cbuild owns the flags).  Do not "simplify"
 * float expressions: a + b + c and a + (b + c) are different bits.
 *
 * LRU sets are arrays ordered oldest-first (index 0 evicts next), which
 * reproduces the reference's OrderedDict semantics; the directory maps
 * line -> 64-bit core bitmask (sharer iteration order never affects
 * observable state, so a bitmask replaces the reference's Python set);
 * FU pools use first-minimum scans exactly like the reference.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Event kinds (repro.trace.events). */
#define EV_LOAD 0
#define EV_ATOMIC 2
#define EV_BARRIER 3

/* Modes (repro.sim.config.Mode), as numbered by repro.sim.vectorized. */
#define MODE_BASELINE 0
#define MODE_UPEI 1
#define MODE_GRAPHPIM 2

/* Per-event routes, derived from kind, address region, op and mode. */
#define R_BARRIER 0
#define R_LOAD_CACHE 1
#define R_LOAD_BYPASS 2
#define R_STORE_CACHE 3
#define R_STORE_BYPASS 4
#define R_ATOMIC_HOST 5
#define R_ATOMIC_PIM 6
#define R_ATOMIC_UPEI 7
#define R_ATOMIC_HOST_CAND 8

/* Largest packet in FLITs (Table V); error tables have MAX_FLITS + 1
 * entries. */
#define MAX_FLITS 5

/* Return codes. */
#define SIM_OK 0
#define SIM_ERR_BARRIER_MISMATCH 1
#define SIM_ERR_STUCK_AT_BARRIER 2
#define SIM_ERR_NOMEM 3
#define SIM_ERR_RETRY_EXHAUSTED 4
#define SIM_ERR_DRAWS 5
#define SIM_ERR_NONFINITE 6

/* Refills the draw block; 0 on success. */
typedef int (*refill_fn)(void);

/* One trace column: its values and their byte width (1, 2, 4 or 8). */
typedef struct {
    const char *data;
    int64_t width;
} column;

/* Value i of a column, widened to int64.  The widths never change
 * during a run, so the branch predicts perfectly. */
static inline int64_t col_at(column c, int64_t i) {
    switch (c.width) {
    case 1:
        return ((const int8_t *)c.data)[i];
    case 2:
        return ((const int16_t *)c.data)[i];
    case 4:
        return ((const int32_t *)c.data)[i];
    default:
        return ((const int64_t *)c.data)[i];
    }
}

/* x mod n for x >= 0; `mask` is n - 1 when n is a power of two, else -1. */
static inline int64_t imod(int64_t x, int64_t n, int64_t mask) {
    return mask >= 0 ? (x & mask) : x % n;
}

static int64_t pow2_mask(int64_t n) {
    return (n & (n - 1)) == 0 ? n - 1 : -1;
}

/* ------------------------------------------------------------------ */
/* Open-addressing hash map: int64 line -> uint64 core bitmask.        */
/* Also used valueless as the dirty-line set.                          */
/* ------------------------------------------------------------------ */

#define H_EMPTY (-1)
#define H_TOMB (-2)

typedef struct {
    int64_t *keys;
    uint64_t *vals;
    size_t cap;   /* power of two */
    size_t used;  /* live + tombstones */
    size_t live;
} hmap;

static size_t h_slot(int64_t key, size_t cap) {
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ULL;
    return (size_t)(h >> 32) & (cap - 1);
}

static int h_init(hmap *m, size_t cap) {
    m->cap = cap;
    m->used = 0;
    m->live = 0;
    m->keys = malloc(cap * sizeof(int64_t));
    m->vals = malloc(cap * sizeof(uint64_t));
    if (!m->keys || !m->vals) {
        free(m->keys);
        free(m->vals);
        m->keys = NULL;
        m->vals = NULL;
        return -1;
    }
    for (size_t i = 0; i < cap; i++) m->keys[i] = H_EMPTY;
    return 0;
}

static void h_free(hmap *m) {
    free(m->keys);
    free(m->vals);
    m->keys = NULL;
    m->vals = NULL;
}

/* Find the slot holding `key`, or (size_t)-1. */
static size_t h_find(const hmap *m, int64_t key) {
    size_t i = h_slot(key, m->cap);
    for (;;) {
        int64_t k = m->keys[i];
        if (k == key) return i;
        if (k == H_EMPTY) return (size_t)-1;
        i = (i + 1) & (m->cap - 1);
    }
}

static int h_grow(hmap *m) {
    hmap next;
    if (h_init(&next, m->cap * 2) != 0) return -1;
    for (size_t i = 0; i < m->cap; i++) {
        int64_t k = m->keys[i];
        if (k >= 0) {
            size_t j = h_slot(k, next.cap);
            while (next.keys[j] != H_EMPTY) j = (j + 1) & (next.cap - 1);
            next.keys[j] = k;
            next.vals[j] = m->vals[i];
            next.used++;
            next.live++;
        }
    }
    h_free(m);
    *m = next;
    return 0;
}

/* Slot for inserting/updating `key` (existing slot reused).  Returns
 * (size_t)-1 on allocation failure.  The caller sets vals[slot]. */
static size_t h_put_slot(hmap *m, int64_t key) {
    if ((m->used + 1) * 2 > m->cap) {
        if (h_grow(m) != 0) return (size_t)-1;
    }
    size_t i = h_slot(key, m->cap);
    size_t tomb = (size_t)-1;
    for (;;) {
        int64_t k = m->keys[i];
        if (k == key) return i;
        if (k == H_EMPTY) {
            if (tomb != (size_t)-1) {
                i = tomb;
            } else {
                m->used++;
            }
            m->keys[i] = key;
            m->vals[i] = 0;
            m->live++;
            return i;
        }
        if (k == H_TOMB && tomb == (size_t)-1) tomb = i;
        i = (i + 1) & (m->cap - 1);
    }
}

static void h_del_slot(hmap *m, size_t slot) {
    m->keys[slot] = H_TOMB;
    m->live--;
}

/* ------------------------------------------------------------------ */
/* LRU cache sets: per-set line arrays ordered oldest-first.           */
/* Mirrors _SetAssocCache built on OrderedDict.                        */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t *lines; /* [num_sets][ways], oldest at index 0 */
    int32_t *count; /* [num_sets] */
    int64_t ways;
} lruset;

static int lru_init(lruset *c, int64_t num_sets, int64_t ways) {
    c->ways = ways;
    c->lines = malloc((size_t)num_sets * (size_t)ways * sizeof(int64_t));
    c->count = calloc((size_t)num_sets, sizeof(int32_t));
    if (!c->lines || !c->count) {
        free(c->lines);
        free(c->count);
        c->lines = NULL;
        c->count = NULL;
        return -1;
    }
    return 0;
}

static void lru_free(lruset *c) {
    free(c->lines);
    free(c->count);
    c->lines = NULL;
    c->count = NULL;
}

/* lookup-and-touch: OrderedDict `in` + move_to_end.  1 on hit. */
static int lru_lookup(lruset *c, int64_t set, int64_t line) {
    int64_t *s = c->lines + set * c->ways;
    int32_t n = c->count[set];
    for (int32_t i = 0; i < n; i++) {
        if (s[i] == line) {
            for (int32_t j = i; j < n - 1; j++) s[j] = s[j + 1];
            s[n - 1] = line;
            return 1;
        }
    }
    return 0;
}

/* insert a line the caller knows is absent (it has just missed on it),
 * with LRU eviction; returns the victim line or -1. */
static int64_t lru_fill(lruset *c, int64_t set, int64_t line) {
    int64_t *s = c->lines + set * c->ways;
    int32_t n = c->count[set];
    if (n >= c->ways) {
        int64_t victim = s[0];
        for (int32_t j = 0; j < n - 1; j++) s[j] = s[j + 1];
        s[n - 1] = line;
        return victim;
    }
    s[n] = line;
    c->count[set] = n + 1;
    return -1;
}

/* drop a line if present (no return value needed by callers). */
static void lru_invalidate(lruset *c, int64_t set, int64_t line) {
    int64_t *s = c->lines + set * c->ways;
    int32_t n = c->count[set];
    for (int32_t i = 0; i < n; i++) {
        if (s[i] == line) {
            for (int32_t j = i; j < n - 1; j++) s[j] = s[j + 1];
            c->count[set] = n - 1;
            return;
        }
    }
}

static int lru_contains(const lruset *c, int64_t set, int64_t line) {
    const int64_t *s = c->lines + set * c->ways;
    int32_t n = c->count[set];
    for (int32_t i = 0; i < n; i++) {
        if (s[i] == line) return 1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Scheduler: the reference pops the smallest (t, core) off a heap.    */
/* ------------------------------------------------------------------ */

/* The first minimum of `ready`, one clock per core, +inf for a core at
 * a barrier or done.  Each runnable core has one entry and core ids are
 * distinct, so while the clocks are finite the first minimum is the
 * smallest (t, core) and the sequence matches the heap's pops.
 * Branch-free over at most 64. */
static int64_t next_core(const double *ready, int64_t T) {
    int64_t best = 0;
    double bt = ready[0];
    for (int64_t c = 1; c < T; c++) {
        int lt = ready[c] < bt;
        bt = lt ? ready[c] : bt;
        best = lt ? c : best;
    }
    return best;
}

/* ------------------------------------------------------------------ */
/* Simulation state shared by the resource helpers.                    */
/* ------------------------------------------------------------------ */

/* One link direction; mirrors _LinkLane. */
typedef struct {
    double backlog, anchor, wait;
} lane;

typedef struct {
    /* geometry; m* are the pow2_mask of the matching modulus */
    int64_t T, mlp, n1sets, n2sets, n3sets, m1, m2, m3;
    int64_t num_vaults, banks_per_vault, mv, mb;
    int64_t fus_per_vault, fp_pool, prefetch;
    /* routing */
    int64_t mode, bypass, fp_ext, region_shift, property_region;
    const int64_t *tk_lut, *respf_lut, *fp_lut; /* by op (x2 for ret) */
    /* timing constants (exact doubles handed over from Python) */
    double lat1, lat12, lat123, coh_pen, freeze, fp_extra, upei_op;
    double uc_posted, offload_issue, link_lat, vault_oh, tRCD, tCL, burst;
    double fu_op, fp_fu_op, occ_read, occ_write, occ_at_int, occ_at_fp;
    double rate, inv_issue;
    double cost[MAX_FLITS + 1]; /* flits / rate, as _LinkLane.reserve */
    /* cache state */
    lruset *l1; /* [T] */
    lruset *l2; /* [T] */
    lruset l3;
    hmap dir, dirty;
    int64_t l1_hits, l1_misses, l2_hits, l2_misses, l3_hits, l3_misses;
    int64_t invalidations, writebacks, prefetches;
    /* HMC state */
    double *bank_free; /* [num_vaults][banks_per_vault] */
    double *fu;        /* [num_vaults][fus_per_vault] */
    double *fp;        /* [num_vaults][fp_pool] */
    lane req, resp;
    double bank_wait;
    int64_t activates, dreads, dwrites, fu_int, fu_fp;
    /* atomics whose first-minimum integer FU was still busy */
    int64_t fu_waits;
    int64_t req_counts[6], reqf_counts[6], respf_counts[6];
    int64_t tk_order[6], tk_len;
    /* fault plan (faults == 0: fault-free, nothing below is read) */
    int64_t faults, max_retx, retry_budget, stall_on;
    double retry_lat, reissue_timeout, drop_rate;
    double stall_period, stall_duration;
    const double *req_perr, *resp_perr; /* [MAX_FLITS + 1] */
    const double *stall_phase;          /* [num_vaults], phase * period */
    double *block;
    int64_t block_len, cursor;
    refill_fn refill;
    int64_t retx_flits, reissued;
    double stall_cycles;
    /* first failure inside an event: rc, attempts, 1 if a PIM atomic */
    int err;
    int64_t err_attempts, err_pim;
    /* writeback lines produced by the current full-miss access */
    int64_t wb[2];
    int wb_n;
} simstate;

static void fail(simstate *S, int rc, int64_t attempts, int64_t pim) {
    if (S->err) return;
    S->err = rc;
    S->err_attempts = attempts;
    S->err_pim = pim;
}

/* ------------------------------------------------------------------ */
/* Fault decisions; mirror FaultInjector.                              */
/* ------------------------------------------------------------------ */

/* Next double of the injector's stream.  A failed refill reads as 1.0,
 * which no draw loop treats as a fault, so every loop ends and the
 * caller sees S->err after the event. */
static double draw(simstate *S) {
    if (S->cursor == S->block_len) {
        if (S->refill() != 0) {
            fail(S, SIM_ERR_DRAWS, 0, 0);
            return 1.0;
        }
        S->cursor = 0;
    }
    return S->block[S->cursor++];
}

/* FaultInjector._retransmissions: geometric, capped by the plan. */
static int64_t retransmissions(simstate *S, double p_err) {
    int64_t count = 0;
    if (p_err <= 0.0) return 0;
    while (count < S->max_retx) {
        if (draw(S) >= p_err) break;
        count++;
    }
    return count;
}

/* FaultInjector.response_dropped. */
static int response_dropped(simstate *S) {
    if (!S->faults || S->drop_rate <= 0.0) return 0;
    return draw(S) < S->drop_rate;
}

/* FaultInjector.vault_stall_delay, with Python's float modulo. */
static double stall_delay(const simstate *S, int64_t v, double t) {
    double period = S->stall_period;
    double offset = fmod(t - S->stall_phase[v], period);
    if (offset != 0.0) {
        if ((period < 0.0) != (offset < 0.0)) offset += period;
    } else {
        offset = copysign(0.0, period);
    }
    return offset < S->stall_duration ? S->stall_duration - offset : 0.0;
}

/* ------------------------------------------------------------------ */
/* HMC resources; mirror HmcDevice's reservation helpers.              */
/* ------------------------------------------------------------------ */

/* _LinkLane.reserve: returns the last FLIT's departure. */
static double lane_reserve(lane *L, double rate, double t, int64_t flits,
                           double cost) {
    if (t > L->anchor) {
        double b = L->backlog - (t - L->anchor) * rate;
        L->backlog = b > 0.0 ? b : 0.0;
        L->anchor = t;
    }
    double w = L->backlog / rate;
    L->wait += w;
    L->backlog += flits;
    return t + w + cost;
}

/* _reserve_{req,resp}_link: send, then replay CRC-failed packets. */
static double link_send(simstate *S, lane *L, const double *perr, double t,
                        int64_t flits) {
    double cost = S->cost[flits];
    double end = lane_reserve(L, S->rate, t, flits, cost);
    if (S->faults) {
        int64_t retries = retransmissions(S, perr[flits]);
        for (int64_t i = 0; i < retries; i++) {
            end = lane_reserve(L, S->rate, end + S->retry_lat, flits, cost);
            S->retx_flits += flits;
        }
    }
    return end;
}

/* _reserve_bank: returns the row cycle's start. */
static double bank_reserve(simstate *S, int64_t v, int64_t bk, double t,
                           double occupancy) {
    if (S->stall_on) {
        double delay = stall_delay(S, v, t);
        if (delay > 0.0) {
            S->stall_cycles += delay;
            t += delay;
        }
    }
    double *slot = S->bank_free + v * S->banks_per_vault + bk;
    double bf = *slot;
    double start = t > bf ? t : bf;
    S->bank_wait += start - t;
    *slot = start + occupancy;
    return start;
}

/* _count */
static void count_tx(simstate *S, int64_t k, int64_t reqf, int64_t respf) {
    if (S->req_counts[k] == 0) S->tk_order[S->tk_len++] = k;
    S->req_counts[k] += 1;
    S->reqf_counts[k] += reqf;
    S->respf_counts[k] += respf;
}

/* READ_64, one attempt; mirrors HmcDevice._read_once term for term. */
static double read_once(simstate *S, int64_t v, int64_t bk, double t) {
    count_tx(S, 0, 1, 5);
    double t_req = link_send(S, &S->req, S->req_perr, t, 1);
    double t_vault = t_req + S->link_lat + S->vault_oh;
    double t_bank = bank_reserve(S, v, bk, t_vault, S->occ_read);
    double data_ready = t_bank + S->tRCD + S->tCL + S->burst;
    S->activates += 1;
    S->dreads += 1;
    double t_resp =
        link_send(S, &S->resp, S->resp_perr, data_ready + S->vault_oh, 5);
    return t_resp + S->link_lat;
}

/* HmcDevice.read: reissue a dropped response until the budget runs out. */
static double hmc_read(simstate *S, int64_t v, int64_t bk, double t) {
    int64_t attempts = 0;
    for (;;) {
        double completion = read_once(S, v, bk, t);
        if (!response_dropped(S)) return completion;
        attempts += 1;
        S->reissued += 1;
        if (attempts > S->retry_budget) {
            fail(S, SIM_ERR_RETRY_EXHAUSTED, attempts, 0);
            return completion;
        }
        t = completion + S->reissue_timeout;
    }
}

/* WRITE_64 (posted, never reissued); mirrors HmcDevice.write. */
static void hmc_write(simstate *S, int64_t v, int64_t bk, double t) {
    count_tx(S, 1, 5, 1);
    double t_req = link_send(S, &S->req, S->req_perr, t, 5);
    double t_vault = t_req + S->link_lat + S->vault_oh;
    double t_bank = bank_reserve(S, v, bk, t_vault, S->occ_write);
    double done = t_bank + S->occ_write;
    S->activates += 1;
    S->dwrites += 1;
    link_send(S, &S->resp, S->resp_perr, done + S->vault_oh, 1);
}

/* PIM-Atomic, one attempt; mirrors HmcDevice._pim_atomic_once. */
static double pim_once(simstate *S, int64_t k, int64_t rf, int64_t isfp,
                       int64_t v, int64_t bk, double t) {
    count_tx(S, k, 2, rf);
    double t_req = link_send(S, &S->req, S->req_perr, t, 2);
    double t_vault = t_req + S->link_lat + S->vault_oh;
    double *pool;
    int64_t pool_n;
    double fut;
    double t_bank;
    if (isfp) {
        t_bank = bank_reserve(S, v, bk, t_vault, S->occ_at_fp);
        pool = S->fp + v * S->fp_pool;
        pool_n = S->fp_pool;
        fut = S->fp_fu_op;
    } else {
        t_bank = bank_reserve(S, v, bk, t_vault, S->occ_at_int);
        pool = S->fu + v * S->fus_per_vault;
        pool_n = S->fus_per_vault;
        fut = S->fu_op;
    }
    double data_at_fu = t_bank + S->tRCD + S->tCL;
    /* first-minimum scan, like the reference's _reserve_fu */
    int64_t mi = 0;
    for (int64_t i = 1; i < pool_n; i++) {
        if (pool[i] < pool[mi]) mi = i;
    }
    double m = pool[mi];
    /* An integer atomic whose FU is still busy waits.  Written
     * !(m <= data_at_fu) so that a NaN counts too: in a run with no
     * wait, any larger pool starts every atomic at the same cycle
     * (the FU-ladder memo, DESIGN §14). */
    if (!isfp && !(m <= data_at_fu)) S->fu_waits += 1;
    double fu_start = data_at_fu > m ? data_at_fu : m;
    pool[mi] = fu_start + fut;
    double result_ready = fu_start + fut;
    S->activates += 1;
    S->dreads += 1;
    S->dwrites += 1;
    if (isfp) {
        S->fu_fp += 1;
    } else {
        S->fu_int += 1;
    }
    double t_resp =
        link_send(S, &S->resp, S->resp_perr, result_ready + S->vault_oh, rf);
    return t_resp + S->link_lat;
}

/* HmcDevice.pim_atomic: reissue like hmc_read. */
static double pim_atomic(simstate *S, int64_t k, int64_t rf, int64_t isfp,
                         int64_t v, int64_t bk, double t) {
    int64_t attempts = 0;
    for (;;) {
        double completion = pim_once(S, k, rf, isfp, v, bk, t);
        if (!response_dropped(S)) return completion;
        attempts += 1;
        S->reissued += 1;
        if (attempts > S->retry_budget) {
            fail(S, SIM_ERR_RETRY_EXHAUSTED, attempts, 1);
            return completion;
        }
        t = completion + S->reissue_timeout;
    }
}

/* ------------------------------------------------------------------ */
/* Cache hierarchy; mirrors CacheHierarchy and the directory logic.    */
/* ------------------------------------------------------------------ */

/* Three invariants of the reference let this skip work whose outcome is
 * already known:
 * - each fill inserts a line its caller has just missed on, so no fill
 *   scans the set for it first;
 * - a core's L1 lines are all in its L2: lines enter L1 only from L2,
 *   and an L2 eviction, back-invalidation or RFO takes the L1 copy too;
 * - a core's directory bit is set while it holds a private copy: every
 *   fill path sets it, and it is cleared only once both copies are gone
 *   (_drop_private) or together with them (back-invalidation or RFO).
 *   So the reference's re-add on L1/L2 hits never changes anything, and
 *   access_cache leaves it out. */

static void fill_l3(simstate *S, int64_t ln, int64_t s3) {
    int64_t victim = lru_fill(&S->l3, s3, ln);
    if (victim < 0) return;
    size_t slot = h_find(&S->dir, victim);
    if (slot != (size_t)-1) {
        uint64_t mask = S->dir.vals[slot];
        h_del_slot(&S->dir, slot);
        while (mask) {
            int owner = __builtin_ctzll(mask);
            mask &= mask - 1;
            lru_invalidate(&S->l1[owner], imod(victim, S->n1sets, S->m1),
                           victim);
            lru_invalidate(&S->l2[owner], imod(victim, S->n2sets, S->m2),
                           victim);
            S->invalidations += 1;
        }
    }
    slot = h_find(&S->dirty, victim);
    if (slot != (size_t)-1) {
        h_del_slot(&S->dirty, slot);
        S->writebacks += 1;
        S->wb[S->wb_n++] = victim;
    }
}

/* The victim has left this core's L2 and L1, so _drop_private's two
 * presence checks are known to fail: the core leaves its sharers. */
static void fill_l2(simstate *S, int64_t core, int64_t ln, int64_t s2) {
    int64_t victim = lru_fill(&S->l2[core], s2, ln);
    if (victim < 0) return;
    lru_invalidate(&S->l1[core], imod(victim, S->n1sets, S->m1), victim);
    size_t slot = h_find(&S->dir, victim);
    if (slot != (size_t)-1) {
        uint64_t mask = S->dir.vals[slot] & ~(1ULL << core);
        if (mask == 0) {
            h_del_slot(&S->dir, slot);
        } else {
            S->dir.vals[slot] = mask;
        }
    }
}

/* The victim is still in this core's L2, so _drop_private would return
 * at its L2 check. */
static void fill_l1(simstate *S, int64_t core, int64_t ln, int64_t s1) {
    lru_fill(&S->l1[core], s1, ln);
}

/* CacheHierarchy.access inlined; returns hit level (0 = full miss),
 * -1 on allocation failure.  Writeback lines land in S->wb[0..wb_n).
 * The caller knows the line misses in the first `known_misses` levels
 * (U-PEI's probe has just looked), so those lookups are skipped. */
static int access_cache(simstate *S, int64_t core, int64_t ln,
                        int64_t s1, int64_t s2, int64_t s3, int is_write,
                        int known_misses, double *latency_out,
                        int *coh_out) {
    int level;
    double latency;
    if (known_misses < 1 && lru_lookup(&S->l1[core], s1, ln)) {
        S->l1_hits += 1;
        level = 1;
        latency = S->lat1;
    } else {
        S->l1_misses += 1;
        if (known_misses < 2 && lru_lookup(&S->l2[core], s2, ln)) {
            S->l2_hits += 1;
            level = 2;
            latency = S->lat12;
            fill_l1(S, core, ln, s1);
        } else {
            S->l2_misses += 1;
            latency = S->lat123;
            if (known_misses < 3 && lru_lookup(&S->l3, s3, ln)) {
                S->l3_hits += 1;
                level = 3;
            } else {
                S->l3_misses += 1;
                level = 0;
                S->wb_n = 0;
                fill_l3(S, ln, s3);
                int64_t next = imod(ln + 1, S->n3sets, S->m3);
                if (S->prefetch && !lru_contains(&S->l3, next, ln + 1)) {
                    fill_l3(S, ln + 1, next);
                    S->prefetches += 1;
                }
            }
            fill_l2(S, core, ln, s2);
            fill_l1(S, core, ln, s1);
            size_t slot = h_put_slot(&S->dir, ln);
            if (slot == (size_t)-1) return -1;
            S->dir.vals[slot] |= 1ULL << core;
        }
    }
    int coh = 0;
    if (is_write) {
        size_t slot = h_find(&S->dir, ln);
        if (slot != (size_t)-1) {
            uint64_t mask = S->dir.vals[slot];
            uint64_t others = mask & ~(1ULL << core);
            uint64_t rest = others;
            while (rest) {
                int other = __builtin_ctzll(rest);
                rest &= rest - 1;
                lru_invalidate(&S->l1[other], s1, ln);
                lru_invalidate(&S->l2[other], s2, ln);
                S->invalidations += 1;
            }
            S->dir.vals[slot] = mask & ~others;
            coh = others != 0;
        }
        size_t dslot = h_put_slot(&S->dirty, ln);
        if (dslot == (size_t)-1) return -1;
    }
    *latency_out = latency;
    *coh_out = coh;
    return level;
}

/* Bounded-MLP window push; argument evaluated from the pre-stall clock
 * by the caller, exactly like Core._window_push. Returns the new t. */
static double win_push(double *win_c, int64_t *wn_p, int64_t mlp,
                       double completion, double t, double *stall_c) {
    int64_t n = *wn_p;
    if (n >= mlp) {
        int64_t mi = 0;
        for (int64_t i = 1; i < n; i++) {
            if (win_c[i] < win_c[mi]) mi = i;
        }
        double earliest = win_c[mi];
        win_c[mi] = win_c[n - 1];
        n--;
        if (earliest > t) {
            *stall_c = *stall_c + (earliest - t);
            t = earliest;
        }
    }
    win_c[n] = completion;
    *wn_p = n + 1;
    return t;
}

/* ------------------------------------------------------------------ */
/* Event classification; mirrors Core.step and Core._atomic.           */
/* ------------------------------------------------------------------ */

static int route_of(const simstate *S, int64_t kind, int64_t addr,
                    int64_t op) {
    int in_pmr = (addr >> S->region_shift) == S->property_region;
    if (kind == EV_LOAD) {
        return S->bypass && in_pmr ? R_LOAD_BYPASS : R_LOAD_CACHE;
    }
    if (kind == EV_ATOMIC) {
        if (S->mode != MODE_BASELINE && in_pmr &&
            (S->fp_ext || !S->fp_lut[op])) {
            return S->mode == MODE_GRAPHPIM ? R_ATOMIC_PIM : R_ATOMIC_UPEI;
        }
        if (S->mode == MODE_BASELINE && in_pmr) return R_ATOMIC_HOST_CAND;
        return R_ATOMIC_HOST;
    }
    return S->bypass && in_pmr ? R_STORE_BYPASS : R_STORE_CACHE;
}

/* ------------------------------------------------------------------ */
/* Entry point.                                                        */
/* ------------------------------------------------------------------ */

/* Inputs (layouts owned by repro.sim.vectorized._simulate_columnar):
 *   kind..ret, starts  the ColumnarTrace columns, thread-major;
 *   widths             the byte width of kind..ret, in that order;
 *   cfg_i, cfg_d       geometry, routing and timing constants;
 *   luts               transaction kind [op][ret], response FLITs
 *                      [op][ret], FP flag [op];
 *   fault_d            request / response packet-error tables by FLIT
 *                      count, then per-vault stall phase * period;
 *   block, refill      the injector's draw stream (faults only).
 * Outputs: core_d / core_i per-core accumulators (field-major), out_i /
 * out_d global counters (out_i[20]: integer-FU waits), tkbuf the
 * transaction-kind counts and order.
 * On SIM_ERR_RETRY_EXHAUSTED out_i[14..16] hold the event index, the
 * attempt count and 1 when the lost transaction was a PIM atomic. */
int graphpim_simulate(
    int64_t T,
    const void *kind_p, const void *addr_p, const void *size_p,
    const void *gap_p, const void *op_p, const void *ret_p,
    const int64_t *widths, const int64_t *starts,
    const int64_t *cfg_i, const double *cfg_d, const int64_t *luts,
    const double *fault_d, double *block, refill_fn refill,
    double *core_d, int64_t *core_i,
    int64_t *out_i, double *out_d, int64_t *tkbuf) {
    const column kind = {kind_p, widths[0]}, addr = {addr_p, widths[1]},
                 size = {size_p, widths[2]}, gap = {gap_p, widths[3]},
                 op = {op_p, widths[4]}, ret = {ret_p, widths[5]};
    simstate S;
    memset(&S, 0, sizeof S);
    S.T = T;
    S.mlp = cfg_i[0];
    int64_t l1_ways = cfg_i[1], l2_ways = cfg_i[2], l3_ways = cfg_i[3];
    S.n1sets = cfg_i[4];
    S.n2sets = cfg_i[5];
    S.n3sets = cfg_i[6];
    S.num_vaults = cfg_i[7];
    S.banks_per_vault = cfg_i[8];
    S.fus_per_vault = cfg_i[9];
    S.fp_pool = cfg_i[10];
    S.prefetch = cfg_i[11];
    S.mode = cfg_i[12];
    S.bypass = cfg_i[13];
    S.fp_ext = cfg_i[14];
    S.region_shift = cfg_i[15];
    S.property_region = cfg_i[16];
    int64_t n_ops = cfg_i[17];
    S.faults = cfg_i[18];
    S.max_retx = cfg_i[19];
    S.retry_budget = cfg_i[20];
    S.block_len = cfg_i[21];
    S.m1 = pow2_mask(S.n1sets);
    S.m2 = pow2_mask(S.n2sets);
    S.m3 = pow2_mask(S.n3sets);
    S.mv = pow2_mask(S.num_vaults);
    S.mb = pow2_mask(S.banks_per_vault);
    S.tk_lut = luts;
    S.respf_lut = luts + 2 * n_ops;
    S.fp_lut = luts + 4 * n_ops;
    S.lat1 = cfg_d[0];
    S.lat12 = cfg_d[1];
    S.lat123 = cfg_d[2];
    S.coh_pen = cfg_d[3];
    S.freeze = cfg_d[4];
    S.fp_extra = cfg_d[5];
    S.upei_op = cfg_d[6];
    S.uc_posted = cfg_d[7];
    S.offload_issue = cfg_d[8];
    S.link_lat = cfg_d[9];
    S.vault_oh = cfg_d[10];
    S.tRCD = cfg_d[11];
    S.tCL = cfg_d[12];
    S.burst = cfg_d[13];
    S.fu_op = cfg_d[14];
    S.fp_fu_op = cfg_d[15];
    S.occ_read = cfg_d[16];
    S.occ_write = cfg_d[17];
    S.occ_at_int = cfg_d[18];
    S.occ_at_fp = cfg_d[19];
    S.rate = cfg_d[20];
    S.inv_issue = cfg_d[21];
    S.retry_lat = cfg_d[22];
    S.reissue_timeout = cfg_d[23];
    S.drop_rate = cfg_d[24];
    S.stall_period = cfg_d[25];
    S.stall_duration = cfg_d[26];
    for (int64_t f = 0; f <= MAX_FLITS; f++) S.cost[f] = f / S.rate;
    S.req_perr = fault_d;
    S.resp_perr = fault_d + (MAX_FLITS + 1);
    S.stall_phase = fault_d + 2 * (MAX_FLITS + 1);
    S.stall_on =
        S.faults && S.stall_period > 0.0 && S.stall_duration > 0.0;
    S.block = block;
    S.cursor = S.block_len; /* the first draw refills */
    S.refill = refill;

    int rc = SIM_ERR_NOMEM;
    double *ready = NULL, *win = NULL;
    int64_t *wn = NULL, *pos = NULL, *at_barrier = NULL;

    S.l1 = calloc((size_t)T, sizeof(lruset));
    S.l2 = calloc((size_t)T, sizeof(lruset));
    if (!S.l1 || !S.l2) goto done;
    for (int64_t i = 0; i < T; i++) {
        if (lru_init(&S.l1[i], S.n1sets, l1_ways) != 0) goto done;
        if (lru_init(&S.l2[i], S.n2sets, l2_ways) != 0) goto done;
    }
    if (lru_init(&S.l3, S.n3sets, l3_ways) != 0) goto done;
    if (h_init(&S.dir, 1024) != 0) goto done;
    if (h_init(&S.dirty, 1024) != 0) goto done;
    S.bank_free =
        calloc((size_t)(S.num_vaults * S.banks_per_vault), sizeof(double));
    S.fu = calloc((size_t)(S.num_vaults * S.fus_per_vault), sizeof(double));
    S.fp = calloc((size_t)(S.num_vaults * S.fp_pool), sizeof(double));
    ready = malloc((size_t)T * sizeof(double));
    win = malloc((size_t)(T * S.mlp) * sizeof(double));
    wn = calloc((size_t)T, sizeof(int64_t));
    pos = malloc((size_t)T * sizeof(int64_t));
    at_barrier = malloc((size_t)T * sizeof(int64_t));
    if (!S.bank_free || !S.fu || !S.fp || !ready || !win || !wn || !pos ||
        !at_barrier)
        goto done;

    double *t_core = core_d;
    double *issue_acc = core_d + T;
    double *stall_acc = core_d + 2 * T;
    double *incore_acc = core_d + 3 * T;
    double *incache_acc = core_d + 4 * T;
    int64_t *instr_acc = core_i;
    int64_t *host_acc = core_i + T;
    int64_t *offl_acc = core_i + 2 * T;
    int64_t *upei_acc = core_i + 3 * T;
    int64_t *cand_tot = core_i + 4 * T;
    int64_t *cand_miss = core_i + 5 * T;
    int64_t *cand_l1 = core_i + 6 * T;
    int64_t *cand_l2 = core_i + 7 * T;
    int64_t *cand_l3 = core_i + 8 * T;

    for (int64_t i = 0; i < T; i++) {
        pos[i] = starts[i];
        ready[i] = 0.0;
    }

    int64_t n_at = 0, done_count = 0, barrier_id = 0;
    int has_barrier = 0;
    int64_t last_row = starts[T] - 1;

    /* cores neither done nor at a barrier */
    for (int64_t runnable = T; runnable;) {
        int64_t cid = next_core(ready, T);
        if (!isfinite(ready[cid])) {
            /* an infinite or NaN clock (an infinite latency, a zero
             * link bandwidth): the scan cannot order it against the
             * +inf of waiting cores, so decline */
            rc = SIM_ERR_NONFINITE;
            goto done;
        }
        int64_t p = pos[cid];
        if (p >= starts[cid + 1]) {
            done_count += 1;
            ready[cid] = INFINITY;
            runnable -= 1;
            continue;
        }
        pos[cid] = p + 1;
        /* A core's rows come back only after the other cores' turns, and
         * the hardware prefetcher loses track of the 5T column streams:
         * fetch eight rows ahead (a cache line of an int64 column). */
        int64_t ahead = p + 8 < last_row ? p + 8 : last_row;
        __builtin_prefetch(kind.data + ahead * kind.width);
        __builtin_prefetch(addr.data + ahead * addr.width);
        __builtin_prefetch(gap.data + ahead * gap.width);
        __builtin_prefetch(op.data + ahead * op.width);
        __builtin_prefetch(ret.data + ahead * ret.width);
        int64_t k = col_at(kind, p);
        /* barriers charge `gap` instructions, memory events `gap + 1` */
        int64_t g = col_at(gap, p);
        int64_t n_instr = k == EV_BARRIER ? g : g + 1;
        double iss = n_instr * S.inv_issue;
        double t = t_core[cid];
        instr_acc[cid] += n_instr;
        t = t + iss;
        issue_acc[cid] = issue_acc[cid] + iss;

        if (k == EV_BARRIER) {
            /* barrier ids ride the size column */
            int64_t bid = col_at(size, p);
            if (!has_barrier) {
                has_barrier = 1;
                barrier_id = bid;
            } else if (bid != barrier_id) {
                out_i[14] = cid;
                out_i[15] = bid;
                out_i[16] = barrier_id;
                rc = SIM_ERR_BARRIER_MISMATCH;
                goto done;
            }
            t_core[cid] = t;
            ready[cid] = INFINITY;
            runnable -= 1;
            at_barrier[n_at++] = cid;
            if (n_at + done_count == T) {
                double release = t_core[at_barrier[0]];
                for (int64_t i = 0; i < n_at; i++) {
                    double tc = t_core[at_barrier[i]];
                    if (tc > release) release = tc;
                }
                for (int64_t i = 0; i < n_at; i++) {
                    int64_t c = at_barrier[i];
                    stall_acc[c] = stall_acc[c] + (release - t_core[c]);
                    t_core[c] = release;
                    ready[c] = release;
                }
                runnable += n_at;
                n_at = 0;
                has_barrier = 0;
            }
            continue;
        }

        int64_t a = col_at(addr, p);
        int64_t ln = a >> 6;
        int64_t o = -1, tk = 0, rf = 0, isfp = 0;
        if (k == EV_ATOMIC) {
            /* only atomic rows carry a valid op (others hold -1) */
            o = col_at(op, p);
            int64_t at = 2 * o + (col_at(ret, p) != 0);
            tk = S.tk_lut[at];
            rf = S.respf_lut[at];
            isfp = S.fp_lut[o];
        }
        int r = route_of(&S, k, a, o);
        int64_t s1 = imod(ln, S.n1sets, S.m1);
        int64_t s2 = imod(ln, S.n2sets, S.m2);
        int64_t s3 = imod(ln, S.n3sets, S.m3);
        int64_t v = imod(ln, S.num_vaults, S.mv);
        int64_t bk = imod(a >> 11, S.banks_per_vault, S.mb);

        if (r == R_LOAD_CACHE) {
            double latency;
            int coh;
            int level =
                access_cache(&S, cid, ln, s1, s2, s3, 0, 0, &latency, &coh);
            if (level < 0) goto done;
            if (level == 0) {
                double t_mem = t + latency;
                double completion = hmc_read(&S, v, bk, t_mem);
                for (int i = 0; i < S.wb_n; i++) {
                    int64_t w = S.wb[i];
                    hmc_write(&S, imod(w, S.num_vaults, S.mv),
                              imod(w >> 5, S.banks_per_vault, S.mb), t_mem);
                }
                t = win_push(win + cid * S.mlp, &wn[cid], S.mlp,
                             completion, t, &stall_acc[cid]);
            } else if (level >= 2) {
                /* completion computed from the pre-stall clock, like
                 * _window_push's argument evaluation */
                double completion = t + latency;
                t = win_push(win + cid * S.mlp, &wn[cid], S.mlp,
                             completion, t, &stall_acc[cid]);
            }
        } else if (r == R_STORE_CACHE) {
            double latency;
            int coh;
            int level =
                access_cache(&S, cid, ln, s1, s2, s3, 1, 0, &latency, &coh);
            if (level < 0) goto done;
            if (level == 0) {
                double t_mem = t + latency;
                double completion = hmc_read(&S, v, bk, t_mem);
                for (int i = 0; i < S.wb_n; i++) {
                    int64_t w = S.wb[i];
                    hmc_write(&S, imod(w, S.num_vaults, S.mv),
                              imod(w >> 5, S.banks_per_vault, S.mb), t_mem);
                }
                t = win_push(win + cid * S.mlp, &wn[cid], S.mlp,
                             completion, t, &stall_acc[cid]);
            }
        } else if (r == R_LOAD_BYPASS) {
            double completion = hmc_read(&S, v, bk, t);
            t = win_push(win + cid * S.mlp, &wn[cid], S.mlp, completion,
                         t, &stall_acc[cid]);
        } else if (r == R_STORE_BYPASS) {
            hmc_write(&S, v, bk, t);
            t = t + S.uc_posted;
            stall_acc[cid] += S.uc_posted;
        } else if (r == R_ATOMIC_PIM) {
            double completion = pim_atomic(&S, tk, rf, isfp, v, bk, t);
            offl_acc[cid] += 1;
            if (completion > t) {
                stall_acc[cid] += completion - t;
                t = completion;
            }
            t = t + S.offload_issue;
            stall_acc[cid] += S.offload_issue;
        } else if (r == R_ATOMIC_UPEI) {
            /* CacheHierarchy.probe: first level holding the line, or 0;
             * the access below skips the levels it saw miss */
            int probe = lru_contains(&S.l1[cid], s1, ln)   ? 1
                        : lru_contains(&S.l2[cid], s2, ln) ? 2
                        : lru_contains(&S.l3, s3, ln)      ? 3
                                                           : 0;
            double latency;
            int coh;
            if (probe) {
                int level = access_cache(&S, cid, ln, s1, s2, s3, 1,
                                         probe - 1, &latency, &coh);
                if (level < 0) goto done;
                t = t + (latency + S.upei_op);
                upei_acc[cid] += 1;
                incache_acc[cid] += latency + S.upei_op;
            } else {
                t = t + S.lat123; /* walk latency */
                incache_acc[cid] += S.lat123;
                double completion = pim_atomic(&S, tk, rf, isfp, v, bk, t);
                /* line installed alongside the offload; writebacks are
                 * discarded under the idealization */
                int level = access_cache(&S, cid, ln, s1, s2, s3, 1, 3,
                                         &latency, &coh);
                if (level < 0) goto done;
                offl_acc[cid] += 1;
                if (completion > t) {
                    stall_acc[cid] += completion - t;
                    t = completion;
                }
                t = t + S.offload_issue;
                stall_acc[cid] += S.offload_issue;
            }
        } else { /* R_ATOMIC_HOST / R_ATOMIC_HOST_CAND */
            double *win_c = win + cid * S.mlp;
            int64_t n = wn[cid];
            double drain_wait;
            if (n) {
                double latest = t;
                for (int64_t i = 0; i < n; i++) {
                    if (win_c[i] > latest) latest = win_c[i];
                }
                drain_wait = latest - t;
                t = latest;
                wn[cid] = 0;
            } else {
                drain_wait = 0.0;
            }
            double latency;
            int coh;
            int level =
                access_cache(&S, cid, ln, s1, s2, s3, 1, 0, &latency, &coh);
            if (level < 0) goto done;
            if (r == R_ATOMIC_HOST_CAND) {
                cand_tot[cid] += 1;
                if (level == 0) cand_miss[cid] += 1;
                else if (level == 1) cand_l1[cid] += 1;
                else if (level == 2) cand_l2[cid] += 1;
                else cand_l3[cid] += 1;
            }
            double mem_latency = 0.0;
            if (level == 0) {
                double t_mem = t + latency;
                double completion = hmc_read(&S, v, bk, t_mem);
                for (int i = 0; i < S.wb_n; i++) {
                    int64_t w = S.wb[i];
                    hmc_write(&S, imod(w, S.num_vaults, S.mv),
                              imod(w >> 5, S.banks_per_vault, S.mb), t_mem);
                }
                mem_latency = completion - t_mem;
            }
            double coherence = coh ? S.coh_pen : 0.0;
            double fpx = isfp ? S.fp_extra : 0.0;
            incore_acc[cid] +=
                drain_wait + S.freeze + mem_latency + fpx;
            incache_acc[cid] += latency + coherence;
            t = t + (S.freeze + mem_latency + fpx + latency + coherence);
            host_acc[cid] += 1;
        }

        if (S.err) {
            /* the reference raises inside this event */
            out_i[14] = p;
            out_i[15] = S.err_attempts;
            out_i[16] = S.err_pim;
            rc = S.err;
            goto done;
        }
        t_core[cid] = t;
        ready[cid] = t;
    }

    if (n_at) {
        out_i[15] = barrier_id;
        out_i[17] = n_at;
        rc = SIM_ERR_STUCK_AT_BARRIER;
        goto done;
    }
    rc = SIM_OK;

    out_i[0] = S.l1_hits;
    out_i[1] = S.l1_misses;
    out_i[2] = S.l2_hits;
    out_i[3] = S.l2_misses;
    out_i[4] = S.l3_hits;
    out_i[5] = S.l3_misses;
    out_i[6] = S.invalidations;
    out_i[7] = S.writebacks;
    out_i[8] = S.prefetches;
    out_i[9] = S.activates;
    out_i[10] = S.dreads;
    out_i[11] = S.dwrites;
    out_i[12] = S.fu_int;
    out_i[13] = S.fu_fp;
    out_i[18] = S.retx_flits;
    out_i[19] = S.reissued;
    out_i[20] = S.fu_waits;
    out_d[0] = S.bank_wait;
    out_d[1] = S.req.wait;
    out_d[2] = S.resp.wait;
    out_d[3] = S.stall_cycles;
    for (int i = 0; i < 6; i++) {
        tkbuf[i] = S.req_counts[i];
        tkbuf[6 + i] = S.reqf_counts[i];
        tkbuf[12 + i] = S.respf_counts[i];
        tkbuf[18 + i] = S.tk_order[i];
    }
    tkbuf[24] = S.tk_len;

done:
    if (S.l1) {
        for (int64_t i = 0; i < T; i++) lru_free(&S.l1[i]);
        free(S.l1);
    }
    if (S.l2) {
        for (int64_t i = 0; i < T; i++) lru_free(&S.l2[i]);
        free(S.l2);
    }
    lru_free(&S.l3);
    h_free(&S.dir);
    h_free(&S.dirty);
    free(S.bank_free);
    free(S.fu);
    free(S.fp);
    free(ready);
    free(win);
    free(wn);
    free(pos);
    free(at_barrier);
    return rc;
}
