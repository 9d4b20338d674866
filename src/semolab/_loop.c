/* The standard-bit-mutation iterations of semolab.engine.run_until_cover.

   loop_start() prepares a struct whose generator state and members Python
   has filled in. loop_run() then runs iterations from t + 1 until an
   offspring changes the population's value set (it returns 1 and leaves
   the offspring in `child` and its objective pair in f1, f2) or until t
   reaches the cutoff (it returns 0). Python inserts the offspring with
   Population.insert and records the change that made to the members, a
   splice, in lo, hi and slot; the next loop_run() applies it before its
   first iteration, and loop_splice() applies the last one when the run
   ends.

   Random numbers come from a copy of the state of the run's random.Random
   and are drawn exactly as CPython's _randommodule.c draws them:
   getrandbits(k) for 0 < k <= 32 is one word shifted right by 32 - k,
   getrandbits(0) draws nothing, and random() takes two words. Every draw
   is made in the order of the Python loop, so both give the same results
   and leave the generator in the same state. random() and the comparisons
   with the flip-count distribution are exact in IEEE double arithmetic;
   the file must not be built with -ffast-math.

   mt[] and mti are the generator state exactly as getstate() and
   setstate() exchange it: untempered words and the index of the next one.
   out[j] is the tempered mt[j] for every j, so the next output is
   out[mti]. loop_start() tempers out[] from the mt[] Python wrote, and
   only twist() changes mt[] after that: it advances all 624 words and
   tempers each into out[] in the same pass. */

#include <stdint.h>
#include <string.h>

#define MT_N 624
#define MT_M 397

struct loop {
    uint32_t mt[MT_N];       /* random.Random's state words ... */
    int32_t mti;             /* ... and its position in them */
    int32_t n;               /* string length */
    int32_t words;           /* 64-bit words per string */
    int32_t half;            /* n/2 on cocz, unused otherwise */
    int32_t slot_draw;       /* slot selection over [0, slot_draw); 0: uniform */
    int32_t m;               /* population size */
    int32_t f1, f2;          /* objective pair of `child` */
    int32_t lo, hi, slot;    /* pending splice (loop_splice); lo -1: none */
    int64_t t, cutoff, idle; /* iteration counter, its cutoff, idle draws */
    const double *cdf;       /* n + 1 cumulative flip-count probabilities */
    const int32_t *values;   /* (f1, f2) by ones count, or NULL on cocz */
    const uint64_t *half_mask; /* first half of a cocz string */
    uint64_t *xs;            /* member bits, `words` per member, f1 order */
    int32_t *f1s, *f2s, *slots;
    int32_t *at_slot;        /* slot -> member index or -1, slot_draw of them */
    int32_t *first_at;       /* f1 -> index of the first member with f1s >= f1,
                                for f1 in [0, 2n] */
    uint64_t *child;         /* the offspring */
    uint32_t out[MT_N];      /* tempered outputs of mt[] */
};

static uint32_t temper(uint32_t y)
{
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    return y ^ (y >> 18);
}

static uint32_t twisted(uint32_t upper, uint32_t lower, uint32_t far)
{
    uint32_t y = (upper & 0x80000000U) | (lower & 0x7fffffffU);
    return far ^ (y >> 1) ^ ((y & 1U) * 0x9908b0dfU);
}

static void twist(uint32_t *restrict mt, uint32_t *restrict out)
{
    int kk;
    for (kk = 0; kk < MT_N - MT_M; kk++) {
        mt[kk] = twisted(mt[kk], mt[kk + 1], mt[kk + MT_M]);
        out[kk] = temper(mt[kk]);
    }
    for (; kk < MT_N - 1; kk++) {
        mt[kk] = twisted(mt[kk], mt[kk + 1], mt[kk + (MT_M - MT_N)]);
        out[kk] = temper(mt[kk]);
    }
    mt[MT_N - 1] = twisted(mt[MT_N - 1], mt[0], mt[MT_M - 1]);
    out[MT_N - 1] = temper(mt[MT_N - 1]);
}

/* the next 32-bit output; *mti is the caller's copy of r->mti */
static inline uint32_t genrand(struct loop *r, int *mti)
{
    if (*mti >= MT_N) {
        twist(r->mt, r->out);
        *mti = 0;
    }
    return r->out[(*mti)++];
}

static inline double random53(struct loop *r, int *mti)
{
    uint32_t a = genrand(r, mti) >> 5;
    uint32_t b = genrand(r, mti) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* bit length of v - 1: the k of getrandbits(k) for a draw below v */
static int draw_bits(uint32_t v)
{
    return v > 1 ? 32 - __builtin_clz(v - 1) : 0;
}

/* uniform in [0, v) by the rejection scheme of engine._randbelow */
static inline uint32_t below(struct loop *r, int *mti, uint32_t v, int bits)
{
    uint32_t x;
    if (!bits)
        return 0;
    do
        x = genrand(r, mti) >> (32 - bits);
    while (x >= v);
    return x;
}

static int popcount(uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (int)((x * 0x0101010101010101ULL) >> 56);
}

/* Rebuild at_slot and first_at from the members. */
static void reindex(struct loop *r)
{
    int i, v;
    for (i = 0; i < r->slot_draw; i++)
        r->at_slot[i] = -1;
    for (i = 0; i < r->m; i++)
        if (r->slots[i] < r->slot_draw)
            r->at_slot[r->slots[i]] = i;
    for (v = 0, i = 0; v <= 2 * r->n; v++) {
        while (i < r->m && r->f1s[i] < v)
            i++;
        r->first_at[v] = i;
    }
}

/* Temper out[] from mt[] and index the members. */
void loop_start(struct loop *r)
{
    int j;
    for (j = 0; j < MT_N; j++)
        r->out[j] = temper(r->mt[j]);
    r->lo = -1;
    reindex(r);
}

/* Apply the pending splice, if any: the members [lo, hi) gave way to
   `child`, which now sits at lo in slot `slot`, the change
   Population.insert made. */
void loop_splice(struct loop *r)
{
    const int w = r->words, lo = r->lo, tail = r->m - r->hi;
    if (lo < 0)
        return;
    memmove(r->xs + (size_t)(lo + 1) * w, r->xs + (size_t)r->hi * w,
            (size_t)tail * w * sizeof *r->xs);
    memmove(r->f1s + lo + 1, r->f1s + r->hi, (size_t)tail * sizeof *r->f1s);
    memmove(r->f2s + lo + 1, r->f2s + r->hi, (size_t)tail * sizeof *r->f2s);
    memmove(r->slots + lo + 1, r->slots + r->hi,
            (size_t)tail * sizeof *r->slots);
    memcpy(r->xs + (size_t)lo * w, r->child, (size_t)w * sizeof *r->xs);
    r->f1s[lo] = r->f1;
    r->f2s[lo] = r->f2;
    r->slots[lo] = r->slot;
    r->m = lo + 1 + tail;
    r->lo = -1;
    reindex(r);
}

/* Apply the pending splice, then iterate. */
int loop_run(struct loop *r)
{
    const int w = r->words, n = r->n, nbits = draw_bits((uint32_t)n);
    const int slot_draw = r->slot_draw;
    const int sbits = draw_bits((uint32_t)slot_draw);
    const double *const cdf = r->cdf;
    const int32_t *const values = r->values;
    const uint64_t *const half_mask = r->half_mask;
    const int32_t *const at_slot = r->at_slot, *const first_at = r->first_at;
    const int32_t *const f1s = r->f1s, *const f2s = r->f2s;
    uint64_t *const xs = r->xs, *const child = r->child;
    const int64_t cutoff = r->cutoff;
    int64_t t = r->t, idle = r->idle;
    int m, mbits, mti, found = 0;

    loop_splice(r);
    m = r->m;
    mbits = draw_bits((uint32_t)m);
    mti = r->mti;
    while (t < cutoff) {
        const uint64_t *parent;
        double u;
        int k, i, lo, ones = 0, f1, f2;
        t++;
        if (slot_draw) {
            i = at_slot[below(r, &mti, (uint32_t)slot_draw, sbits)];
            if (i < 0) {
                idle++;
                continue;
            }
        } else {
            i = (int)below(r, &mti, (uint32_t)m, mbits);
        }
        parent = xs + (size_t)i * w;
        u = random53(r, &mti);
        if (u <= cdf[0])
            continue; /* a copy of the parent changes nothing */
        for (k = 1; u > cdf[k]; k++)
            ;
        memcpy(child, parent, (size_t)w * sizeof *child);
        while (k) { /* k distinct positions; a repeated one is drawn again */
            uint32_t pos = below(r, &mti, (uint32_t)n, nbits);
            uint64_t bit = 1ULL << (pos & 63);
            if ((child[pos >> 6] ^ parent[pos >> 6]) & bit)
                continue;
            child[pos >> 6] ^= bit;
            k--;
        }
        for (i = 0; i < w; i++)
            ones += popcount(child[i]);
        if (values) {
            f1 = values[2 * ones];
            f2 = values[2 * ones + 1];
        } else {
            int g1 = 0;
            for (i = 0; i < w; i++)
                g1 += popcount(child[i] & half_mask[i]);
            f1 = ones;
            f2 = 2 * g1 + r->half - ones;
        }
        lo = first_at[f1];
        if (lo < m && f2s[lo] >= f2) {
            /* weakly dominated: dropped, or at equal value it takes the
               member's place */
            if (f2s[lo] == f2 && f1s[lo] == f1)
                memcpy(xs + (size_t)lo * w, child, (size_t)w * sizeof *child);
            continue;
        }
        r->f1 = f1;
        r->f2 = f2;
        found = 1;
        break;
    }
    r->mti = mti;
    r->t = t;
    r->idle = idle;
    return found;
}
