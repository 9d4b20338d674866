/* The standard-bit-mutation iterations of semolab.engine.run_until_cover.

   loop_run() runs iterations from t + 1 until an offspring changes the
   population's value set (it returns 1 and leaves the offspring in `child`
   and its objective pair in f1, f2) or until t reaches the cutoff (it
   returns 0). Python inserts the offspring with Population.insert and then
   calls loop_splice() to make the same change to the members here.

   Random numbers come from a copy of the state of the run's random.Random
   and are drawn exactly as CPython's _randommodule.c draws them:
   getrandbits(k) for 0 < k <= 32 is one word shifted right by 32 - k,
   getrandbits(0) draws nothing, and random() takes two words. Every draw
   is made in the order of the Python loop, so both give the same results
   and leave the generator in the same state. random() and the comparisons
   with the flip-count distribution are exact in IEEE double arithmetic;
   the file must not be built with -ffast-math. */

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
};

static uint32_t genrand(struct loop *r)
{
    uint32_t *mt = r->mt, y;
    if (r->mti >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ ((y & 1U) * 0x9908b0dfU);
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1)
                     ^ ((y & 1U) * 0x9908b0dfU);
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ ((y & 1U) * 0x9908b0dfU);
        r->mti = 0;
    }
    y = mt[r->mti++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= y >> 18;
    return y;
}

static double random53(struct loop *r)
{
    uint32_t a = genrand(r) >> 5, b = genrand(r) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* bit length of v - 1: the k of getrandbits(k) for a draw below v */
static int draw_bits(uint32_t v)
{
    return v > 1 ? 32 - __builtin_clz(v - 1) : 0;
}

/* uniform in [0, v) by the rejection scheme of engine._randbelow */
static uint32_t below(struct loop *r, uint32_t v, int bits)
{
    uint32_t x;
    if (!bits)
        return 0;
    do
        x = genrand(r) >> (32 - bits);
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

int loop_run(struct loop *r)
{
    const int w = r->words, n = r->n, nbits = draw_bits((uint32_t)n);
    const int sbits = draw_bits((uint32_t)r->slot_draw);
    const int mbits = draw_bits((uint32_t)r->m);
    const double *cdf = r->cdf;
    uint64_t *child = r->child;

    while (r->t < r->cutoff) {
        const uint64_t *parent;
        double u;
        int k, i, lo, ones = 0, f1, f2;
        r->t++;
        if (r->slot_draw) {
            i = r->at_slot[below(r, (uint32_t)r->slot_draw, sbits)];
            if (i < 0) {
                r->idle++;
                continue;
            }
        } else {
            i = (int)below(r, (uint32_t)r->m, mbits);
        }
        parent = r->xs + (size_t)i * w;
        u = random53(r);
        if (u <= cdf[0])
            continue; /* a copy of the parent changes nothing */
        for (k = 1; u > cdf[k]; k++)
            ;
        memcpy(child, parent, (size_t)w * sizeof *child);
        while (k) { /* k distinct positions; a repeated one is drawn again */
            uint32_t pos = below(r, (uint32_t)n, nbits);
            uint64_t bit = 1ULL << (pos & 63);
            if ((child[pos >> 6] ^ parent[pos >> 6]) & bit)
                continue;
            child[pos >> 6] ^= bit;
            k--;
        }
        for (i = 0; i < w; i++)
            ones += popcount(child[i]);
        if (r->values) {
            f1 = r->values[2 * ones];
            f2 = r->values[2 * ones + 1];
        } else {
            int g1 = 0;
            for (i = 0; i < w; i++)
                g1 += popcount(child[i] & r->half_mask[i]);
            f1 = ones;
            f2 = 2 * g1 + r->half - ones;
        }
        lo = r->first_at[f1];
        if (lo < r->m && r->f2s[lo] >= f2) {
            /* weakly dominated: dropped, or at equal value it takes the
               member's place */
            if (r->f2s[lo] == f2 && r->f1s[lo] == f1)
                memcpy(r->xs + (size_t)lo * w, child,
                       (size_t)w * sizeof *child);
            continue;
        }
        r->f1 = f1;
        r->f2 = f2;
        return 1;
    }
    return 0;
}

/* Rebuild at_slot and first_at from the members. */
void loop_index(struct loop *r)
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

/* The members [lo, hi) gave way to `child`, which now sits at lo in slot
   `slot`: the change Population.insert made. */
void loop_splice(struct loop *r, int lo, int hi, int slot)
{
    const int w = r->words, tail = r->m - hi;
    memmove(r->xs + (size_t)(lo + 1) * w, r->xs + (size_t)hi * w,
            (size_t)tail * w * sizeof *r->xs);
    memmove(r->f1s + lo + 1, r->f1s + hi, (size_t)tail * sizeof *r->f1s);
    memmove(r->f2s + lo + 1, r->f2s + hi, (size_t)tail * sizeof *r->f2s);
    memmove(r->slots + lo + 1, r->slots + hi,
            (size_t)tail * sizeof *r->slots);
    memcpy(r->xs + (size_t)lo * w, r->child, (size_t)w * sizeof *r->xs);
    r->f1s[lo] = r->f1;
    r->f2s[lo] = r->f2;
    r->slots[lo] = slot;
    r->m = lo + 1 + tail;
    loop_index(r);
}
