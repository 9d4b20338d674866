/* The standard-bit-mutation run loop of semolab.engine.run_until_cover,
   population update and change points included.

   Python allocates the struct and its arrays as one block, the arrays
   after the struct where its ctypes layout puts them, and fills in the
   byte offset of each array, the generator pointers and the members.
   loop_run() points the array fields at the arrays, tempers the
   generator's block and indexes the members, then runs iterations from
   t + 1 and applies Population.insert's update itself: an offspring that
   changes the population's value set replaces the members it weakly
   dominates, at the place that first_at[] and a binary search over f2s[]
   give, with the slot and front flag of its value class (class_of()).
   With room for change points (cap > 0) it also writes the change point
   after every insert into points[] (record()), so that a run with
   trajectories is one call as well. loop_run() returns 1 when the
   population covers the front, 0 when t reaches the cutoff, and 2 when
   points[] is full, which Python drains before it calls again; a full
   buffer at the covering insert returns 1.

   An offspring's class needs its ones count and, on cocz, its first-half
   count g1. Both start from the parent's class (the slot is the ones count
   on omm and ojzj; on cocz f1 is, and the slot is g2 = f1 - g1) and move
   by one with each flipped bit, so no string is ever counted. loop_run()
   holds the loop body three times, for strings of one 64-bit word, of
   two and of any width.

   Random numbers come from the run's random.Random itself, drawn exactly
   as CPython's _randommodule.c draws them: getrandbits(k) for
   0 < k <= 32 is one word shifted right by 32 - k, getrandbits(0) draws
   nothing, and random() takes two words. Every draw is made in the order
   of the Python loop, so both give the same results and leave the
   generator in the same state. random() is x / 2^53 for the 53-bit
   integer x of its two words (random53()), so the Python loop's
   u <= cdf[k] holds exactly when x <= floor(cdf[k] * 2^53), the
   thresholds[k] that Python computes: the kernel draws the flip count
   with integer comparisons alone and has no floating-point arithmetic.

   mt and index point into the generator object, at the state[] and index
   of CPython's RandomObject (the loader checks that layout): untempered
   words and the position of the next one. out[j] is the tempered mt[j],
   so the next output is out[*index]. loop_run() tempers out[] when it is
   called; only twist() changes mt[] after that, in place, tempering each
   word into out[] in the same pass, and run() writes back its copy of
   *index.

   twisted() adds the matrix constant 0x9908b0df when the low bit of y is
   set as -(y & 1) & 0x9908b0df: the negated bit is all ones or zero, so
   this equals the reference (y & 1) * 0x9908b0df for both values of the
   bit. It is logic ops alone, which gcc vectorises with SSE2; SSE2 has no
   32-bit lane multiply, and the multiply made the portable build of
   twist() about half as fast. On gcc with glibc on x86-64, twist() alone
   is also compiled for AVX2 and AVX-512F (target_clones): one source
   body, and the dynamic loader picks the clone for the CPU once, when it
   loads the library. The #if guard leaves every other toolchain with the
   plain function, and every clone gives the same words. */

#include <stdint.h>
#include <string.h>

#define MT_N 624
#define MT_M 397
/* the hot helpers are inlined, so that each width of run() is compiled
   with its own constants */
#define INLINE static inline __attribute__((always_inline))

struct loop {
    uint32_t *mt;            /* the state words of the run's generator ... */
    int *index;              /* ... and its position in them */
    int32_t n;               /* string length */
    int32_t words;           /* 64-bit words per string */
    int32_t half;            /* n/2 on cocz, unused otherwise */
    int32_t slot_draw;       /* slot selection over [0, slot_draw); 0: uniform */
    int32_t m;               /* population size */
    int32_t front_count;     /* members with a Pareto-optimal value ... */
    int32_t front_size;      /* ... and the count at which they cover the front */
    int32_t span;            /* slot span, for the border distance */
    int32_t npoints, cap;    /* change points in points[], and its room */
    int64_t t, cutoff, idle; /* iteration counter, its cutoff, idle draws */
    const uint64_t *thresholds; /* n + 1 flip-count thresholds: k flips
                                   iff x <= thresholds[k] for the least k */
    const int32_t *classes;  /* (f1, f2, slot, front) by ones count, or NULL
                                on cocz */
    /* the byte offset from r of each array below, which Python lays out */
    int64_t points_at, xs_at, child_at, f1s_at, f2s_at, slots_at,
        at_slot_at, first_at_at;
    /* the arrays, which loop_run() points at r plus their offsets */
    int64_t *points;         /* 6 words per change point; none kept at cap 0 */
    uint64_t *xs;            /* member bits, `words` per member, f1 order */
    uint64_t *child;         /* the offspring */
    int32_t *f1s, *f2s, *slots;
    int32_t *at_slot;        /* slot -> member index or -1, slot_draw of them */
    int32_t *first_at;       /* f1 -> index of the first member with f1s >= f1,
                                for f1 in [0, 2n] */
    uint32_t out[MT_N];      /* tempered outputs of mt[] */
};

/* The layout check of the loader: ctypes must see the same size. */
int loop_sizeof(void)
{
    return (int)sizeof(struct loop);
}

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
    return far ^ (y >> 1) ^ (-(y & 1U) & 0x9908b0dfU);
}

/* cloned for AVX2 and AVX-512F where the toolchain can (see the top) */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) \
    && defined(__GLIBC__)
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
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

/* the next 32-bit output; *mti is the caller's copy of *r->index */
INLINE uint32_t genrand(struct loop *r, int *mti)
{
    if (*mti >= MT_N) {
        twist(r->mt, r->out);
        *mti = 0;
    }
    return r->out[(*mti)++];
}

/* the 53-bit integer a * 2^26 + b of random(), which returns it / 2^53 */
INLINE uint64_t random53(struct loop *r, int *mti)
{
    uint64_t a = genrand(r, mti) >> 5;
    uint32_t b = genrand(r, mti) >> 6;
    return a << 26 | b;
}

/* bit length of v - 1: the k of getrandbits(k) for a draw below v */
static int draw_bits(uint32_t v)
{
    return v > 1 ? 32 - __builtin_clz(v - 1) : 0;
}

/* uniform in [0, v) by the rejection scheme of engine._randbelow */
INLINE uint32_t below(struct loop *r, int *mti, uint32_t v, int bits)
{
    uint32_t x;
    if (!bits)
        return 0;
    do
        x = genrand(r, mti) >> (32 - bits);
    while (x >= v);
    return x;
}

struct value_class {
    int32_t f1, f2, slot, front;
};

/* The objective pair, slot and front flag of a string with `ones` ones,
   `g1` of them in its first half. omm and ojzj read their table, which
   Python builds from Kernels.values, slot_from_pair and is_front_pair;
   cocz ignores it, and its slot is the second-half count g2 and its front
   the strings with g1 = n/2. */
INLINE struct value_class class_of(const struct loop *r, int ones, int g1)
{
    struct value_class c;
    if (r->classes) {
        const int32_t *row = r->classes + 4 * ones;
        c.f1 = row[0];
        c.f2 = row[1];
        c.slot = row[2];
        c.front = row[3];
    } else {
        c.f1 = ones;
        c.f2 = 2 * g1 + r->half - ones;
        c.slot = ones - g1;
        c.front = g1 == r->half;
    }
    return c;
}

/* class_of() for Python: out[] receives f1, f2, slot and the front flag. */
void loop_class(const struct loop *r, int32_t ones, int32_t g1, int32_t *out)
{
    struct value_class c = class_of(r, ones, g1);
    out[0] = c.f1;
    out[1] = c.f2;
    out[2] = c.slot;
    out[3] = c.front;
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

/* Population.insert for an offspring of class c that no member weakly
   dominates; idx = first_at[c.f1]. The members it weakly dominates are
   the range [lo, hi): members left of idx have smaller f1, and those
   with f2 <= c.f2 are a suffix of them; the member at idx joins if its
   f1 is c.f1. `child` takes their place. Each of them is strictly
   dominated, hence not Pareto-optimal, so the front count only gains
   the offspring's flag. */
static void insert(struct loop *r, int idx, struct value_class c)
{
    const int w = r->words, m = r->m;
    const int32_t *const f2s = r->f2s;
    const int hi = idx < m && r->f1s[idx] == c.f1 ? idx + 1 : idx;
    const int tail = m - hi;
    int lo = 0, top = idx;
    while (lo < top) {
        int mid = (lo + top) / 2;
        if (f2s[mid] <= c.f2)
            top = mid;
        else
            lo = mid + 1;
    }
    memmove(r->xs + (size_t)(lo + 1) * w, r->xs + (size_t)hi * w,
            (size_t)tail * w * sizeof *r->xs);
    memmove(r->f1s + lo + 1, r->f1s + hi, (size_t)tail * sizeof *r->f1s);
    memmove(r->f2s + lo + 1, r->f2s + hi, (size_t)tail * sizeof *r->f2s);
    memmove(r->slots + lo + 1, r->slots + hi,
            (size_t)tail * sizeof *r->slots);
    memcpy(r->xs + (size_t)lo * w, r->child, (size_t)w * sizeof *r->xs);
    r->f1s[lo] = c.f1;
    r->f2s[lo] = c.f2;
    r->slots[lo] = c.slot;
    r->m = lo + 1 + tail;
    r->front_count += c.front;
    reindex(r);
}

/* Write the change point after an insert at iteration t, with the
   fields and formulas of engine.measure: t, the population size, on cocz
   the best cooperative level (top - n/2) / 2 from the largest f1 + f2
   and the count of members at it (elsewhere -1 for None, twice), the
   border distance min(min(slots), span - max(slots)) and the front
   count. */
static void record(struct loop *r, int64_t t)
{
    const int m = r->m;
    const int32_t *const f1s = r->f1s, *const f2s = r->f2s;
    const int32_t *const slots = r->slots;
    int64_t *const p = r->points + 6 * (size_t)r->npoints++;
    int i, lo = slots[0], hi = slots[0], top = -1, count = -1;
    for (i = 1; i < m; i++) {
        if (slots[i] < lo)
            lo = slots[i];
        if (slots[i] > hi)
            hi = slots[i];
    }
    if (!r->classes) {
        top = f1s[0] + f2s[0];
        count = 0;
        for (i = 0; i < m; i++) {
            const int sum = f1s[i] + f2s[i];
            if (sum > top) {
                top = sum;
                count = 1;
            } else if (sum == top) {
                count++;
            }
        }
        top = (top - r->half) >> 1;
    }
    p[0] = t;
    p[1] = m;
    p[2] = top;
    p[3] = count;
    p[4] = lo < r->span - hi ? lo : r->span - hi;
    p[5] = r->front_count;
}

/* The loop body, inlined with `words` at 1 or 2 for strings that wide,
   so that the copies of a string compile to fixed moves; 0 reads
   r->words. */
INLINE int run(struct loop *r, int words)
{
    const int w = words ? words : r->words, n = r->n;
    const uint32_t half = (uint32_t)r->half;
    const int nbits = draw_bits((uint32_t)n);
    const int slot_draw = r->slot_draw;
    const int sbits = draw_bits((uint32_t)slot_draw);
    const int front_size = r->front_size;
    const int keep = r->cap > 0;
    const uint64_t *const thresholds = r->thresholds;
    const int32_t *const classes = r->classes;
    const int32_t *const at_slot = r->at_slot, *const first_at = r->first_at;
    const int32_t *const f1s = r->f1s, *const f2s = r->f2s;
    const int32_t *const slots = r->slots;
    uint64_t *const xs = r->xs, *const child = r->child;
    const int64_t cutoff = r->cutoff;
    int64_t t = r->t, idle = r->idle;
    int m = r->m, mbits = draw_bits((uint32_t)m), mti = *r->index, found = 0;

    while (t < cutoff) {
        const uint64_t *parent;
        struct value_class c;
        uint64_t x;
        int k, i, ones, g1;
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
        x = random53(r, &mti);
        if (x <= thresholds[0])
            continue; /* a copy of the parent changes nothing */
        for (k = 1; x > thresholds[k]; k++)
            ;
        /* the parent's ones count and, on cocz, its first-half count */
        ones = classes ? slots[i] : f1s[i];
        g1 = ones - slots[i];
        memcpy(child, parent, (size_t)w * sizeof *child);
        while (k) { /* k distinct positions; a repeated one is drawn again */
            uint32_t pos = below(r, &mti, (uint32_t)n, nbits);
            uint64_t bit = 1ULL << (pos & 63);
            int d;
            if ((child[pos >> 6] ^ parent[pos >> 6]) & bit)
                continue;
            d = child[pos >> 6] & bit ? -1 : 1;
            child[pos >> 6] ^= bit;
            ones += d;
            if (pos < half)
                g1 += d;
            k--;
        }
        c = class_of(r, ones, g1);
        i = first_at[c.f1];
        if (i < m && f2s[i] >= c.f2) {
            /* weakly dominated: dropped, or at equal value it takes the
               member's place */
            if (f2s[i] == c.f2 && f1s[i] == c.f1)
                memcpy(xs + (size_t)i * w, child, (size_t)w * sizeof *child);
            continue;
        }
        insert(r, i, c);
        m = r->m;
        mbits = draw_bits((uint32_t)m);
        if (keep)
            record(r, t);
        if (r->front_count == front_size) {
            found = 1;
            break;
        }
        if (keep && r->npoints == r->cap) {
            found = 2;
            break;
        }
    }
    *r->index = mti;
    r->t = t;
    r->idle = idle;
    return found;
}

/* Point r's array fields at its arrays, temper out[] from the
   generator's words and index the members, then run() with the width of
   r's strings fixed where it is one or two words. The first three steps
   read only r, so a call after a drain (return code 2) repeats them to
   the same effect. */
#define AT(f) (r->f = (void *)((char *)r + r->f##_at))
int loop_run(struct loop *r)
{
    int j;
    AT(points), AT(xs), AT(child), AT(f1s), AT(f2s), AT(slots);
    AT(at_slot), AT(first_at);
    for (j = 0; j < MT_N; j++)
        r->out[j] = temper(r->mt[j]);
    reindex(r);
    switch (r->words) {
    case 1:
        return run(r, 1);
    case 2:
        return run(r, 2);
    default:
        return run(r, 0);
    }
}
