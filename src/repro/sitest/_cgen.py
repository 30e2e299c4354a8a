"""Optional C engine for the random SI pattern generator.

:func:`repro.sitest.generator.generate_random_patterns` spends its time
in ``Random._randbelow`` and ``Random.sample`` calls, about sixteen of
them per pattern.  This module carries a small C translation of the
generator loop that replays exactly the same draws, so the columns it
writes are byte-identical to the Python loop's for every seed.

The engine starts from ``Random.getstate()``: it copies the 624-word
MT19937 state and its index and runs CPython's reference
``genrand_uint32`` (tempering included) on the copy.  Only three of the
module's primitives are used, and each reduces to 32-bit words:

* ``_randbelow(n)``: with ``k = n.bit_length()``, draw ``word >> (32 - k)``
  until it is below ``n``;
* ``random()``: ``((w1 >> 5) * 2**26 + (w2 >> 6)) / 2**53``, compared with
  ``bus_probability`` as a double;
* ``sample(range(n), k)``: the pool branch when ``n <= setsize(k)``,
  otherwise the set branch with reselection.  The ``setsize`` thresholds
  involve a float logarithm, so Python computes them with CPython's own
  expression and passes them in; the C code does no other float math.

The engine is strictly optional: if no compiler is present, compilation
fails, the smoke check fails, or ``REPRO_GENERATOR_CGEN=0`` is set, the
generator runs its Python loop.  It also does so for layouts and
configurations outside the engine's fixed caps (more than 64 hosts, or
``max_aggressors`` above :data:`MAX_AGGRESSORS`).  Compiling, caching
and loading are :mod:`repro.native`'s job; this module holds the C
source, its :mod:`ctypes` binding, its smoke check and :func:`draw`.
"""

from __future__ import annotations

import ctypes
import random
from array import array
from math import ceil, log

from repro.native import NativeEngine

__all__ = ["MAX_AGGRESSORS", "available", "draw", "mt_words", "warm"]

#: Largest ``max_aggressors`` the C loop's fixed buffers hold.
MAX_AGGRESSORS = 64

#: Host positions are bits of the 64-bit care-core mask column.
MAX_HOSTS = 64

_INT32_MAX = 2**31 - 1

_SOURCE = r"""
#include <stdint.h>

#define MT_N 624
#define MT_M 397
#define MAX_AGGRESSORS 64
#define POOL_CAP 512    /* above setsize(MAX_AGGRESSORS) = 277 */

typedef struct {
    uint32_t *mt;
    int64_t index;
} mt_state;

/* CPython's genrand_uint32 (Modules/_randommodule.c), tempering
 * included. */
static uint32_t genrand(mt_state *s)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *mt = s->mt;
    uint32_t y;
    if (s->index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        s->index = 0;
    }
    y = mt[s->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* Random._randbelow_with_getrandbits(n), n >= 1: getrandbits(k) for
 * k <= 32 is the top k bits of one word. */
static int64_t randbelow(mt_state *s, int64_t n)
{
    int k = 0;
    uint32_t r;
    for (int64_t m = n; m; m >>= 1)
        k++;
    do
        r = genrand(s) >> (32 - k);
    while (r >= (uint64_t)n);
    return r;
}

/* Random.random(): genrand_res53. */
static double random53(mt_state *s)
{
    uint32_t a = genrand(s) >> 5, b = genrand(s) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Random.sample(range(n), k) into out[0:k]; setsize[k] is CPython's
 * pool-versus-set threshold for k picks. */
static void sample(mt_state *s, int64_t n, int64_t k,
                   const int64_t *setsize, int32_t *out)
{
    int64_t i, j, t;
    if (n <= setsize[k]) {
        int32_t pool[POOL_CAP];
        for (i = 0; i < n; i++)
            pool[i] = (int32_t)i;
        for (i = 0; i < k; i++) {
            j = randbelow(s, n - i);
            out[i] = pool[j];
            pool[j] = pool[n - i - 1];
        }
        return;
    }
    for (i = 0; i < k; i++) {
    redraw:
        j = randbelow(s, n);
        for (t = 0; t < i; t++)
            if (out[t] == j)
                goto redraw;
        out[i] = (int32_t)j;
    }
}

/* The next n words of the stream (the engine's own check). */
void repro_mt_words(uint32_t *mt, int64_t *index, int64_t n,
                    uint32_t *out)
{
    mt_state s = {mt, *index};
    for (int64_t i = 0; i < n; i++)
        out[i] = genrand(&s);
    *index = s.index;
}

/* The generator loop of repro.sitest.generator, draw for draw.  Writes
 * count patterns into columns preallocated at their per-pattern bounds
 * (1 + max_aggressors cares, min(max_aggressors, bus_width) bus claims)
 * and returns the number of cares, or -1 for arguments outside the
 * engine's caps. */
int64_t repro_generate(
    uint32_t *mt, int64_t index, int64_t count,
    int64_t n_hosts, const int32_t *bases,
    int64_t min_aggressors, int64_t max_aggressors, int64_t external_cap,
    int64_t bus_width, double bus_probability, const int64_t *setsize,
    int32_t *care_keys, int64_t *care_off,
    int32_t *bus_keys, int64_t *bus_off,
    int32_t *victims, uint64_t *masks)
{
    mt_state s = {mt, index};
    int32_t picks[MAX_AGGRESSORS], seen[MAX_AGGRESSORS];
    int64_t nc = 0, nb = 0, r, i, k;

    if (n_hosts < 1 || n_hosts > 64 || min_aggressors < 1
        || max_aggressors < min_aggressors
        || max_aggressors > MAX_AGGRESSORS || external_cap < 0
        || bus_width < 0)
        return -1;
    for (k = 0; k <= max_aggressors; k++)
        if (setsize[k] >= POOL_CAP)
            return -1;
    care_off[0] = 0;
    bus_off[0] = 0;
    for (r = 0; r < count; r++) {
        int64_t v = randbelow(&s, n_hosts);
        int64_t base = bases[v], woc = bases[v + 1] - base;
        int64_t victim_index = randbelow(&s, woc);
        int64_t victim = base + victim_index;
        int64_t total, external, n_seen = 0;
        uint64_t mask = (uint64_t)1 << v;

        care_keys[nc++] = (int32_t)(victim * 4 + randbelow(&s, 4));
        total = min_aggressors
                + randbelow(&s, max_aggressors - min_aggressors + 1);
        external = 0;
        if (n_hosts > 1)
            external = randbelow(
                &s, (external_cap < total ? external_cap : total) + 1);

        k = total - external < woc - 1 ? total - external : woc - 1;
        sample(&s, woc - 1, k, setsize, picks);
        for (i = 0; i < k; i++) {
            int64_t x = picks[i];
            if (x >= victim_index)
                x++;
            care_keys[nc++] = (int32_t)((base + x) * 4 + 2
                                        + randbelow(&s, 2));
        }

        for (i = 0; i < external; i++) {
            int64_t host = randbelow(&s, n_hosts - 1), t;
            int64_t terminal;
            if (host >= v)
                host++;
            terminal = bases[host]
                       + randbelow(&s, bases[host + 1] - bases[host]);
            mask |= (uint64_t)1 << host;
            for (t = 0; t < n_seen && seen[t] != terminal; t++)
                ;
            if (t == n_seen) {
                seen[n_seen++] = (int32_t)terminal;
                care_keys[nc++] = (int32_t)(terminal * 4 + 2
                                            + randbelow(&s, 2));
            }
        }

        if (bus_width && random53(&s) < bus_probability) {
            int64_t occupied = 1 + randbelow(
                &s, total < bus_width ? total : bus_width);
            sample(&s, bus_width, occupied, setsize, picks);
            for (i = 0; i < occupied; i++)
                bus_keys[nb++] = (int32_t)(picks[i] * n_hosts + v);
        }

        care_off[r + 1] = nc;
        bus_off[r + 1] = nb;
        victims[r] = (int32_t)victim;
        masks[r] = mask;
    }
    return nc;
}
"""


def _bind(lib):
    words = lib.repro_mt_words
    words.restype = None
    words.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p,  # mt, index
        ctypes.c_int64, ctypes.c_void_p,   # n, out
    ]
    generate = lib.repro_generate
    generate.restype = ctypes.c_int64
    generate.argtypes = [
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,  # mt, index, count
        ctypes.c_int64, ctypes.c_void_p,                  # n_hosts, bases
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,   # aggressor bounds
        ctypes.c_int64, ctypes.c_double, ctypes.c_void_p,  # bus, setsize
        ctypes.c_void_p, ctypes.c_void_p,  # care_keys, care_off
        ctypes.c_void_p, ctypes.c_void_p,  # bus_keys, bus_off
        ctypes.c_void_p, ctypes.c_void_p,  # victims, masks
    ]
    return words, generate


def _addr(buffer: array) -> int:
    return buffer.buffer_info()[0]


def _state(rng: random.Random) -> tuple[array, int]:
    """A copy of ``rng``'s MT19937 words and its index."""
    _version, internal, _gauss = rng.getstate()
    return array("I", internal[:-1]), internal[-1]


def _setsizes(k_max: int) -> array:
    """``Random.sample``'s pool-versus-set threshold for ``k`` picks,
    ``k = 0 .. k_max``, by CPython's own expression."""
    return array("q", (
        21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0)
        for k in range(k_max + 1)
    ))


def _zeros(typecode: str, length: int) -> array:
    return array(typecode, (0,)) * length


def _words(handle, rng: random.Random, n: int) -> list[int]:
    mt, index = _state(rng)
    position = array("q", (index,))
    out = _zeros("I", n)
    handle[0](_addr(mt), _addr(position), n, _addr(out))
    return out.tolist()


def _generate(handle, rng, count, bases, min_aggressors, max_aggressors,
              external_cap, bus_width, bus_probability):
    mt, index = _state(rng)
    host_count = len(bases) - 1
    care_keys = _zeros("i", count * (1 + max_aggressors))
    care_off = _zeros("q", count + 1)
    bus_keys = _zeros("i", count * min(max_aggressors, bus_width))
    bus_off = _zeros("q", count + 1)
    victims = _zeros("i", count)
    masks = _zeros("Q", count)
    setsizes = _setsizes(max_aggressors)
    cares = handle[1](
        _addr(mt), index, count, host_count, _addr(bases),
        min_aggressors, max_aggressors, external_cap,
        bus_width, bus_probability, _addr(setsizes),
        _addr(care_keys), _addr(care_off), _addr(bus_keys), _addr(bus_off),
        _addr(victims), _addr(masks),
    )
    if cares < 0:
        return None
    # Slicing copies at the exact length and releases the bound-sized
    # buffer (deleting the tail would keep it allocated).
    care_keys = care_keys[:cares]
    bus_keys = bus_keys[:bus_off[count]]
    return care_keys, care_off, bus_keys, bus_off, victims, masks


def _smoke(handle) -> bool:
    """Two calls guarding against ABI/layout mishaps.

    The words of ``Random(1)`` across two state refreshes must equal
    ``getrandbits(32)``; and three patterns of seed 1 over two hosts of
    3 and 1 terminals, on a 4-line bus, must give the columns the Python
    loop gives.
    """
    reference = random.Random(1)
    if _words(handle, random.Random(1), 1300) != [
        reference.getrandbits(32) for _ in range(1300)
    ]:
        return False
    columns = _generate(handle, random.Random(1), 3, array("i", (0, 3, 4)),
                        2, 6, 2, 4, 0.5)
    return columns is not None and [c.tolist() for c in columns] == [
        [8, 7, 3, 4, 3, 10, 14, 4, 10, 3],
        [0, 3, 7, 10], [6, 6, 2], [0, 0, 1, 3], [2, 1, 1], [1, 3, 1],
    ]


ENGINE = NativeEngine(
    "cgen", _SOURCE, "REPRO_GENERATOR_CGEN", _bind, _smoke
)


def available() -> bool:
    """Whether the C generator compiled, loaded, and passed its smoke."""
    return ENGINE.available()


def warm() -> bool:
    """Resolve the engine now, instead of lazily inside the first call.

    The resolved handle is cached for the life of the process, so a
    persistent sweep worker that calls this during warm-up pays the
    compile/load/smoke cost exactly once, outside any cell's wall clock.
    """
    return ENGINE.available()


def mt_words(rng: random.Random, n: int) -> list[int] | None:
    """The next ``n`` 32-bit words of ``rng``'s stream, drawn in C from a
    copy of its state (``rng`` itself does not advance); ``None`` when
    the engine is unavailable."""
    if not available():
        return None
    return _words(ENGINE.handle, rng, n)


def draw(rng: random.Random, count: int, bases: array, config):
    """Draw ``count`` patterns in C from a copy of ``rng``'s state.

    ``bases`` is the generator's terminal layout (first terminal id per
    host, plus the total) and ``config`` its
    :class:`~repro.sitest.generator.GeneratorConfig`.  Returns the
    columns ``(care_keys, care_off, bus_keys, bus_off, victims, masks)``
    the generator's Python loop would write, or ``None`` when the engine
    is unavailable or the layout or configuration is outside its caps.
    """
    host_count = len(bases) - 1
    if (
        host_count > MAX_HOSTS
        or config.max_aggressors > MAX_AGGRESSORS
        or bases[-1] * 4 > _INT32_MAX
        or config.bus_width * host_count > _INT32_MAX
        or not available()
    ):
        return None
    return _generate(
        ENGINE.handle, rng, count, bases, config.min_aggressors,
        config.max_aggressors, config.max_external_aggressors,
        config.bus_width, config.bus_probability,
    )
