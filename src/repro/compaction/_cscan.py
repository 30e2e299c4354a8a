"""Optional C scan engine for the greedy bitset kernel.

:func:`repro.compaction.kernel.greedy_compact_bitset` spends its time in
two bit-parallel inner loops: building the conflict index and pruning the
candidate bitset as the merge acquires cares.  Both are pure word-level
AND/OR sweeps, so this module carries a small, dependency-free C
translation of the scan (same algorithm, same visit order, same dedup
rules — see the kernel docstring for the equivalence argument) that is
compiled on demand with whatever ``cc``/``gcc``/``clang`` the host
provides and loaded through :mod:`ctypes`.

The engine is strictly optional: if no compiler is present, compilation
fails, the smoke check fails, or ``REPRO_COMPACTION_CSCAN=0`` is set, the
kernel silently falls back to its pure-Python big-int scan.  Compiling,
caching and loading are :mod:`repro.native`'s job; this module holds
the C source, its :mod:`ctypes` binding and its smoke check.

The C side works on integer columns only: the care and bus-claim CSR
arrays of a :class:`~repro.sitest.pattern_set.PatternSet`, read in place
through an index view's row array.  A small front end remaps the view's
global keys to dense ids and runs the scan, which returns the merge
cycles as a flat member array plus cycle offsets.  All symbol/terminal
semantics stay in Python; the C code never sees a pattern object.
"""

from __future__ import annotations

import ctypes
from array import array

from repro.native import NativeEngine
from repro.sitest.pattern_set import PatternSet

__all__ = ["available", "greedy_scan", "warm"]

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Conflict rows as word runs.
 *
 * occ_off/occ_pat/occ_id group the occurrences of every group (terminal
 * or line) in ascending pattern order; ids_off/ids list each group's
 * ids.  For every word a group touches, T is the OR of the group's bits
 * there and each id of the group gets the run (word, T & ~own) when that
 * is non-zero, so every row comes out in ascending word order.  With
 * row_w NULL this only counts runs into next[id]; otherwise it writes
 * them at next[id]++.
 */
static void conflict_runs(
    int64_t n_groups, const int64_t *occ_off, const int32_t *occ_pat,
    const int32_t *occ_id, const int64_t *ids_off, const int32_t *ids,
    uint64_t *own, int64_t *next, int32_t *row_w, uint64_t *row_b)
{
    for (int64_t g = 0; g < n_groups; g++) {
        const int64_t end = occ_off[g + 1];
        for (int64_t k = occ_off[g]; k < end; ) {
            const int32_t w = occ_pat[k] >> 6;
            uint64_t total = 0;
            int64_t q = k;
            for (; q < end && (occ_pat[q] >> 6) == w; q++) {
                const uint64_t bit = 1ULL << (occ_pat[q] & 63);
                own[occ_id[q]] |= bit;
                total |= bit;
            }
            for (int64_t d = ids_off[g]; d < ids_off[g + 1]; d++) {
                const int32_t id = ids[d];
                const uint64_t bits = total & ~own[id];
                if (bits) {
                    if (row_w) {
                        row_w[next[id]] = w;
                        row_b[next[id]] = bits;
                    }
                    next[id]++;
                }
            }
            for (; k < q; k++) own[occ_id[k]] = 0;
        }
    }
}

/* Clear key `id`'s conflict row out of `eligible` from word `from` up
 * (lower words are already decided); returns the runs applied. */
static inline int64_t prune_row(
    const int64_t *row_off, const int32_t *row_w, const uint64_t *row_b,
    int64_t id, int64_t from, uint64_t *eligible)
{
    int64_t lo = row_off[id], hi = row_off[id + 1];
    const int64_t end = hi;
    while (lo < hi) {  /* first run with word >= from */
        const int64_t mid = lo + ((hi - lo) >> 1);
        if (row_w[mid] < from) lo = mid + 1;
        else hi = mid;
    }
    for (int64_t r = lo; r < end; r++) eligible[row_w[r]] &= ~row_b[r];
    return end - lo;
}

/* Greedy clique-cover scan over packed bitsets.
 *
 * Pattern i owns bit i.  Per cycle the lowest remaining pattern seeds the
 * merge, then candidates are absorbed in ascending index order; whenever
 * the merge acquires a care (terminal, symbol) or bus claim it has not
 * seen this cycle, that key's conflict mask is cleared out of the
 * eligible set.  A key's conflict mask is (OR of its terminal's symbol
 * slices) & ~own slice, or the same over a line's driver slices.
 *
 * Conflict masks are sparse, so each is stored only where it is
 * non-zero: care ids and then bus ids (offset by n_care_ids) share one
 * CSR of (word, bits) runs, terminals and then lines (offset by n_tids)
 * one group space.  avail and eligible stay dense W-word bitsets.
 */
int64_t repro_greedy_scan(
    int64_t n,
    const int32_t *care_flat, const int64_t *care_off,
    const int32_t *tid_of, int64_t n_care_ids, int64_t n_tids,
    const int32_t *bus_flat, const int64_t *bus_off,
    const int32_t *line_of, int64_t n_bus_ids, int64_t n_lines,
    int32_t *members_out, int64_t *cycle_off_out, int64_t *stats_out)
{
    stats_out[0] = 0;
    stats_out[1] = 0;
    cycle_off_out[0] = 0;
    if (n == 0)
        return 0;
    const int64_t W = (n + 63) >> 6;
    const int64_t n_ids = n_care_ids + n_bus_ids;
    const int64_t n_groups = n_tids + n_lines;
    const int64_t n_occ =
        care_off[n] - care_off[0] + bus_off[n] - bus_off[0];
    /* the CSR offsets below count into off[x + 2] and fill at off[x + 1]++,
     * which leaves off[x + 1] at the end of x, i.e. the start of x + 1 */
    int64_t *occ_off = calloc((size_t)n_groups + 2, 8);
    int64_t *ids_off = calloc((size_t)n_groups + 2, 8);
    int64_t *row_off = calloc((size_t)n_ids + 2, 8);
    int32_t *occ_pat = malloc((size_t)(n_occ + 1) * 4);
    int32_t *occ_id = malloc((size_t)(n_occ + 1) * 4);
    int32_t *ids = malloc((size_t)(n_ids + 1) * 4);
    int32_t *group_of = malloc((size_t)(n_ids + 1) * 4);
    uint64_t *own = calloc((size_t)n_ids + 1, 8);
    uint64_t *avail = malloc((size_t)W * 8);
    uint64_t *eligible = malloc((size_t)W * 8);
    uint32_t *group_epoch = calloc((size_t)n_groups + 1, 4);
    int32_t *row_w = NULL;
    uint64_t *row_b = NULL;
    int64_t cycles = -1;
    if (!occ_off || !ids_off || !row_off || !occ_pat || !occ_id || !ids ||
        !group_of || !own || !avail || !eligible || !group_epoch)
        goto done;
    for (int64_t c = 0; c < n_care_ids; c++)
        group_of[c] = tid_of[c];
    for (int64_t b = 0; b < n_bus_ids; b++)
        group_of[n_care_ids + b] = (int32_t)(n_tids + line_of[b]);
    const int32_t *bus_group = group_of + n_care_ids;

    /* ids grouped by terminal / line */
    for (int64_t id = 0; id < n_ids; id++)
        ids_off[group_of[id] + 2]++;
    for (int64_t g = 0; g < n_groups; g++)
        ids_off[g + 2] += ids_off[g + 1];
    for (int64_t id = 0; id < n_ids; id++)
        ids[ids_off[group_of[id] + 1]++] = (int32_t)id;
    /* occurrences grouped by terminal / line, ascending pattern order */
    for (int64_t k = care_off[0]; k < care_off[n]; k++)
        occ_off[group_of[care_flat[k]] + 2]++;
    for (int64_t k = bus_off[0]; k < bus_off[n]; k++)
        occ_off[bus_group[bus_flat[k]] + 2]++;
    for (int64_t g = 0; g < n_groups; g++)
        occ_off[g + 2] += occ_off[g + 1];
    for (int64_t i = 0; i < n; i++) {
        for (int64_t k = care_off[i]; k < care_off[i + 1]; k++) {
            const int64_t at = occ_off[group_of[care_flat[k]] + 1]++;
            occ_pat[at] = (int32_t)i;
            occ_id[at] = care_flat[k];
        }
        for (int64_t k = bus_off[i]; k < bus_off[i + 1]; k++) {
            const int64_t at = occ_off[bus_group[bus_flat[k]] + 1]++;
            occ_pat[at] = (int32_t)i;
            occ_id[at] = (int32_t)(n_care_ids + bus_flat[k]);
        }
    }
    /* conflict rows: count, then fill */
    conflict_runs(n_groups, occ_off, occ_pat, occ_id, ids_off, ids, own,
                  row_off + 2, NULL, NULL);
    for (int64_t id = 0; id < n_ids; id++)
        row_off[id + 2] += row_off[id + 1];
    row_w = malloc((size_t)(row_off[n_ids + 1] + 1) * 4);
    row_b = malloc((size_t)(row_off[n_ids + 1] + 1) * 8);
    if (!row_w || !row_b)
        goto done;
    conflict_runs(n_groups, occ_off, occ_pat, occ_id, ids_off, ids, own,
                  row_off + 1, row_w, row_b);

    memset(avail, 0xff, (size_t)W * 8);
    if (n & 63)
        avail[W - 1] = (1ULL << (n & 63)) - 1;

    int64_t pruned = 0, words = 0, m_count = 0;
    int64_t cursor = 0;  /* lowest possibly-nonzero avail word */
    int64_t live = n;    /* popcount of avail */
    uint32_t epoch = 0;
    cycles = 0;
    while (live) {
        while (!avail[cursor]) cursor++;
        const int64_t seed =
            (cursor << 6) + (int64_t)__builtin_ctzll(avail[cursor]);
        avail[cursor] &= avail[cursor] - 1;  /* clear lowest set bit */
        live--;
        const int64_t candidates = live;
        int64_t absorbed = 1;
        members_out[m_count++] = (int32_t)seed;
        epoch++;
        memset(eligible, 0, (size_t)cursor * 8);
        memcpy(eligible + cursor, avail + cursor, (size_t)(W - cursor) * 8);
        for (int64_t k = care_off[seed]; k < care_off[seed + 1]; k++) {
            const int32_t cid = care_flat[k];
            const int32_t g = group_of[cid];
            if (group_epoch[g] != epoch) {
                group_epoch[g] = epoch;
                words += prune_row(row_off, row_w, row_b, cid, cursor,
                                   eligible);
            }
        }
        for (int64_t k = bus_off[seed]; k < bus_off[seed + 1]; k++) {
            const int32_t bid = bus_flat[k];
            const int32_t g = bus_group[bid];
            if (group_epoch[g] != epoch) {
                group_epoch[g] = epoch;
                words += prune_row(row_off, row_w, row_b, n_care_ids + bid,
                                   cursor, eligible);
            }
        }
        for (int64_t jw = cursor; jw < W; ) {
            const uint64_t wval = eligible[jw];
            if (!wval) { jw++; continue; }
            const int64_t j = (jw << 6) + (int64_t)__builtin_ctzll(wval);
            eligible[jw] = wval & (wval - 1);
            avail[jw] &= ~(1ULL << (j & 63));
            live--;
            absorbed++;
            members_out[m_count++] = (int32_t)j;
            /* bits at or below j are already decided: prune from the
             * current word up only */
            for (int64_t k = care_off[j]; k < care_off[j + 1]; k++) {
                const int32_t cid = care_flat[k];
                const int32_t g = group_of[cid];
                if (group_epoch[g] != epoch) {
                    group_epoch[g] = epoch;
                    words += prune_row(row_off, row_w, row_b, cid, jw,
                                       eligible);
                }
            }
            for (int64_t k = bus_off[j]; k < bus_off[j + 1]; k++) {
                const int32_t bid = bus_flat[k];
                const int32_t g = bus_group[bid];
                if (group_epoch[g] != epoch) {
                    group_epoch[g] = epoch;
                    words += prune_row(row_off, row_w, row_b,
                                       n_care_ids + bid, jw, eligible);
                }
            }
        }
        pruned += candidates - (absorbed - 1);
        cycle_off_out[++cycles] = m_count;
    }
    stats_out[0] = pruned;
    stats_out[1] = words;
done:
    free(occ_off); free(ids_off); free(row_off); free(occ_pat);
    free(occ_id); free(ids); free(group_of); free(own); free(avail);
    free(eligible); free(group_epoch); free(row_w); free(row_b);
    return cycles;
}

/* The scan over an index view of a columnar pattern set.
 *
 * rows[0..n) name the view's patterns in the global care CSR
 * (keys terminal * 4 + symbol, below care_space) and bus CSR (keys
 * line * n_cores + driver, below bus_space).  Global keys are remapped
 * to dense first-seen ids over the view, so the scan's masks cover only
 * the keys the view uses; ids never affect the scan's result.  Members
 * come back as view positions.
 */
int64_t repro_greedy_scan_rows(
    int64_t n, const int32_t *rows,
    const int32_t *care_keys, const int64_t *care_off, int64_t care_space,
    const int32_t *bus_keys, const int64_t *bus_off, int64_t bus_space,
    int64_t n_cores,
    int32_t *members_out, int64_t *cycle_off_out, int64_t *stats_out)
{
    int64_t n_care = 0, n_bus = 0;
    for (int64_t i = 0; i < n; i++) {
        const int32_t r = rows[i];
        n_care += care_off[r + 1] - care_off[r];
        n_bus += bus_off[r + 1] - bus_off[r];
    }
    const int64_t term_space = care_space >> 2;
    const int64_t line_space = n_cores ? bus_space / n_cores + 1 : 1;
    int32_t *care_flat = malloc((size_t)(n_care + 1) * 4);
    int32_t *bus_flat = malloc((size_t)(n_bus + 1) * 4);
    int64_t *care_loc = malloc((size_t)(n + 1) * 8);
    int64_t *bus_loc = malloc((size_t)(n + 1) * 8);
    int32_t *tid_of = malloc((size_t)(n_care + 1) * 4);
    int32_t *line_of = malloc((size_t)(n_bus + 1) * 4);
    int32_t *cid_map = malloc((size_t)(care_space + 1) * 4);
    int32_t *tid_map = malloc((size_t)(term_space + 1) * 4);
    int32_t *bid_map = malloc((size_t)(bus_space + 1) * 4);
    int32_t *lid_map = malloc((size_t)(line_space + 1) * 4);
    int64_t result = -1;
    if (!care_flat || !bus_flat || !care_loc || !bus_loc || !tid_of ||
        !line_of || !cid_map || !tid_map || !bid_map || !lid_map)
        goto done;
    memset(cid_map, 0xff, (size_t)(care_space + 1) * 4);
    memset(tid_map, 0xff, (size_t)(term_space + 1) * 4);
    memset(bid_map, 0xff, (size_t)(bus_space + 1) * 4);
    memset(lid_map, 0xff, (size_t)(line_space + 1) * 4);

    int32_t n_cids = 0, n_tids = 0, n_bids = 0, n_lids = 0;
    int64_t kc = 0, kb = 0;
    care_loc[0] = 0;
    bus_loc[0] = 0;
    for (int64_t i = 0; i < n; i++) {
        const int32_t r = rows[i];
        for (int64_t k = care_off[r]; k < care_off[r + 1]; k++) {
            const int32_t key = care_keys[k];
            int32_t cid = cid_map[key];
            if (cid < 0) {
                int32_t tid = tid_map[key >> 2];
                if (tid < 0)
                    tid = tid_map[key >> 2] = n_tids++;
                cid = cid_map[key] = n_cids;
                tid_of[n_cids++] = tid;
            }
            care_flat[kc++] = cid;
        }
        care_loc[i + 1] = kc;
        for (int64_t k = bus_off[r]; k < bus_off[r + 1]; k++) {
            const int32_t key = bus_keys[k];
            int32_t bid = bid_map[key];
            if (bid < 0) {
                const int64_t line = key / n_cores;
                int32_t lid = lid_map[line];
                if (lid < 0)
                    lid = lid_map[line] = n_lids++;
                bid = bid_map[key] = n_bids;
                line_of[n_bids++] = lid;
            }
            bus_flat[kb++] = bid;
        }
        bus_loc[i + 1] = kb;
    }
    result = repro_greedy_scan(
        n, care_flat, care_loc, tid_of, n_cids, n_tids,
        bus_flat, bus_loc, line_of, n_bids, n_lids,
        members_out, cycle_off_out, stats_out);
done:
    free(care_flat); free(bus_flat); free(care_loc); free(bus_loc);
    free(tid_of); free(line_of); free(cid_map); free(tid_map);
    free(bid_map); free(lid_map);
    return result;
}
"""


def _bind(lib):
    fn = lib.repro_greedy_scan_rows
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        ctypes.c_int64, ctypes.c_void_p,   # n, rows
        ctypes.c_void_p, ctypes.c_void_p,  # care_keys, care_off
        ctypes.c_int64,                    # care_space
        ctypes.c_void_p, ctypes.c_void_p,  # bus_keys, bus_off
        ctypes.c_int64, ctypes.c_int64,    # bus_space, n_cores
        ctypes.c_void_p, ctypes.c_void_p,  # members_out, cycle_off_out
        ctypes.c_void_p,                   # stats_out
    ]
    return fn


def _addr(buffer: array) -> int:
    return buffer.buffer_info()[0]


def _run(fn, view: PatternSet):
    n = len(view)
    rows = view.row_ids()
    members = array("i", bytes(4 * n))
    cycle_off = array("q", bytes(8 * (n + 1)))
    stats = array("q", (0, 0))
    cycles = fn(
        n, _addr(rows),
        _addr(view.care_keys), _addr(view.care_off), view.bases[-1] * 4,
        _addr(view.bus_keys), _addr(view.bus_off), view.bus_key_space(),
        len(view.cores),
        _addr(members), _addr(cycle_off), _addr(stats),
    )
    if cycles < 0:
        return None
    member_lists = [
        list(members[cycle_off[c]:cycle_off[c + 1]]) for c in range(cycles)
    ]
    return member_lists, stats[0], stats[1]


def _smoke(fn) -> bool:
    """One hand-rolled call guarding against ABI/layout mishaps.

    Three patterns on one terminal, viewed in reverse order: pattern 2
    and 1 assign different symbols (mutual conflict), 0 assigns nothing
    and alone claims bus line 0 (driver 1).  The greedy scan over the
    view must merge view positions {0, 2} and leave {1}, pruning
    position 1 from cycle 0, and apply one conflict-row run for each
    seed's terminal; the bus claim's conflict row is empty.
    """
    view = PatternSet(
        cores=(7,), bases=array("i", (0, 1)),
        care_keys=array("i", (1, 0)), care_off=array("q", (0, 0, 1, 2)),
        bus_keys=array("i", (1,)), bus_off=array("q", (0, 1, 1, 1)),
        victims=array("i", (-1, -1, -1)), masks=array("Q", (0, 1, 1)),
        rows=array("i", (2, 1, 0)),
    )
    return _run(fn, view) == ([[0, 2], [1]], 1, 2)


ENGINE = NativeEngine(
    "cscan", _SOURCE, "REPRO_COMPACTION_CSCAN", _bind, _smoke
)


def available() -> bool:
    """Whether the C scan engine compiled, loaded, and passed its smoke."""
    return ENGINE.available()


def warm() -> bool:
    """Resolve the engine now, instead of lazily inside the first scan.

    The resolved handle is cached for the life of the process, so a
    persistent sweep worker that calls this during warm-up pays the
    compile/load/smoke cost exactly once, outside any cell's wall clock.
    """
    return ENGINE.available()


def greedy_scan(patterns):
    """Run the greedy scan in C; ``None`` when the engine is unavailable.

    ``patterns`` is a :class:`~repro.sitest.pattern_set.PatternSet` or
    index view, read in place; any other sequence is encoded into one.
    Returns ``(member_lists, pruned, words)``: the merge cycles as lists
    of pattern positions in absorption order, plus the two
    instrumentation totals (candidates pruned, conflict-row runs applied).
    """
    if not available():
        return None
    view = PatternSet.from_patterns(patterns)
    if not len(view):
        return [], 0, 0
    return _run(ENGINE.handle, view)
