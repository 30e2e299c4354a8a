"""Optional C engine for the incremental move-evaluation scan.

:class:`repro.core.scheduling.IncrementalTamEvaluator` scores the
optimizer's candidate moves (widen a rail / move a core / merge two
rails) by patching at most two rails of a packed state and re-deriving
``T_soc``.  The patch arithmetic is pure integer work over flat arrays
— per-rail InTest times, per-group shift depths, a ``(core, width)``
time table, involved-rail bitmasks — so this module carries a small,
dependency-free C translation of the scan (same row arithmetic, same
entry sort, same greedy Algorithm 1 replay; see the evaluator docstring
for the equivalence argument) compiled on demand with whatever
``cc``/``gcc``/``clang`` the host provides and loaded through
:mod:`ctypes`.

The engine is strictly optional: if no compiler is present, compilation
fails, the smoke check fails, or ``REPRO_OPTIMIZER_CSCAN=0`` is set, the
evaluator silently falls back to its pure-Python patch path — scoring is
bit-identical either way.  Compiling, caching and loading are
:mod:`repro.native`'s job; this module holds the C source, its
:mod:`ctypes` binding and its smoke checks.

The C side works on flattened integer streams only — rail membership as
dense core ids in CSR layout, core-to-group membership likewise — and
returns one ``T_soc`` total per candidate.  All core/group semantics
stay in Python; the C code never sees a rail object.
"""

from __future__ import annotations

import ctypes
from array import array

from repro.native import NativeEngine

__all__ = ["available", "merge_distribute", "score_moves", "warm"]

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

/* Batch scorer for single-move TAM candidates.
 *
 * Per candidate at most two rails change.  The new rows are derived
 * from the CSR rail membership, the per-core WOC counts and the flat
 * (core, width) InTest time table; unchanged rails are read straight
 * from the base state's arrays.  The SI makespan is then replayed with
 * the greedy scheduler over (time, rail-mask, group-id) entries sorted
 * by (-time, group-id) -- the exact tie-break order of the Python
 * scheduler, so every total matches the reference evaluator bit for
 * bit.
 *
 * Move kinds: 0 widen(rail a), 1 move(core a, rail b -> rail c),
 * 2 merge(rails a + b onto c wires, b removed).  Rail masks are one
 * uint64, so callers must keep n_rails <= 64.
 */
int64_t repro_move_scan(
    int64_t n_rails, int64_t n_groups, int64_t capture,
    const int64_t *widths, const int64_t *time_in, const int64_t *depths,
    const int64_t *rail_off, const int32_t *rail_cores,
    const int64_t *woc, const int64_t *cg_off, const int32_t *cg_ids,
    const int64_t *patterns, const int64_t *gids,
    const int64_t *table, int64_t cap,
    int64_t n_moves, const int64_t *kinds,
    const int64_t *ma, const int64_t *mb, const int64_t *mc,
    int64_t *totals_out)
{
    if (n_rails > 64)
        return -1;
    const int64_t G = n_groups ? n_groups : 1;
    int64_t *row0 = calloc((size_t)G, 8);
    int64_t *row1 = calloc((size_t)G, 8);
    int64_t *et = malloc((size_t)G * 8);
    int64_t *eg = malloc((size_t)G * 8);
    int64_t *run_end = malloc((size_t)G * 8);
    uint64_t *em = malloc((size_t)G * 8);
    uint64_t *run_mask = malloc((size_t)G * 8);
    char *used = malloc((size_t)G);
    if (!row0 || !row1 || !et || !eg || !run_end || !em || !run_mask
        || !used) {
        free(row0); free(row1); free(et); free(eg); free(run_end);
        free(em); free(run_mask); free(used);
        return -1;
    }

    for (int64_t m = 0; m < n_moves; m++) {
        const int64_t kind = kinds[m], a = ma[m], b = mb[m], c = mc[m];
        int64_t changed0, changed1 = -1;
        int64_t new_tin0 = 0, new_tin1 = 0;
        int has1 = 0;
        for (int64_t g = 0; g < n_groups; g++) {
            row0[g] = 0;
            row1[g] = 0;
        }
        if (kind == 0) {            /* widen rail a by one wire */
            const int64_t w = widths[a] + 1;
            changed0 = a;
            for (int64_t k = rail_off[a]; k < rail_off[a + 1]; k++) {
                const int32_t core = rail_cores[k];
                new_tin0 += table[(size_t)core * cap + w - 1];
                const int64_t oc = woc[core];
                if (oc) {
                    const int64_t d = (oc + w - 1) / w;
                    for (int64_t kk = cg_off[core]; kk < cg_off[core + 1];
                         kk++)
                        row0[cg_ids[kk]] += d;
                }
            }
        } else if (kind == 1) {     /* move core a from rail b to rail c */
            changed0 = b;
            changed1 = c;
            has1 = 1;
            for (int64_t g = 0; g < n_groups; g++) {
                row0[g] = depths[b * n_groups + g];
                row1[g] = depths[c * n_groups + g];
            }
            new_tin0 = time_in[b] - table[(size_t)a * cap + widths[b] - 1];
            new_tin1 = time_in[c] + table[(size_t)a * cap + widths[c] - 1];
            const int64_t oc = woc[a];
            if (oc) {
                const int64_t d_src = (oc + widths[b] - 1) / widths[b];
                const int64_t d_dst = (oc + widths[c] - 1) / widths[c];
                for (int64_t kk = cg_off[a]; kk < cg_off[a + 1]; kk++) {
                    row0[cg_ids[kk]] -= d_src;
                    row1[cg_ids[kk]] += d_dst;
                }
            }
        } else {                    /* merge rails a + b onto c wires */
            const int64_t w = c;
            const int64_t pair[2] = { a, b };
            changed0 = a;
            changed1 = b;           /* removed: contributes nothing */
            for (int p = 0; p < 2; p++) {
                const int64_t r = pair[p];
                for (int64_t k = rail_off[r]; k < rail_off[r + 1]; k++) {
                    const int32_t core = rail_cores[k];
                    new_tin0 += table[(size_t)core * cap + w - 1];
                    const int64_t oc = woc[core];
                    if (oc) {
                        const int64_t d = (oc + w - 1) / w;
                        for (int64_t kk = cg_off[core];
                             kk < cg_off[core + 1]; kk++)
                            row0[cg_ids[kk]] += d;
                    }
                }
            }
        }

        int64_t t_in = new_tin0;
        if (has1 && new_tin1 > t_in)
            t_in = new_tin1;
        for (int64_t r = 0; r < n_rails; r++) {
            if (r == changed0 || r == changed1)
                continue;
            if (time_in[r] > t_in)
                t_in = time_in[r];
        }

        int64_t ne = 0;
        for (int64_t g = 0; g < n_groups; g++) {
            int64_t best = 0;
            uint64_t mask = 0;
            for (int64_t r = 0; r < n_rails; r++) {
                int64_t d;
                if (r == changed0)
                    d = row0[g];
                else if (r == changed1)
                    d = has1 ? row1[g] : 0;
                else
                    d = depths[r * n_groups + g];
                if (d) {
                    mask |= 1ULL << r;
                    const int64_t t = patterns[g] * (d + capture);
                    if (t > best)
                        best = t;
                }
            }
            if (mask) {
                et[ne] = best;
                em[ne] = mask;
                eg[ne] = gids[g];
                ne++;
            }
        }

        /* sort entries by (-time, group_id); keys are unique */
        for (int64_t i = 1; i < ne; i++) {
            const int64_t t = et[i], g = eg[i];
            const uint64_t mk = em[i];
            int64_t j = i - 1;
            while (j >= 0 && (et[j] < t || (et[j] == t && eg[j] > g))) {
                et[j + 1] = et[j];
                em[j + 1] = em[j];
                eg[j + 1] = eg[j];
                j--;
            }
            et[j + 1] = t;
            em[j + 1] = mk;
            eg[j + 1] = g;
        }

        /* greedy Algorithm 1 replay */
        int64_t t_si = 0, current = 0, n_run = 0, left = ne;
        for (int64_t i = 0; i < ne; i++)
            used[i] = 0;
        while (left) {
            uint64_t busy = 0;
            for (int64_t k = 0; k < n_run; k++)
                if (run_end[k] > current)
                    busy |= run_mask[k];
            int64_t pick = -1;
            for (int64_t i = 0; i < ne; i++)
                if (!used[i] && !(busy & em[i])) {
                    pick = i;
                    break;
                }
            if (pick >= 0) {
                used[pick] = 1;
                left--;
                const int64_t end = current + et[pick];
                run_end[n_run] = end;
                run_mask[n_run] = em[pick];
                n_run++;
                if (end > t_si)
                    t_si = end;
            } else {
                int64_t next = INT64_MAX;
                for (int64_t k = 0; k < n_run; k++)
                    if (run_end[k] > current && run_end[k] < next)
                        next = run_end[k];
                if (next == INT64_MAX) {
                    free(row0); free(row1); free(et); free(eg);
                    free(run_end); free(em); free(run_mask); free(used);
                    return -2;  /* stalled: cannot happen on valid input */
                }
                current = next;
            }
        }
        totals_out[m] = t_in + t_si;
    }
    free(row0); free(row1); free(et); free(eg); free(run_end);
    free(em); free(run_mask); free(used);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Full mergeTAMs candidate with leftover-wire redistribution.
 *
 * The expensive optimizer path is "merge rails a+b onto c wires, then
 * hand the (w_a + w_b - c) freed wires to bottleneck rails one at a
 * time" -- a greedy loop whose every wire re-derives the bottleneck set
 * (InTest maxima plus the SI schedule's critical chain) and scores one
 * widen candidate per bottleneck rail.  The routines below replay that
 * loop with the exact Python semantics: the same group bottleneck
 * (first rail achieving the strict maximum, scanning ascending), the
 * same schedule order (picks sorted by (begin, group_id)), the same
 * stable critical-chain walk (end descending, ties in original order),
 * and the same first-candidate strict-< selection over ascending rail
 * indices.  Choices are reported so the caller can replay the winning
 * candidate; losers never materialize on the Python side.
 *
 * The (core, width) time table is filled lazily by the caller, so
 * every read consults the parallel `have` byte map; a missing cell
 * aborts with -3 and reports (core, width) for the caller to fill
 * before retrying. */

static int64_t rpr_groups(
    int64_t R, int64_t n_groups, int64_t capture,
    const int64_t *ld, const int64_t *patterns, const int64_t *gids,
    int64_t *gb, int64_t *et, uint64_t *em, int64_t *eg, int64_t *ex)
{
    int64_t ne = 0;
    for (int64_t g = 0; g < n_groups; g++) {
        int64_t best = 0, btn = -1;
        uint64_t mask = 0;
        for (int64_t r = 0; r < R; r++) {
            const int64_t d = ld[r * n_groups + g];
            if (d) {
                mask |= 1ULL << r;
                const int64_t t = patterns[g] * (d + capture);
                if (t > best) {
                    best = t;
                    btn = r;
                }
            }
        }
        gb[g] = btn;
        if (mask) {
            et[ne] = best;
            em[ne] = mask;
            eg[ne] = gids[g];
            ex[ne] = g;
            ne++;
        }
    }
    /* sort entries by (-time, group_id); keys are unique */
    for (int64_t i = 1; i < ne; i++) {
        const int64_t t = et[i], g = eg[i], x = ex[i];
        const uint64_t mk = em[i];
        int64_t j = i - 1;
        while (j >= 0 && (et[j] < t || (et[j] == t && eg[j] > g))) {
            et[j + 1] = et[j];
            em[j + 1] = em[j];
            eg[j + 1] = eg[j];
            ex[j + 1] = ex[j];
            j--;
        }
        et[j + 1] = t;
        em[j + 1] = mk;
        eg[j + 1] = g;
        ex[j + 1] = x;
    }
    return ne;
}

/* Greedy Algorithm 1 over sorted entries; when sb is non-NULL the
 * schedule (begin, end, group_id, group_index) is recorded and sorted
 * by (begin, group_id).  Returns the schedule length, or -2 on stall. */
static int64_t rpr_greedy(
    int64_t ne, const int64_t *et, const uint64_t *em,
    const int64_t *eg, const int64_t *ex,
    int64_t *sb, int64_t *se, int64_t *sg, int64_t *sx,
    int64_t *run_end, uint64_t *run_mask, char *used, int64_t *t_si_out)
{
    int64_t t_si = 0, current = 0, n_run = 0, left = ne, ns = 0;
    for (int64_t i = 0; i < ne; i++)
        used[i] = 0;
    while (left) {
        uint64_t busy = 0;
        for (int64_t k = 0; k < n_run; k++)
            if (run_end[k] > current)
                busy |= run_mask[k];
        int64_t pick = -1;
        for (int64_t i = 0; i < ne; i++)
            if (!used[i] && !(busy & em[i])) {
                pick = i;
                break;
            }
        if (pick >= 0) {
            used[pick] = 1;
            left--;
            const int64_t end = current + et[pick];
            run_end[n_run] = end;
            run_mask[n_run] = em[pick];
            n_run++;
            if (sb) {
                sb[ns] = current;
                se[ns] = end;
                sg[ns] = eg[pick];
                sx[ns] = ex[pick];
            }
            ns++;
            if (end > t_si)
                t_si = end;
        } else {
            int64_t next = INT64_MAX;
            for (int64_t k = 0; k < n_run; k++)
                if (run_end[k] > current && run_end[k] < next)
                    next = run_end[k];
            if (next == INT64_MAX)
                return -2;
            current = next;
        }
    }
    if (sb) {
        /* sort by (begin, group_id); keys are unique */
        for (int64_t i = 1; i < ns; i++) {
            const int64_t b = sb[i], e = se[i], g = sg[i], x = sx[i];
            int64_t j = i - 1;
            while (j >= 0 && (sb[j] > b || (sb[j] == b && sg[j] > g))) {
                sb[j + 1] = sb[j];
                se[j + 1] = se[j];
                sg[j + 1] = sg[j];
                sx[j + 1] = sx[j];
                j--;
            }
            sb[j + 1] = b;
            se[j + 1] = e;
            sg[j + 1] = g;
            sx[j + 1] = x;
        }
    }
    *t_si_out = t_si;
    return ns;
}

/* Bottleneck rails: InTest maxima plus the bottleneck of every group on
 * the schedule's critical chain (walked end-descending, stable). */
static uint64_t rpr_bottlenecks(
    int64_t R, const int64_t *lt, int64_t t_in,
    int64_t ns, const int64_t *sb, const int64_t *se, const int64_t *sx,
    const int64_t *gb, int64_t t_si, int64_t *ord, int64_t *crit)
{
    uint64_t mask = 0;
    if (t_in > 0)
        for (int64_t r = 0; r < R; r++)
            if (lt[r] == t_in)
                mask |= 1ULL << r;
    if (ns) {
        for (int64_t i = 0; i < ns; i++)
            ord[i] = i;
        /* stable sort by end descending (strict compare keeps ties in
         * (begin, group_id) order -- Python's sorted() stability) */
        for (int64_t i = 1; i < ns; i++) {
            const int64_t key = ord[i];
            int64_t j = i - 1;
            while (j >= 0 && se[ord[j]] < se[key]) {
                ord[j + 1] = ord[j];
                j--;
            }
            ord[j + 1] = key;
        }
        int64_t ncrit = 0;
        crit[ncrit++] = t_si;
        for (int64_t i = 0; i < ns; i++) {
            const int64_t e = se[ord[i]];
            int member = 0;
            for (int64_t k = 0; k < ncrit; k++)
                if (crit[k] == e) {
                    member = 1;
                    break;
                }
            if (member) {
                mask |= 1ULL << gb[sx[ord[i]]];
                if (sb[ord[i]] > 0)
                    crit[ncrit++] = sb[ord[i]];
            }
        }
    }
    return mask;
}

/* Score widening local rail r by one wire.  Returns the candidate
 * T_soc (always >= 0), -2 on stall, or -3 with missing_out filled when
 * a table cell is absent.  new_tin_out/new_row receive the rail's
 * patched figures for a later apply. */
static int64_t rpr_score_widen(
    int64_t R, int64_t n_groups, int64_t capture, int64_t r,
    const int64_t *lw, const int64_t *lt, const int64_t *ld,
    const int64_t *loff, const int32_t *lcores,
    const int64_t *woc, const int64_t *cg_off, const int32_t *cg_ids,
    const int64_t *patterns, const int64_t *gids,
    const int64_t *table, const uint8_t *have, int64_t cap,
    int64_t *et, uint64_t *em, int64_t *eg, int64_t *ex,
    int64_t *run_end, uint64_t *run_mask, char *used,
    int64_t *new_tin_out, int64_t *new_row, int64_t *missing_out)
{
    const int64_t w = lw[r] + 1;
    int64_t tin = 0;
    for (int64_t g = 0; g < n_groups; g++)
        new_row[g] = 0;
    for (int64_t k = loff[r]; k < loff[r + 1]; k++) {
        const int32_t core = lcores[k];
        if (w > cap || !have[(size_t)core * cap + w - 1]) {
            missing_out[0] = core;
            missing_out[1] = w;
            return -3;
        }
        tin += table[(size_t)core * cap + w - 1];
        const int64_t oc = woc[core];
        if (oc) {
            const int64_t d = (oc + w - 1) / w;
            for (int64_t kk = cg_off[core]; kk < cg_off[core + 1]; kk++)
                new_row[cg_ids[kk]] += d;
        }
    }
    int64_t t_in = tin;
    for (int64_t rr = 0; rr < R; rr++)
        if (rr != r && lt[rr] > t_in)
            t_in = lt[rr];
    int64_t ne = 0;
    for (int64_t g = 0; g < n_groups; g++) {
        int64_t best = 0;
        uint64_t mask = 0;
        for (int64_t rr = 0; rr < R; rr++) {
            const int64_t d = (rr == r) ? new_row[g]
                                        : ld[rr * n_groups + g];
            if (d) {
                mask |= 1ULL << rr;
                const int64_t t = patterns[g] * (d + capture);
                if (t > best)
                    best = t;
            }
        }
        if (mask) {
            et[ne] = best;
            em[ne] = mask;
            eg[ne] = gids[g];
            ex[ne] = g;
            ne++;
        }
    }
    for (int64_t i = 1; i < ne; i++) {
        const int64_t t = et[i], g = eg[i], x = ex[i];
        const uint64_t mk = em[i];
        int64_t j = i - 1;
        while (j >= 0 && (et[j] < t || (et[j] == t && eg[j] > g))) {
            et[j + 1] = et[j];
            em[j + 1] = em[j];
            eg[j + 1] = eg[j];
            ex[j + 1] = ex[j];
            j--;
        }
        et[j + 1] = t;
        em[j + 1] = mk;
        eg[j + 1] = g;
        ex[j + 1] = x;
    }
    int64_t t_si = 0;
    const int64_t ns = rpr_greedy(ne, et, em, eg, ex, 0, 0, 0, 0,
                                  run_end, run_mask, used, &t_si);
    if (ns < 0)
        return -2;
    *new_tin_out = tin;
    return t_in + t_si;
}

int64_t repro_merge_distribute(
    int64_t n_rails, int64_t n_groups, int64_t capture,
    const int64_t *widths, const int64_t *time_in, const int64_t *depths,
    const int64_t *rail_off, const int32_t *rail_cores,
    const int64_t *woc, const int64_t *cg_off, const int32_t *cg_ids,
    const int64_t *patterns, const int64_t *gids,
    const int64_t *table, const uint8_t *have, int64_t cap,
    int64_t merge_a, int64_t merge_b, int64_t merge_c, int64_t leftover,
    int64_t *choices_out, int64_t *total_out, int64_t *missing_out)
{
    if (n_rails > 64 || n_rails < 2 || leftover < 0)
        return -1;
    const int64_t R = n_rails - 1;      /* rails after the merge */
    const int64_t G = n_groups ? n_groups : 1;
    const int64_t ncores = rail_off[n_rails];
    int64_t status = 0;
    int64_t *lw = malloc((size_t)R * 8);
    int64_t *lt = malloc((size_t)R * 8);
    int64_t *ld = calloc((size_t)(R * G), 8);
    int64_t *loff = malloc((size_t)(R + 1) * 8);
    int32_t *lcores = malloc((size_t)ncores * 4);
    int64_t *gb = malloc((size_t)G * 8);
    int64_t *et = malloc((size_t)G * 8);
    uint64_t *em = malloc((size_t)G * 8);
    int64_t *eg = malloc((size_t)G * 8);
    int64_t *ex = malloc((size_t)G * 8);
    int64_t *sb = malloc((size_t)G * 8);
    int64_t *se = malloc((size_t)G * 8);
    int64_t *sg = malloc((size_t)G * 8);
    int64_t *sx = malloc((size_t)G * 8);
    int64_t *ord = malloc((size_t)G * 8);
    int64_t *crit = malloc((size_t)(G + 1) * 8);
    int64_t *run_end = malloc((size_t)G * 8);
    uint64_t *run_mask = malloc((size_t)G * 8);
    char *used = malloc((size_t)G);
    int64_t *cand_d = malloc((size_t)G * 8);
    int64_t *best_d = malloc((size_t)G * 8);
    if (!lw || !lt || !ld || !loff || !lcores || !gb || !et || !em
        || !eg || !ex || !sb || !se || !sg || !sx || !ord || !crit
        || !run_end || !run_mask || !used || !cand_d || !best_d) {
        status = -1;
        goto done;
    }

    /* local post-merge state: rail b removed, the merged rail takes
     * rail a's (shifted) slot -- the exact remap of the Python apply */
    {
        int64_t pos = 0;
        for (int64_t r = 0; r < n_rails; r++) {
            if (r == merge_b)
                continue;
            const int64_t lr = r - (r > merge_b);
            loff[lr] = pos;
            if (r == merge_a) {
                const int64_t pair[2] = { merge_a, merge_b };
                int64_t tin = 0;
                for (int p = 0; p < 2; p++) {
                    for (int64_t k = rail_off[pair[p]];
                         k < rail_off[pair[p] + 1]; k++) {
                        const int32_t core = rail_cores[k];
                        lcores[pos++] = core;
                        if (merge_c > cap
                            || !have[(size_t)core * cap + merge_c - 1]) {
                            missing_out[0] = core;
                            missing_out[1] = merge_c;
                            status = -3;
                            goto done;
                        }
                        tin += table[(size_t)core * cap + merge_c - 1];
                        const int64_t oc = woc[core];
                        if (oc) {
                            const int64_t d = (oc + merge_c - 1) / merge_c;
                            for (int64_t kk = cg_off[core];
                                 kk < cg_off[core + 1]; kk++)
                                ld[lr * n_groups + cg_ids[kk]] += d;
                        }
                    }
                }
                lw[lr] = merge_c;
                lt[lr] = tin;
            } else {
                lw[lr] = widths[r];
                lt[lr] = time_in[r];
                for (int64_t g = 0; g < n_groups; g++)
                    ld[lr * n_groups + g] = depths[r * n_groups + g];
                for (int64_t k = rail_off[r]; k < rail_off[r + 1]; k++)
                    lcores[pos++] = rail_cores[k];
            }
        }
        loff[R] = pos;
    }

    for (int64_t wire = 0; ; wire++) {
        const int64_t ne = rpr_groups(R, n_groups, capture, ld, patterns,
                                      gids, gb, et, em, eg, ex);
        int64_t t_si = 0;
        const int64_t ns = rpr_greedy(ne, et, em, eg, ex, sb, se, sg, sx,
                                      run_end, run_mask, used, &t_si);
        if (ns < 0) {
            status = -2;
            goto done;
        }
        int64_t t_in = 0;
        for (int64_t r = 0; r < R; r++)
            if (lt[r] > t_in)
                t_in = lt[r];
        if (wire == leftover) {
            *total_out = t_in + t_si;
            break;
        }
        uint64_t cand = rpr_bottlenecks(R, lt, t_in, ns, sb, se, sx, gb,
                                        t_si, ord, crit);
        if (!cand)
            cand = (R == 64) ? ~0ULL : ((1ULL << R) - 1);
        int64_t best_total = INT64_MAX, best_r = -1, best_tin = 0;
        for (int64_t r = 0; r < R; r++) {
            if (!(cand & (1ULL << r)))
                continue;
            int64_t tin_r = 0;
            const int64_t total = rpr_score_widen(
                R, n_groups, capture, r, lw, lt, ld, loff, lcores,
                woc, cg_off, cg_ids, patterns, gids, table, have, cap,
                et, em, eg, ex, run_end, run_mask, used,
                &tin_r, cand_d, missing_out);
            if (total < 0) {
                status = total;
                goto done;
            }
            if (total < best_total) {
                best_total = total;
                best_r = r;
                best_tin = tin_r;
                for (int64_t g = 0; g < n_groups; g++)
                    best_d[g] = cand_d[g];
            }
        }
        if (best_r < 0) {
            status = -1;
            goto done;
        }
        choices_out[wire] = best_r;
        lw[best_r] += 1;
        lt[best_r] = best_tin;
        for (int64_t g = 0; g < n_groups; g++)
            ld[best_r * n_groups + g] = best_d[g];
    }

done:
    free(lw); free(lt); free(ld); free(loff); free(lcores); free(gb);
    free(et); free(em); free(eg); free(ex); free(sb); free(se); free(sg);
    free(sx); free(ord); free(crit); free(run_end); free(run_mask);
    free(used); free(cand_d); free(best_d);
    return status;
}
"""


def _bind(lib):
    fn = lib.repro_move_scan
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # rails/groups/capture
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # widths/tin/depths
        ctypes.c_void_p, ctypes.c_void_p,  # rail_off, rail_cores
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # woc, cg CSR
        ctypes.c_void_p, ctypes.c_void_p,  # patterns, gids
        ctypes.c_void_p, ctypes.c_int64,   # table, cap
        ctypes.c_int64, ctypes.c_void_p,   # n_moves, kinds
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # ma, mb, mc
        ctypes.c_void_p,                   # totals_out
    ]
    dist = lib.repro_merge_distribute
    dist.restype = ctypes.c_int64
    dist.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,  # rails/groups/capture
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # widths/tin/depths
        ctypes.c_void_p, ctypes.c_void_p,  # rail_off, rail_cores
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # woc, cg CSR
        ctypes.c_void_p, ctypes.c_void_p,  # patterns, gids
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,  # table, have, cap
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,    # merge a, b, c
        ctypes.c_int64,                    # leftover
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,  # choices/total/missing
    ]
    return fn, dist


def _addr(buffer: array) -> int:
    return buffer.buffer_info()[0]


def _run(fn, n_rails, n_groups, capture, widths, time_in, depths,
         rail_off, rail_cores, woc, cg_off, cg_ids, patterns, gids,
         table, cap, kinds, ma, mb, mc):
    n_moves = len(kinds)
    totals = array("q", bytes(8 * n_moves))
    status = fn(
        n_rails, n_groups, capture,
        _addr(widths), _addr(time_in), _addr(depths),
        _addr(rail_off), _addr(rail_cores),
        _addr(woc), _addr(cg_off), _addr(cg_ids),
        _addr(patterns), _addr(gids),
        _addr(table), cap,
        n_moves, _addr(kinds),
        _addr(ma), _addr(mb), _addr(mc),
        _addr(totals),
    )
    if status < 0:
        return None
    return list(totals)


def _run_distribute(dist, n_rails, n_groups, capture, widths, time_in,
                    depths, rail_off, rail_cores, woc, cg_off, cg_ids,
                    patterns, gids, table, have, cap,
                    merge_a, merge_b, merge_c, leftover):
    """Run the merge+distribute replay once.

    Returns ``(total, choices)`` on success, ``(core, width)`` ints
    packed in a :class:`MissingCell` when the time table lacks a cell,
    and ``None`` on hard errors (caller falls back to Python).
    """
    choices = array("q", bytes(8 * max(leftover, 1)))
    total = array("q", (0,))
    missing = array("q", (0, 0))
    status = dist(
        n_rails, n_groups, capture,
        _addr(widths), _addr(time_in), _addr(depths),
        _addr(rail_off), _addr(rail_cores),
        _addr(woc), _addr(cg_off), _addr(cg_ids),
        _addr(patterns), _addr(gids),
        _addr(table), _addr(have), cap,
        merge_a, merge_b, merge_c, leftover,
        _addr(choices), _addr(total), _addr(missing),
    )
    if status == -3:
        return MissingCell(missing[0], missing[1])
    if status < 0:
        return None
    return total[0], tuple(choices[:leftover])


class MissingCell(tuple):
    """Sentinel result: the C replay needs ``(core, width)`` filled."""

    __slots__ = ()

    def __new__(cls, core, width):
        return super().__new__(cls, (core, width))


def _smoke(fn) -> bool:
    """One hand-rolled call guarding against ABI/layout mishaps.

    Two one-core rails of width 1; core 0 has WOC 2 and belongs to the
    single SI group (3 patterns, 1 capture cycle), core 1 has none.  The
    base state costs 10 + 9 = 19; widening rail 0 must score 12, moving
    core 1 onto rail 0 must score 23, and merging both rails onto two
    wires must score 16 — worked by hand from the timing model.
    """
    out = _run(
        fn, 2, 1, 1,
        array("q", (1, 1)), array("q", (10, 4)), array("q", (2, 0)),
        array("q", (0, 1, 2)), array("i", (0, 1)),       # rail CSR
        array("q", (2, 0)),                               # woc
        array("q", (0, 1, 1)), array("i", (0,)),          # core-group CSR
        array("q", (3,)), array("q", (0,)),               # patterns, gids
        array("q", (10, 6, 4, 4)), 2,                     # time table, cap
        array("q", (0, 1, 2)),                            # kinds
        array("q", (0, 1, 0)),                            # a
        array("q", (0, 1, 1)),                            # b
        array("q", (0, 0, 2)),                            # c
    )
    return out == [12, 23, 16]


def _smoke_distribute(dist) -> bool:
    """Hand-rolled check of the merge+distribute replay on the same tiny
    SOC: merging both rails onto one wire with one leftover wire costs
    14 + 9 = 23 before redistribution; the single bottleneck is the
    merged rail, widening it to two wires lands on the exact-merge total
    of 16 with choice sequence [0]."""
    out = _run_distribute(
        dist, 2, 1, 1,
        array("q", (1, 1)), array("q", (10, 4)), array("q", (2, 0)),
        array("q", (0, 1, 2)), array("i", (0, 1)),       # rail CSR
        array("q", (2, 0)),                               # woc
        array("q", (0, 1, 1)), array("i", (0,)),          # core-group CSR
        array("q", (3,)), array("q", (0,)),               # patterns, gids
        array("q", (10, 6, 4, 4)), array("B", (1, 1, 1, 1)), 2,
        0, 1, 1, 1,                                       # merge a, b, c; L
    )
    return out == (16, (0,))


def _smoke_both(handle) -> bool:
    return _smoke(handle[0]) and _smoke_distribute(handle[1])


ENGINE = NativeEngine(
    "movescan", _SOURCE, "REPRO_OPTIMIZER_CSCAN", _bind, _smoke_both
)


def available() -> bool:
    """Whether the C move scanner compiled, loaded, and passed its smoke."""
    return ENGINE.available()


def warm() -> bool:
    """Resolve the engine now, instead of lazily inside the first scan.

    The resolved handles are cached for the life of the process, so a
    persistent sweep worker that calls this during warm-up pays the
    compile/load/smoke cost exactly once, outside any cell's wall clock.
    """
    return ENGINE.available()


def score_moves(n_rails, n_groups, capture, widths, time_in, depths,
                rail_off, rail_cores, woc, cg_off, cg_ids, patterns, gids,
                table, cap, kinds, ma, mb, mc):
    """Score a candidate batch in C; ``None`` when the engine is
    unavailable (callers fall back to the Python patch path).

    All array arguments are :mod:`array` buffers in the layout described
    by the C source; returns one ``T_soc`` total per candidate.
    """
    if not available():
        return None
    return _run(ENGINE.handle[0], n_rails, n_groups, capture, widths,
                time_in, depths, rail_off, rail_cores, woc, cg_off, cg_ids,
                patterns, gids, table, cap, kinds, ma, mb, mc)


def merge_distribute(n_rails, n_groups, capture, widths, time_in, depths,
                     rail_off, rail_cores, woc, cg_off, cg_ids, patterns,
                     gids, table, have, cap,
                     merge_a, merge_b, merge_c, leftover):
    """Replay one merge-with-leftover candidate in C.

    Returns ``(total, choices)`` — the candidate's ``T_soc`` after the
    greedy leftover redistribution plus the chosen rail index per wire
    (post-merge indexing, for replaying the winner) — a
    :class:`MissingCell` when a ``(core, width)`` time-table cell must
    be filled first, or ``None`` when the engine is unavailable.
    """
    if not available():
        return None
    return _run_distribute(ENGINE.handle[1], n_rails, n_groups, capture,
                           widths, time_in, depths, rail_off, rail_cores,
                           woc, cg_off, cg_ids, patterns, gids, table, have,
                           cap, merge_a, merge_b, merge_c, leftover)
