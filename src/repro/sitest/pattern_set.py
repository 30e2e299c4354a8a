"""Columnar SI pattern sets and index views over them.

A generated pattern set is stored once, as a handful of :mod:`array`
columns, instead of one :class:`~repro.sitest.patterns.SIPattern` (two
dicts and a tuple) per pattern:

* **Terminal layout.**  ``cores`` lists the core ids in layout order and
  ``bases`` the first global terminal id of each; terminal
  ``(cores[p], index)`` has id ``bases[p] + index``.  The generator lays
  out the SOC's cores with output cells, in SOC order, each spanning its
  ``woc_count`` terminals.
* **Care CSR.**  ``care_keys[care_off[r]:care_off[r + 1]]`` are pattern
  ``r``'s cares as ``terminal_id * 4 + symbol_id`` (symbol ids follow
  :data:`~repro.sitest.patterns.SYMBOLS`), in the cares' insertion order.
* **Bus CSR.**  ``bus_keys[bus_off[r]:bus_off[r + 1]]`` are its bus claims
  as ``line * len(cores) + driver_position``, in insertion order.
* ``victims[r]`` is the victim's terminal id, or ``-1`` for none.
* ``masks[r]`` has bit ``p`` set when the pattern cares about a terminal
  of ``cores[p]``: the care-core set as one integer.

:meth:`PatternSet.select` returns an *index view*: the same columns plus a
``rows`` array naming the selected patterns in order.  Grouping routes
patterns into views and the compaction scan reads their columns directly,
so the table sweep never builds a pattern object.  Everything else sees a
read-only ``Sequence[SIPattern]``: indexing or iterating a set builds each
pattern on demand, with the same dict insertion order the patterns were
encoded with.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence

from repro.sitest.patterns import SIPattern, SYMBOLS

__all__ = ["PatternSet"]

#: Symbol id per care symbol, the position in :data:`SYMBOLS`.
SYMBOL_IDS = {symbol: sid for sid, symbol in enumerate(SYMBOLS)}


def mask_column(core_count: int):
    """An empty care-core mask column: 64-bit words while the masks fit."""
    return array("Q") if core_count <= 64 else []


class PatternSet(Sequence):
    """A read-only, columnar sequence of SI patterns (module docstring).

    Attributes:
        cores: Core ids in layout order.
        bases: First terminal id per core position, plus the total count.
        care_keys, care_off: The care CSR.
        bus_keys, bus_off: The bus-claim CSR.
        victims: Victim terminal id per pattern (``-1``: none).
        masks: Care-core bitmask per pattern.
        rows: The selected patterns of an index view, ``None`` for all.
        format: Layout version, :attr:`FORMAT` when built by this code.
    """

    #: Bumped whenever the column layout changes, so a set pickled by
    #: older code is recognisably stale (see :meth:`is_current`).
    FORMAT = 1

    def __init__(self, cores, bases, care_keys, care_off, bus_keys,
                 bus_off, victims, masks, rows=None):
        self.cores = tuple(cores)
        self.bases = bases
        self.care_keys = care_keys
        self.care_off = care_off
        self.bus_keys = bus_keys
        self.bus_off = bus_off
        self.victims = victims
        self.masks = masks
        self.rows = rows
        self.format = self.FORMAT
        self._terminals = None

    @classmethod
    def is_current(cls, value) -> bool:
        """Whether ``value`` is a pattern set in this code's layout."""
        return isinstance(value, cls) and value.format == cls.FORMAT

    @classmethod
    def from_patterns(cls, patterns, soc=None) -> "PatternSet":
        """Encode a sequence of patterns; a :class:`PatternSet` is returned
        as is.

        With ``soc`` the terminal layout is the generator's (cores with
        output cells, in SOC order); without, the cores the patterns
        mention, in ascending id order, each spanning up to its highest
        terminal index.

        Raises:
            ValueError: On a negative terminal index or bus line, or with
                ``soc``, a terminal outside the SOC's output cells.
        """
        if isinstance(patterns, PatternSet):
            return patterns
        if soc is not None:
            extents = {core.core_id: core.woc_count
                       for core in soc if core.woc_count > 0}
        else:
            extents = _extents(patterns)
        cores = tuple(extents)
        position = {core_id: p for p, core_id in enumerate(cores)}
        bases = array("i", (0,))
        for core_id in cores:
            bases.append(bases[-1] + extents[core_id])
        count = len(cores)
        care_keys = array("i")
        care_off = array("q", (0,))
        bus_keys = array("i")
        bus_off = array("q", (0,))
        victims = array("i")
        masks = mask_column(count)

        def terminal_id(terminal) -> tuple[int, int]:
            core_id, index = terminal
            p = position.get(core_id)
            if p is None or not 0 <= index < extents[core_id]:
                raise ValueError(f"terminal {terminal} is outside the layout")
            return bases[p] + index, p

        for pattern in patterns:
            mask = 0
            for terminal, symbol in pattern.cares.items():
                tid, p = terminal_id(terminal)
                care_keys.append(tid * 4 + SYMBOL_IDS[symbol])
                mask |= 1 << p
            for line, driver in pattern.bus_claims.items():
                if line < 0:
                    raise ValueError(f"negative bus line {line}")
                bus_keys.append(line * count + position[driver])
            care_off.append(len(care_keys))
            bus_off.append(len(bus_keys))
            victim = pattern.victim
            victims.append(-1 if victim is None else terminal_id(victim)[0])
            masks.append(mask)
        return cls(cores, bases, care_keys, care_off, bus_keys, bus_off,
                   victims, masks)

    # -- views ---------------------------------------------------------------

    def select(self, rows) -> "PatternSet":
        """An index view of the patterns at positions ``rows`` of this
        sequence, in that order, sharing this set's columns."""
        rows = array("i", rows)
        if self.rows is not None:
            own = self.rows
            rows = array("i", [own[r] for r in rows])
        return PatternSet(self.cores, self.bases, self.care_keys,
                          self.care_off, self.bus_keys, self.bus_off,
                          self.victims, self.masks, rows)

    def row_ids(self) -> array:
        """Column rows of the patterns in this sequence, in order."""
        if self.rows is not None:
            return self.rows
        return array("i", range(len(self.victims)))

    def care_masks(self):
        """The care-core bitmask of every pattern in this sequence."""
        if self.rows is None:
            return self.masks
        masks = self.masks
        return [masks[r] for r in self.rows]

    def mask_cores(self, mask: int) -> list[int]:
        """Core ids of the set bits of a care-core mask, in layout order."""
        cores = self.cores
        ids = []
        while mask:
            low = mask & -mask
            ids.append(cores[low.bit_length() - 1])
            mask ^= low
        return ids

    def bus_key_space(self) -> int:
        """One more than the largest bus key (0 without bus claims)."""
        return max(self.bus_keys, default=-1) + 1

    # -- Sequence[SIPattern] -----------------------------------------------

    def __len__(self) -> int:
        return len(self.victims if self.rows is None else self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("pattern index out of range")
        return self._pattern(index if self.rows is None else self.rows[index])

    def __iter__(self):
        rows = range(len(self.victims)) if self.rows is None else self.rows
        for row in rows:
            yield self._pattern(row)

    def __eq__(self, other):
        if not isinstance(other, (PatternSet, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"PatternSet({len(self)} patterns over {len(self.cores)} cores)"

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_terminals"] = None
        return state

    def terminals(self) -> list[tuple[int, int]]:
        """The terminal of every global terminal id."""
        if self._terminals is None:
            bases = self.bases
            self._terminals = [
                (core_id, index)
                for p, core_id in enumerate(self.cores)
                for index in range(bases[p + 1] - bases[p])
            ]
        return self._terminals

    def _pattern(self, row: int) -> SIPattern:
        terminals = self.terminals()
        off = self.care_off
        cares = {
            terminals[key >> 2]: SYMBOLS[key & 3]
            for key in self.care_keys[off[row]:off[row + 1]]
        }
        off = self.bus_off
        count = len(self.cores)
        cores = self.cores
        bus_claims = {
            key // count: cores[key % count]
            for key in self.bus_keys[off[row]:off[row + 1]]
        }
        victim = self.victims[row]
        return SIPattern(
            cares=cares,
            bus_claims=bus_claims,
            victim=None if victim < 0 else terminals[victim],
        )


def _extents(patterns) -> dict[int, int]:
    """Terminal span per mentioned core, in ascending core id order."""
    extents: dict[int, int] = {}
    for pattern in patterns:
        terminals = list(pattern.cares)
        if pattern.victim is not None:
            terminals.append(pattern.victim)
        for core_id, index in terminals:
            if index < 0:
                raise ValueError(f"negative terminal index in {(core_id, index)}")
            if index >= extents.get(core_id, 0):
                extents[core_id] = index + 1
        for driver in pattern.bus_claims.values():
            extents.setdefault(driver, 0)
    return {core_id: extents[core_id] for core_id in sorted(extents)}
