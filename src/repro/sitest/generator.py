"""Random SI test pattern generation following the paper's Section 5 protocol.

The ITC'02 benchmarks carry no functional interconnect information, so the
paper generates random SI test patterns:

* each pattern has **one victim** terminal and ``N_a`` (``2 <= N_a <= 6``)
  random aggressor terminals,
* **at most two** aggressors lie outside the victim core's boundary,
* a 32-bit functional bus is shared by all cores; a pattern uses the bus
  with probability 0.5, in which case ``1 .. N_a`` random postfix bits are
  occupied (claimed from the victim core's boundary).

The construction is fully deterministic for a given seed.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass

from repro.soc.model import Soc
from repro.sitest import _cgen
from repro.sitest.pattern_set import PatternSet, mask_column
from repro.sitest.patterns import SIPattern, SYMBOLS, TRANSITIONS


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the random SI pattern generator (paper defaults).

    Attributes:
        min_aggressors: Lower bound on ``N_a``.
        max_aggressors: Upper bound on ``N_a``.
        max_external_aggressors: Cap on aggressors outside the victim core.
        bus_width: Width of the shared functional bus.
        bus_probability: Probability that a pattern utilizes the bus.
    """

    min_aggressors: int = 2
    max_aggressors: int = 6
    max_external_aggressors: int = 2
    bus_width: int = 32
    bus_probability: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.min_aggressors <= self.max_aggressors:
            raise ValueError("need 0 < min_aggressors <= max_aggressors")
        if self.max_external_aggressors < 0:
            raise ValueError("max_external_aggressors must be non-negative")
        if self.bus_width < 0:
            raise ValueError("bus_width must be non-negative")
        if not 0.0 <= self.bus_probability <= 1.0:
            raise ValueError("bus_probability must lie in [0, 1]")


def generate_random_patterns(
    soc: Soc,
    count: int,
    seed: int = 0,
    config: GeneratorConfig = GeneratorConfig(),
) -> PatternSet:
    """Generate ``count`` random SI test patterns for ``soc``.

    Cores without output cells can be neither victims nor aggressor hosts.
    The patterns are written straight into a columnar
    :class:`~repro.sitest.pattern_set.PatternSet` laid out over those
    cores; it reads as a ``Sequence[SIPattern]``.

    Per pattern the draws are, in order: the victim core and terminal and
    its symbol; ``N_a``; the external aggressor count (only with more
    than one host); the internal aggressors, as a sample of the victim
    core's other terminals, each with a transition; each external
    aggressor's host, terminal and (unless it repeats an earlier one)
    transition; and the bus postfix.  Every draw goes through
    ``Random._randbelow`` exactly as ``choice``, ``randrange``,
    ``randint`` and ``sample`` would make it, so a seed's patterns never
    depend on how they are stored.  The loop runs in C
    (:mod:`repro.sitest._cgen`, replaying the same draws from a copy of
    the generator state) when that engine is available and the layout
    fits its caps, and in Python otherwise; both write the same columns.

    Raises:
        ValueError: If the SOC has no core with output cells or ``count``
            is negative.
    """
    if count < 0:
        raise ValueError("pattern count must be non-negative")
    rng = random.Random(seed)

    hosts = [core for core in soc if core.woc_count > 0]
    if not hosts:
        raise ValueError(f"SOC {soc.name} has no cores with output cells")

    bases = array("i", (0,))
    for core in hosts:
        bases.append(bases[-1] + core.woc_count)
    columns = _cgen.draw(rng, count, bases, config)
    if columns is None:
        columns = _draw_columns(rng, count, bases, config)
    return PatternSet([core.core_id for core in hosts], bases, *columns)


def _draw_columns(rng: random.Random, count: int, bases: array,
                  config: GeneratorConfig) -> tuple:
    """The generator loop in Python: the columns ``(care_keys, care_off,
    bus_keys, bus_off, victims, masks)`` of ``count`` patterns over the
    host layout ``bases``."""
    host_count = len(bases) - 1
    wocs = [bases[p + 1] - bases[p] for p in range(host_count)]
    # sampling range(woc - 1) and skipping the victim index draws exactly
    # what sampling the list of the victim's other terminals would
    spare = [range(woc - 1) for woc in wocs]
    others = [
        [q for q in range(host_count) if q != p] for p in range(host_count)
    ]

    care_keys = array("i")
    care_off = array("q", (0,))
    bus_keys = array("i")
    bus_off = array("q", (0,))
    victims = array("i")
    masks = mask_column(host_count)
    care_add = care_keys.append
    bus_add = bus_keys.append

    randbelow = rng._randbelow
    sample = rng.sample
    uniform = rng.random
    min_aggressors = config.min_aggressors
    aggressor_span = config.max_aggressors - min_aggressors + 1
    external_cap = config.max_external_aggressors
    bus_width = config.bus_width
    bus_probability = config.bus_probability
    bus_lines = range(bus_width)

    for _ in range(count):
        v = randbelow(host_count)
        base = bases[v]
        victim_index = randbelow(wocs[v])
        victim = base + victim_index
        care_add(victim * 4 + randbelow(4))

        total = min_aggressors + randbelow(aggressor_span)
        if host_count > 1:
            external = randbelow(min(external_cap, total) + 1)
        else:
            external = 0
        pool = spare[v]
        for x in sample(pool, min(total - external, len(pool))):
            if x >= victim_index:
                x += 1
            care_add((base + x) * 4 + 2 + randbelow(2))

        mask = 1 << v
        if external:
            candidates = others[v]
            seen = []
            for _ in range(external):
                host = candidates[randbelow(len(candidates))]
                terminal = bases[host] + randbelow(wocs[host])
                mask |= 1 << host
                if terminal not in seen:
                    seen.append(terminal)
                    care_add(terminal * 4 + 2 + randbelow(2))

        if bus_width and uniform() < bus_probability:
            occupied = 1 + randbelow(min(total, bus_width))
            for line in sample(bus_lines, occupied):
                bus_add(line * host_count + v)

        care_off.append(len(care_keys))
        bus_off.append(len(bus_keys))
        victims.append(victim)
        masks.append(mask)

    return care_keys, care_off, bus_keys, bus_off, victims, masks


def generate_topology_patterns(
    topology,
    soc: Soc,
    count: int,
    seed: int = 0,
    config: GeneratorConfig = GeneratorConfig(),
) -> list[SIPattern]:
    """Sample SI patterns from an actual interconnect topology.

    A middle ground between the exhaustive deterministic fault-model sets
    and the paper's fully random protocol: victims are real nets and
    aggressors are drawn from the victim's *coupled neighborhood*, so the
    sampled set reflects the layout.  The bus postfix follows the same
    probability model as the random generator.

    Args:
        topology: An :class:`~repro.sitest.topology.InterconnectTopology`.
        soc: The SOC (for bus driver attribution sanity only).
        count: Number of patterns to sample.
        seed: RNG seed.
        config: Bus and aggressor-count knobs (``max_external_aggressors``
            is ignored — locality comes from the topology itself).

    Raises:
        ValueError: If the topology has no nets or ``count`` is negative.
    """
    if count < 0:
        raise ValueError("pattern count must be non-negative")
    if not topology.nets:
        raise ValueError("topology has no nets to sample victims from")
    del soc  # reserved for future validation hooks
    rng = random.Random(seed)

    patterns = []
    for _ in range(count):
        victim_net = rng.choice(topology.nets)
        cares = {victim_net.driver: rng.choice(SYMBOLS)}
        neighbors = list(topology.neighborhoods.get(victim_net.net_id, ()))
        if neighbors:
            wanted = rng.randint(config.min_aggressors,
                                 config.max_aggressors)
            chosen = rng.sample(neighbors, min(wanted, len(neighbors)))
            for aggressor_id in chosen:
                driver = topology.nets[aggressor_id].driver
                if driver not in cares:
                    cares[driver] = rng.choice(TRANSITIONS)
        bus_claims = {}
        if (
            topology.bus is not None
            and config.bus_width
            and rng.random() < config.bus_probability
        ):
            width = min(config.bus_width, topology.bus.width)
            occupied = rng.randint(1, min(config.max_aggressors, width))
            for line in rng.sample(range(width), occupied):
                bus_claims[line] = victim_net.driver[0]
        patterns.append(
            SIPattern(cares=cares, bus_claims=bus_claims,
                      victim=victim_net.driver)
        )
    return patterns
