"""A fixed amount of pure-Python work that measures the host's speed.

The host this benchmark was tuned on runs the same code up to half again
as fast in some stretches of a few minutes as in others, which moves a
run's median op time by more than any bound worth setting.  The probe
runs right before and right after every op and every set-up, and the
benchmark scales each time it reports to a host on which the probe
takes ``REFERENCE_MS``.

The probe imports nothing from the program, so a change to the program
cannot move it.  Its three kernels imitate the instruction mix of the
layers the workloads stress: sorting records by a key and grouping them
into sets (the registry scans), a combination odometer over set unions
and counters (selection), and ranking pairs of targets (enumeration).
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from time import perf_counter_ns

# Probe time at the reference speed, close to its median on the host the
# benchmark was tuned on, so scaled times read like that host's.
REFERENCE_MS = 12.0

_RECORDS = [(f"N{i}", (i * 7919) % 1000 * 0.01, (i * 104729) % 997 * 0.1) for i in range(2000)]
_POOLS = [
    tuple(((f"S{s}", f"G{(s * 3 + j) % 9}"), (f"G{(s * 3 + j) % 9}", f"H{j % 5}")) for j in range(5))
    for s in range(4)
]
_LIMITS = {f"G{g}": 1 for g in range(9)} | {f"H{h}": 9 for h in range(5)}
_TARGETS = {f"B{i}": (i * 7919) % 1000 * 0.01 for i in range(60)}


def _record_cost(record):
    return record[1] + record[2]


def _registry_scan() -> int:
    groups: dict[str, set] = {}
    for name, a, _b in sorted(_RECORDS, key=_record_cost):
        groups.setdefault(name[-1], set()).add((name, a))
    return sum(len(frozenset(g)) for g in groups.values())


def _odometer() -> int:
    feasible = 0
    for combo in product(*_POOLS):
        union: set = set()
        for edges in combo:
            union.update(edges)
        loads = Counter(b for _, b in union)
        feasible += all(count <= _LIMITS[node] for node, count in loads.items())
    return feasible


def _rank_pairs() -> int:
    ranked = []
    for a, b in combinations(sorted(_TARGETS), 2):
        succ: dict[str, list[str]] = {}
        for x, y in (("A", a), ("A", b)):
            succ.setdefault(x, []).append(y)
        ranked.append((max(_TARGETS[y] for y in succ["A"]), (("A", a), ("A", b))))
    ranked.sort(key=lambda item: (item[0], item[1]))
    return len(ranked)


def speed_probe() -> float:
    """Milliseconds the three kernels take, run once each."""
    started = perf_counter_ns()
    _registry_scan()
    _odometer()
    _rank_pairs()
    return (perf_counter_ns() - started) / 1e6
