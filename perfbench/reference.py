"""The machine's speed, measured by a fixed piece of pure-Python work.

On a shared virtual machine other tenants can slow the CPU by up to 1.3-2x
in spells of seconds to minutes. When the guest is shown no steal time, a
slow spell looks like a slow CPU, and process CPU time grows with it as much
as wall time does. No estimator over one run's own latencies can take that
out, because a whole run may fall into one spell.

So the untraced loop times `work()` after every instance, and scales each
instance's time by `NOMINAL_S` over the median of the reference times around
it: the times read as those the machine would give at the speed where
`work()` takes `NOMINAL_S`.
`work()` does what palab does (splits text lines, builds dicts of sets,
walks a graph with a worklist, sorts and formats names) and shares no code
with it, so a change to palab cannot move it.
"""

from __future__ import annotations

import random

NOMINAL_S = 0.4e-3

_rng = random.Random(20070505)
_TEXT = "".join(f"v{_rng.randrange(60)} = v{_rng.randrange(60)}\n" for _ in range(150))


def work() -> str:
    """Reachability from a dozen sources over a fixed 60-node graph, as text."""
    succ: dict[str, set[str]] = {}
    for line in _TEXT.splitlines():
        lhs, _, rhs = line.split()
        succ.setdefault(rhs, set()).add(lhs)
    reach = {}
    for source in list(succ)[:12]:
        seen = {source}
        todo = [source]
        while todo:
            for nxt in succ.get(todo.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        reach[source] = seen
    return "".join(f"{k}: {' '.join(sorted(v))}\n" for k, v in sorted(reach.items()))
