"""Roll a cProfile table up into self time per ``repro`` package.

The P metrics of the benchmark (``<layer>.self_us_per_op``) come from
here.  A function's ``tottime`` is charged to the package that owns its
file (``src/repro/<package>/...``).  Time spent in code that belongs to
no layer — builtins (when profiled), the standard library, numpy — is
charged to whoever called it, through the profile's caller table, so a
layer pays for the ``heapq``/``hashlib``/``dict`` work it asks for.
What cannot be charged to any layer (the benchmark's own frames, the
profile's root) lands in :data:`OTHER`; every second of ``tottime``
ends up in exactly one bucket, so the buckets sum to the profile total.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Mapping, Optional, Tuple

#: Bucket for time no ``repro`` package can be charged with.
OTHER = "other"

#: ``pstats`` function key: (filename, line, name).
Func = Tuple[str, int, str]

_MARKER = os.sep + "repro" + os.sep


def layer_of(filename: str) -> Optional[str]:
    """Package under ``repro/`` that owns ``filename``; None if external.

    Modules directly under ``repro/`` (``params.py``, ``__main__.py``)
    belong to no layer and report :data:`OTHER`.
    """
    idx = filename.rfind(_MARKER)
    if idx < 0:
        return None
    rest = filename[idx + len(_MARKER):]
    head, sep, _tail = rest.partition(os.sep)
    return head if sep else OTHER


def rollup(
    stats: Mapping[Func, tuple],
    owner: Callable[[str], Optional[str]] = layer_of,
) -> Dict[str, float]:
    """Self seconds per layer from a ``pstats.Stats(...).stats`` table.

    ``stats`` maps ``func -> (cc, nc, tottime, cumtime, callers)`` with
    ``callers`` mapping ``caller -> (cc, nc, tottime, cumtime)`` — the
    share of ``func``'s time spent under that caller.  ``owner`` maps a
    filename to its layer, or None for code that is charged upward.
    """
    # Fraction of an external function's time owed by each layer,
    # resolved through its callers (recursively while the caller is
    # external too).  ``None`` marks a function being resolved: a cycle
    # among external functions charges the cyclic part to OTHER.
    resolved: Dict[Func, Optional[Dict[str, float]]] = {}

    def shares(func: Func) -> Dict[str, float]:
        layer = owner(func[0])
        if layer is not None:
            return {layer: 1.0}
        known = resolved.get(func, False)
        if known is None:
            return {OTHER: 1.0}
        if known is not False:
            return known
        resolved[func] = None
        callers = stats[func][4] if func in stats else {}
        weights = {c: row[2] for c, row in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            # No timed caller edge: fall back to call counts.
            weights = {c: float(row[1]) for c, row in callers.items()}
            total = sum(weights.values())
        out: Dict[str, float] = {}
        if total <= 0.0:
            out[OTHER] = 1.0
        else:
            for caller, weight in weights.items():
                if weight <= 0.0:
                    continue
                for layer, frac in shares(caller).items():
                    out[layer] = out.get(layer, 0.0) + frac * weight / total
        resolved[func] = out
        return out

    buckets: Dict[str, float] = {}
    for func, row in stats.items():
        tottime = row[2]
        if tottime == 0.0:
            continue
        for layer, frac in shares(func).items():
            buckets[layer] = buckets.get(layer, 0.0) + tottime * frac
    return buckets
