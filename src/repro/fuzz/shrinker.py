"""Shrink a divergent program to a minimal reproducer.

Classic greedy ddmin over the op list, then per-op simplification.  The
predicate is "does :func:`~repro.fuzz.runner.check_program` still
fail?" — any failure counts, not the *same* failure, because a shrunk
program that trips a different determinism bug is still worth keeping.

Everything here is deterministic: chunk order, halving schedule and the
simplification passes depend only on the input program, so the same
divergence always shrinks to the same reproducer (corpus entries are
stable across machines, like the grammar itself).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .grammar import ProgramSpec

#: Cheap replacements tried on individual op fields once the op list is
#: minimal.  Shorter data keeps corpus entries readable.
_SIMPLE_DATA = "a"


def _default_predicate(spec: ProgramSpec) -> bool:
    from .runner import check_program
    return not check_program(spec).ok


def shrink(spec: ProgramSpec,
           still_fails: Callable[[ProgramSpec], bool] = None,
           max_checks: int = 200) -> ProgramSpec:
    """Return the smallest spec (ops-wise) that still fails.

    *still_fails* defaults to re-running the full matrix check; tests
    inject cheaper predicates.  At most *max_checks* predicate calls are
    spent — shrinking is best-effort, never endless.
    """
    if still_fails is None:
        still_fails = _default_predicate
    budget = [max_checks]

    def check(candidate: ProgramSpec) -> bool:
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        return still_fails(candidate)

    current = spec
    current = _ddmin_ops(current, check)
    current = _simplify_ops(current, check)
    # Op removal may unlock further removal after simplification.
    current = _ddmin_ops(current, check)
    return current


def _ddmin_ops(spec: ProgramSpec, check) -> ProgramSpec:
    """Remove chunks of ops, halving the chunk size until 1."""
    ops = list(spec.ops)
    chunk = max(1, len(ops) // 2)
    while chunk >= 1:
        i = 0
        while i < len(ops) and len(ops) > 1:
            candidate = ops[:i] + ops[i + chunk:]
            if candidate and check(spec.with_ops(candidate)):
                ops = candidate  # keep the removal; retry same index
            else:
                i += chunk
        if chunk == 1:
            break
        chunk //= 2
    return spec.with_ops(ops)


def _simplify_ops(spec: ProgramSpec, check) -> ProgramSpec:
    """Per-op simplification: shrink payloads, thin out thread and
    child bodies."""
    ops = [dict(op) for op in spec.ops]
    for i in range(len(ops)):
        # Iterate to a fixpoint per op: accepting one simplification
        # (e.g. dropping a thread body) can expose another (thinning the
        # remaining body).
        progress = True
        while progress:
            progress = False
            for candidate_op in _simpler_versions(ops[i]):
                trial = ops[:i] + [candidate_op] + ops[i + 1:]
                if check(spec.with_ops(trial)):
                    ops[i] = candidate_op
                    progress = True
                    break
    return spec.with_ops(ops)


def _simpler_versions(op: Dict) -> List[Dict]:
    out: List[Dict] = []
    if "data" in op and op["data"] != _SIMPLE_DATA:
        simpler = dict(op)
        simpler["data"] = _SIMPLE_DATA
        out.append(simpler)
    if op.get("op") == "threads":
        bodies = op["bodies"]
        if len(bodies) > 1:
            out.append({"op": "threads", "bodies": bodies[:1]})
        for bi, body in enumerate(bodies):
            if len(body) > 1:
                trimmed = [list(b) if isinstance(b, list) else dict(b)
                           for b in bodies]
                trimmed[bi] = body[:1]
                out.append({"op": "threads", "bodies": trimmed})
    if op.get("op") == "spawnwait":
        if op["late"]:
            out.append(dict(op, late=False))
        if len(op["body"]) > 1:
            out.append(dict(op, body=op["body"][:1]))
    return out
