"""Correctness checks on a workload's outputs, run outside every timed region."""

from __future__ import annotations

import hashlib
import io
import random

from workloads import WORKLOADS, generate

SUPPORT_SAMPLE = 200


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_rows(path: str) -> list[tuple[tuple[int, ...], int, int]]:
    """Result-table rows as (itemset, count, err)."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            items, count, err = line.rstrip("\n").split("\t")
            rows.append((tuple(int(x) for x in items.split()), int(count), int(err)))
    return rows


def support_errors(transactions: list[list[int]], rows, seed: int) -> list[str]:
    """`count - err <= support <= count` for a seeded sample of result rows,
    with the support recomputed from the input transactions."""
    postings: dict[int, set[int]] = {}
    for tid, items in enumerate(transactions):
        for x in items:
            postings.setdefault(x, set()).add(tid)
    sample = random.Random(seed).sample(rows, min(SUPPORT_SAMPLE, len(rows)))
    errors = []
    for alpha, count, err in sample:
        support = len(set.intersection(*(postings.get(x, set()) for x in alpha)))
        if not count - err <= support <= count:
            errors.append(f"support of {alpha} is {support}, outside [{count - err}, {count}]")
    return errors


def replay_errors(name: str, out: dict, n: int) -> list[str]:
    """Invariants of one replay's summary: budget, guarantee flag, error bound."""
    spec = WORKLOADS[name]
    if "error" in out:
        return [out["error"].strip().splitlines()[-1]]
    errors = []
    if out["n"] != n or out["steps_done"] != n:
        errors.append(f"replayed {out['steps_done']} of {n} transactions")
    if out["table_len"] > spec["k"]:
        errors.append(f"table holds {out['table_len']} entries, budget {spec['k']}")
    weak = out["delta"] > spec["sigma"] * out["n"]
    if out["weak"] != weak:
        errors.append(f"weak_guarantee {out['weak']} but delta > sigma*n is {weak}")
    if out["weak"]:
        errors.append(f"weak guarantee at sigma {spec['sigma']} (delta {out['delta']})")
    if name == "dense" and out["delta"] > spec["epsilon"] * out["n"]:
        errors.append(f"delta {out['delta']} exceeds epsilon*n with a budget that never binds")
    return errors


def backend_errors(parasol, name: str, seed: int) -> list[str]:
    """Replay the workload's mining configuration at reduced size on both
    backends; delta and the table size must agree after every transaction,
    and the final tables must be byte-identical.

    The mined table is compared rather than the compressed result: the
    compression is a function of that table, and two-step compression needs
    the tree.
    """
    spec = WORKLOADS[name]
    transactions = generate(name, seed, spec["reduced"])
    states = [
        parasol.StreamState(k=spec["k"], epsilon=spec["epsilon"], backend=backend)
        for backend in ("flat", "wtree")
    ]
    for i, items in enumerate(transactions, start=1):
        t = parasol.Transaction(tuple(items), i)
        for state in states:
            parasol.process_transaction(state, t)
        flat, tree = states
        if (flat.delta, len(flat.table)) != (tree.delta, len(tree.table)):
            return [f"flat and wtree diverge at transaction {i} of reduced {name}"]
    tables = []
    for state in states:
        buf = io.StringIO()
        parasol.write_result(state.snapshot(), buf)
        tables.append(buf.getvalue())
    if tables[0] != tables[1]:
        return [f"flat and wtree tables differ after reduced {name}"]
    return []
