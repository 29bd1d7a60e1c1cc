"""Both stores against a miner written from the rules alone.

`helpers.ReferenceMiner` shares no code with `table.py` or `wtree.py`:
no record class, no key rule, no heap and no tree, and its update does
not assume the superset invariant the stores rest on. Agreement after
every step, in snapshot order and in delta, pins what the stores share
and so could get wrong together: the tie order in `Record.rank`, the
loop in `Store.delete_minima` and the update rule, the new transaction
itemset's (delta_prev + 1, delta_prev) seed included.
"""

from parasol import StreamState, process_transaction

from helpers import GRID, random_streams, reference_replay

STREAMS = 250  # about 2 s


def test_both_stores_match_the_reference_stepwise():
    for sid, stream in random_streams(STREAMS, base_seed=70_000, max_n=20):
        for k, eps in GRID:
            for backend in ("flat", "wtree"):
                state = StreamState(k=k, epsilon=eps, backend=backend)
                for t, (delta, snap) in zip(stream, reference_replay(stream, k, eps)):
                    process_transaction(state, t)
                    assert state.delta == delta, (sid, k, eps, backend, t.timestamp)
                    assert state.snapshot() == snap, (sid, k, eps, backend, t.timestamp)

