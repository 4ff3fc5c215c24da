"""oracle-enum: in-process brute force on tiny posets.

``enumerate_involutions_D`` and ``orbit_partition`` run hundreds of
thousands of products on algebras of 3 to 6 comparable pairs, so per-call
overhead dominates rather than convolution length.  Every query relabels
its poset from the seed, so no two queries share a (poset, field) key.

The element order changes the oracle's cost (its early exits follow the
basis order): by about 20% on chain2 and up to 40% on chain3.  So each
chain2 group uses both orders equally often, the seed choosing which query
gets which, and the single chain3 query lists its elements bottom-up.
"""

import random

import shared

NAME = "oracle-enum"
IN_PROCESS = True
SMOKE_CONTEXTS = {("chain2", "F3")}
SMOKE_QUERIES = 8


# Short chain2 products must outnumber the chain3 ones at least two to one,
# so that the mean stays at or below 6 terms per product.
ROUND = ([("chain3", "F3")] + [("chain2", "F7")] * 24
         + [("chain2", "F5")] * 10 + [("chain2", "F3")] * 66)


def generate(seed, smoke):
    rng = random.Random(f"{NAME}:{seed}")
    plan = [ctx for ctx in ROUND if not smoke or ctx in SMOKE_CONTEXTS]
    if smoke:
        plan = plan[:SMOKE_QUERIES]
    reversed_order = set()
    for ctx in sorted(set(plan)):
        if ctx[0] == "chain2":
            group = [n for n, key in enumerate(plan) if key == ctx]
            rng.shuffle(group)
            reversed_order.update(group[len(group) // 2:])
    used = set()
    queries = []
    for n, (poset_name, field_name) in enumerate(plan):
        elements, covers = shared.LADDER[poset_name]
        while True:
            labels = [f"v{rng.randrange(10 ** 6)}" for _ in elements]
            if len(set(labels)) == len(labels) and tuple(labels) not in used:
                break
        used.add(tuple(labels))
        rename = dict(zip(elements, labels))
        order = labels[::-1] if n in reversed_order else labels
        queries.append({"poset": poset_name, "field": field_name,
                        "elements": order,
                        "covers": [[rename[x], rename[y]] for x, y in covers]})
    rng.shuffle(queries)
    return {"queries": queries}


def load(inputs, workdir, traced):
    from incalg.fields import parse_field
    from incalg.posets import Poset
    return {"queries": [(Poset.from_covers(q["elements"],
                                           [tuple(c) for c in q["covers"]]),
                         parse_field(q["field"]), q)
                        for q in inputs["queries"]]}


def query(state, n):
    import incalg.fia as fia
    import incalg.oracle as oracle
    poset, field, _ = state["queries"][n]
    alg = fia.IncidenceAlgebra(poset, field)
    invs = oracle.enumerate_involutions_D(alg)
    partition = oracle.orbit_partition(invs, oracle.unit_group_generators(alg))
    return len(invs), len(partition)


def check(state, n, result):
    """None when the answer is right, else what is wrong with it: the orbit
    count must equal the summed class counts of the poset's involutions."""
    _, _, q = state["queries"][n]
    leq = shared.order_relation(q["elements"], q["covers"])
    want = sum(shared.inner_class_count(
        len(shared.fixed_points(q["elements"], m)), q["field"])
        for m in shared.involution_maps(q["elements"], leq))
    if result[1] != want:
        return f"{result[1]} orbits, want {want}"
    return None
