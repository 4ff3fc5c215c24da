"""recognize-raw: an in-process library session that factors raw matrix
involutions and checks each against its class representative.

The matrix path does the work: O(N^2) D-products in validation,
``decompose``, ``leibniz_check``, the derivation solve and the intertwiner
compose.  The posets have cheap hypothesis checks, and queries repeat
(poset, field) contexts the way a real session does.
"""

import random

import shared

NAME = "recognize-raw"
IN_PROCESS = True
# (poset, field, involutions, queries).  Query cost differs by up to 1.7x
# between representatives of one context, so every representative of a
# context gets the same number of queries; the seed decides the order and
# the conjugating units.  The median query falls in the middle of the
# wide-diamond group rather than at the edge between two groups.
BLOCK = [
    ("diamond", "F5", ("flip", "swap"), 16),
    ("chain4", "F5", ("rev",), 20),
    ("wide-diamond", "F5", ("flip",), 40),
    ("chain6", "F5", ("rev",), 4),
    ("B3", "F5", ("compl",), 8),
    ("diamond", "Q", ("swap",), 4),
    ("wide-diamond", "Q", ("swap",), 4),
    ("chain4", "Q", ("rev",), 4),
]
SMOKE_BLOCK = [("diamond", "F5", ("flip", "swap"), 8)]


def generate(seed, smoke):
    """Class representatives from the theory, and for each query a random
    inner conjugate of one of them as a raw matrix over the benchmark's own
    pair basis."""
    rng = random.Random(f"{NAME}:{seed}")
    contexts, plan = [], []
    for poset_name, field_name, lams, count in (SMOKE_BLOCK if smoke else BLOCK):
        ring = shared.DRing(poset_name, field_name)
        reps = []
        for lam_name in lams:
            mapping = shared.lambda_map(poset_name, lam_name)
            reps += [(theta, mapping, desc["k"]) for theta, desc
                     in shared.theory_reps(ring, mapping, field_name)]
        if count % len(reps):
            raise shared.BenchError(f"{poset_name} over {field_name}: "
                                    f"{count} queries for {len(reps)} classes")
        plan += [(len(contexts), j % len(reps)) for j in range(count)]
        contexts.append((poset_name, field_name, ring, reps))
    rng.shuffle(plan)
    queries = []
    for ctx_index, j in plan:
        _, _, ring, reps = contexts[ctx_index]
        theta, mapping, k = reps[j]
        theta = shared.conjugate(ring, theta, mapping, k, ring.random_unit(rng))
        raw = ring.matrix(ring.involution(theta, mapping, k))
        queries.append({"ctx": ctx_index, "rep": j,
                        "raw": [[ring.format(v) for v in col] for col in raw]})
    return {"contexts": [{"poset": poset_name, "field": field_name,
                          "pairs": [list(xy) for xy in ring.pairs],
                          "reps": [shared.involution_json(ring, *rep)
                                   for rep in reps]}
                         for poset_name, field_name, ring, reps in contexts],
            "queries": queries}


def load(inputs, workdir, traced):
    """Library objects for each query; the raw matrices are reordered from
    the generator's pair basis to the library's."""
    from incalg.idealization import DLinearMap
    from incalg.involutions import involution_from_json
    contexts = []
    for c in inputs["contexts"]:
        alg = shared.algebra(c["poset"], c["field"])
        ours = {tuple(xy): k for k, xy in enumerate(c["pairs"])}
        n = len(ours)
        order = ([ours[xy] for xy in alg.pairs]
                 + [n + ours[xy] for xy in alg.pairs])
        contexts.append((alg, order,
                         [involution_from_json(alg, r) for r in c["reps"]]))
    queries = []
    for q in inputs["queries"]:
        alg, order, reps = contexts[q["ctx"]]
        cols = [[q["raw"][c][r] for r in order] for c in order]
        queries.append((DLinearMap.from_json(alg, {"blocks": cols}),
                        reps[q["rep"]]))
    return {"queries": queries, "inputs": inputs, "rings": {}}


def query(state, n):
    import incalg.involutions as inv
    raw, rep = state["queries"][n]
    spec = inv.recognize(raw)
    return spec, inv.equivalent_inner(spec, rep)


def check(state, n, result):
    """None when the answer is right, else what is wrong with it.  The
    answer is read through the library's JSON output and checked in the
    benchmark's own arithmetic."""
    q = state["inputs"]["queries"][n]
    ctx = state["inputs"]["contexts"][q["ctx"]]
    if q["ctx"] not in state["rings"]:
        state["rings"][q["ctx"]] = shared.DRing(ctx["poset"], ctx["field"])
    ring = state["rings"][q["ctx"]]
    rep = ctx["reps"][q["rep"]]
    spec, verdict = (obj.to_json() for obj in result)
    if spec["lambda"] != rep["lambda"] or spec["k"] != rep["k"]:
        return "recognized lambda or sign differs from the generator's"
    s_spec = ring.involution(ring.from_json(spec["theta"]), rep["lambda"],
                             rep["k"])
    raw = [tuple(ring.parse(v) for v in col) for col in q["raw"]]
    if ring.matrix(s_spec) != raw:
        return "normal form does not reproduce the raw matrix"
    if not verdict["equivalent"]:
        return ("not inner-equivalent to its representative "
                f"({verdict['distinguisher']})")
    s_rep = ring.involution(ring.from_json(rep["theta"]), rep["lambda"],
                            rep["k"])
    if not ring.intertwines(ring.from_json(verdict["witness"]["conjugator"]),
                            s_spec, s_rep):
        return "witness does not intertwine"
    return None
