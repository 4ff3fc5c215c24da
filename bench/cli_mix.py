"""cli-mix: every query is a fresh ``python -m incalg.cli`` process.

This is what a command-line user pays: interpreter start, import, and the
hypothesis decision on every classify / equivalent / verify call.  Fresh
processes also keep an in-process memo from faking a gain across queries.
"""

import ast
import json
import os
import random
import subprocess
import sys

import shared

NAME = "cli-mix"
IN_PROCESS = False
# Four rounds: at least 100 queries, so that ten latency samples lie beyond
# the 90th percentile.
ROUNDS = 4
SMOKE_POSETS = {"chain4", "diamond", "crown", "crown3"}

# Hypothesis verdicts and exit codes recorded at the seed commit; they hold
# over F3, F5 and Q for every poset of the ladder.
HYPOTHESES = {
    "chain4": (True, True, 0), "chain6": (True, True, 0),
    "chain8": (True, True, 0), "diamond": (True, True, 0),
    "wide-diamond": (True, True, 0), "B3": (True, True, 0),
    "crown": (False, False, 3), "crown3": (False, False, 3),
}


def _hyp(poset, field, as_json=False):
    return {"cmd": "hypotheses", "poset": poset, "field": field,
            "json": as_json}


def _cls(poset, field, lam, general=False, as_json=False):
    return {"cmd": "classify", "poset": poset, "field": field, "lam": lam,
            "general": general, "json": as_json}


def _eq(poset, field, lam, general=False):
    return {"cmd": "equivalent", "poset": poset, "field": field, "lam": lam,
            "general": general}


def _info(poset, as_json=False):
    return {"cmd": "poset-info", "poset": poset, "json": as_json}


def _verify(poset, field):
    return {"cmd": "verify", "poset": poset, "field": field}


def cycle(c):
    """One round of the mix; one chain8 query per round, rotating kind."""
    chain8 = [_hyp("chain8", "F5"), _cls("chain8", "F3", "rev"),
              _eq("chain8", "F5", "rev")][c % 3]
    queries = [
        _hyp("chain4", "F3"), _hyp("chain6", "F5"), _hyp("diamond", "Q", True),
        _hyp("wide-diamond", "F3"), _hyp("crown", "F5", True),
        _hyp("crown3", "Q"), _hyp("B3", "F3"),
        _cls("chain4", "Q", "rev"), _cls("chain6", "F3", "rev", as_json=True),
        _cls("diamond", "F5", "flip", general=True), _cls("diamond", "Q", "flip"),
        _cls("wide-diamond", "F3", "flip", general=True, as_json=True),
        _cls("wide-diamond", "F5", "swap"),
        _cls("B3", "F5", "compl", as_json=True), _cls("crown", "F3", "cross"),
        _eq("chain4", "F5", "rev"), _eq("chain6", "F3", "rev"),
        _eq("diamond", "F3", "flip"),
        _eq("wide-diamond", "F5", "flip", general=True),
        _eq("B3", "F3", "compl"),
        _info("B3", True), _info("crown3"), _info("wide-diamond"),
        _verify("chain4", "F5"), _verify("diamond", "F3"), _verify("crown", "F5"),
        chain8,
    ]
    for k, q in enumerate(queries):
        if q["cmd"] == "equivalent":
            q["positive"] = (c + k) % 2 == 0
    return queries


# -- input generation (runs in the generator child) ---------------------------


def generate(seed, smoke):
    """The shuffled query list; every ``equivalent`` query gets two files
    holding random conjugates of theory representatives, of one class
    (positive) or of two (negative)."""
    rng = random.Random(f"{NAME}:{seed}")
    queries = []
    for c in range(1 if smoke else ROUNDS):
        queries += [q for q in cycle(c)
                    if not smoke or q["poset"] in SMOKE_POSETS]
    rng.shuffle(queries)
    files = {}
    reps_cache, counts = {}, {}
    for n, q in enumerate(queries):
        if q["cmd"] != "equivalent":
            continue
        key = (q["poset"], q["field"], q["lam"])
        mapping = shared.lambda_map(q["poset"], q["lam"])
        if key not in reps_cache:
            ring = shared.DRing(q["poset"], q["field"])
            reps_cache[key] = (ring, shared.theory_reps(ring, mapping, q["field"]))
        ring, reps = reps_cache[key]
        # The classes of a pair are chosen by rotation, not drawn: what the
        # pair is changes a query's cost, and every seed must give the same
        # mix of pairs (negative ones alternate between a sign and a chi
        # difference), so that the seed moves only units, files and order.
        slot = key + (q["general"], q["positive"])
        count = counts[slot] = counts.get(slot, -1) + 1
        i = count % len(reps)
        if q["positive"]:
            j = i
        else:
            elements, covers = shared.LADDER[q["poset"]]
            leq = shared.order_relation(elements, covers)
            others = [j for j in range(len(reps)) if j != i and not (
                q["general"] and shared.same_general_class(
                    elements, leq, mapping, reps[i][1], reps[j][1]))]
            same_sign = [j for j in others if reps[j][1]["k"] == reps[i][1]["k"]]
            pool = (same_sign if count % 2 and same_sign else
                    [j for j in others if j not in same_sign])
            j = pool[count // 2 % len(pool)]
        pair = []
        for side, idx in (("a", i), ("b", j)):
            theta, desc = reps[idx]
            theta = shared.conjugate(ring, theta, mapping, desc["k"],
                                     ring.random_unit(rng))
            name = f"inv{n}{side}.json"
            files[name] = shared.involution_json(ring, theta, mapping, desc["k"])
            pair.append(name)
        q["files"] = pair
        ki, kj = reps[i][1]["k"], reps[j][1]["k"]
        q["expect"] = {"equivalent": q["positive"],
                       "distinguisher": None if q["positive"]
                       else ("sign" if ki != kj else "chi")}
    posets = sorted({q["poset"] for q in queries})
    return {"queries": queries, "files": files,
            "posets": {p: shared.poset_json(p) for p in posets}}


# -- the session ---------------------------------------------------------------


def _inline_lambda(mapping):
    return ",".join(f"{x}:{y}" for x, y in mapping.items())


def _argv(q, poset_file, files):
    cmd = q["cmd"]
    argv = [cmd, "--poset", poset_file]
    if cmd != "poset-info":
        argv += ["--field", q["field"]]
    if cmd == "classify":
        argv += ["--lambda", _inline_lambda(shared.lambda_map(q["poset"], q["lam"]))]
    if cmd == "equivalent":
        argv += [files[q["files"][0]], files[q["files"][1]]]
    if q.get("general"):
        argv.append("--general")
    if q.get("json"):
        argv.append("--json")
    return argv


def load(inputs, workdir, traced):
    os.makedirs(workdir)
    poset_files, files = {}, {}
    for name, obj in inputs["posets"].items():
        poset_files[name] = os.path.join(workdir, f"{name}.json")
        with open(poset_files[name], "w") as fh:
            json.dump(obj, fh)
    for name, obj in inputs["files"].items():
        files[name] = os.path.join(workdir, name)
        with open(files[name], "w") as fh:
            json.dump(obj, fh)
    commands, traces = [], []
    for n, q in enumerate(inputs["queries"]):
        argv = _argv(q, poset_files[q["poset"]], files)
        if traced:
            traces.append(os.path.join(workdir, f"trace{n}.json"))
            commands.append([sys.executable,
                             os.path.join(shared.BENCH_DIR, "cli_child.py"),
                             traces[-1]] + argv)
        else:
            commands.append([sys.executable, "-m", "incalg.cli"] + argv)
    return {"queries": inputs["queries"], "files": inputs["files"],
            "commands": commands, "traces": traces, "env": shared.child_env(),
            "rings": {}}


def query(state, n):
    return subprocess.run(state["commands"][n], env=state["env"],
                          capture_output=True, text=True,
                          timeout=shared.CHILD_TIMEOUT_S)


def collect_trace(state):
    import tracer
    states = []
    for path in state["traces"]:
        with open(path) as fh:
            states.append(json.load(fh))
    return tracer.merge(states)


# -- checks (outside the timed region) ------------------------------------------


def _key_values(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _parse_payload(q, stdout):
    if q.get("json"):
        return json.loads(stdout)
    raw = _key_values(stdout)
    out = {}
    for key, value in raw.items():
        if value in ("True", "False"):
            out[key] = value == "True"
        elif value.startswith("{"):
            out[key] = ast.literal_eval(value)
        else:
            out[key] = value
    return out


def check_hypotheses(q, proc):
    mult, der, code = HYPOTHESES[q["poset"]]
    if proc.returncode != code:
        return f"exit {proc.returncode}, want {code}"
    payload = _parse_payload(q, proc.stdout)
    if payload.get("mult_subset_inn") != mult or payload.get("der_equals_ider") != der:
        return f"verdicts {payload}"
    elements, covers = shared.LADDER[q["poset"]]
    leq = shared.order_relation(elements, covers)
    p = shared.field_modulus(q["field"])
    witnesses = 0
    if "non_inner_cocycle" in payload:
        witnesses += 1
        if not shared.is_non_inner_mult_cocycle(
                elements, leq, payload["non_inner_cocycle"], p):
            return "printed multiplicative cocycle is not a counterexample"
    if "non_inner_additive_cocycle" in payload:
        witnesses += 1
        if not shared.is_non_inner_add_cocycle(
                elements, leq, payload["non_inner_additive_cocycle"], p):
            return "printed additive cocycle is not a counterexample"
    if (not mult or not der) and not witnesses:
        return "hypothesis failure without a counterexample"
    return None


def check_classify(q, proc):
    if not HYPOTHESES[q["poset"]][0]:
        if proc.returncode != 3 or "hypothesis failure" not in proc.stderr:
            return f"exit {proc.returncode}, want a hypothesis failure"
        return None
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    elements, covers = shared.LADDER[q["poset"]]
    leq = shared.order_relation(elements, covers)
    mapping = shared.lambda_map(q["poset"], q["lam"])
    if q["general"]:
        want = shared.general_class_count(elements, leq, mapping, q["field"])
    else:
        want = shared.inner_class_count(
            len(shared.fixed_points(elements, mapping)), q["field"])
    payload = _parse_payload(q, proc.stdout)
    got = payload.get("count")
    if want is None:
        if str(got) != "infinite" or "family" not in payload:
            return f"count {got}, want the infinite family"
        return None
    if str(got) != str(want):
        return f"count {got}, want {want}"
    if q.get("json") and len(payload["representatives"]) != want:
        return "representative list disagrees with the count"
    return None


def _witness_holds(state, q, witness):
    """psi o s1 = s2' o psi for psi the conjugation by the witness unit,
    where s2' is s2 itself (inner) or s2 moved by the witness relabelling
    alpha (general), in the benchmark's own arithmetic."""
    key = (q["poset"], q["field"])
    if key not in state["rings"]:
        state["rings"][key] = shared.DRing(*key)
    ring = state["rings"][key]
    s1, s2 = (ring.involution(ring.from_json(obj["theta"]), obj["lambda"],
                              obj["k"])
              for obj in (state["files"][name] for name in q["files"]))
    target = s2
    if witness["kind"] == "general":
        alpha = witness["alpha"]
        back = {y: x for x, y in alpha.items()}

        def target(d):
            return ring.relabel(s2(ring.relabel(d, back)), alpha)
    elif q["general"]:
        return False
    return ring.intertwines(ring.from_json(witness["conjugator"]), s1, target)


def check_equivalent(q, proc, state):
    expect = q["expect"]
    want_code = 0 if expect["equivalent"] else 1
    if proc.returncode != want_code:
        return f"exit {proc.returncode}, want {want_code}: {proc.stderr[-300:]}"
    verdict = json.loads(proc.stdout)
    if verdict["equivalent"] != expect["equivalent"]:
        return f"verdict {verdict['equivalent']}"
    if not expect["equivalent"]:
        if verdict["distinguisher"] != expect["distinguisher"]:
            return f"distinguisher {verdict['distinguisher']}"
        return None
    if not _witness_holds(state, q, verdict["witness"]):
        return "witness does not intertwine the pair"
    return None


def check_poset_info(q, proc):
    if proc.returncode != 0:
        return f"exit {proc.returncode}"
    elements, covers = shared.LADDER[q["poset"]]
    leq = shared.order_relation(elements, covers)
    want = (len(shared.order_maps(elements, leq, anti=False)),
            len(shared.order_maps(elements, leq, anti=True)),
            len(shared.involution_maps(elements, leq)))
    if q.get("json"):
        payload = json.loads(proc.stdout)
        ninv = len(payload["involution_maps"])
    else:
        payload = _key_values(proc.stdout)
        inv = payload["involutions"]
        ninv = 0 if inv == "none" else len(inv.split("; "))
    got = (int(payload["automorphisms"]), int(payload["anti-automorphisms"]),
           ninv)
    if payload["connected"] != "yes" or got != want:
        return f"symmetry counts {got}, want {want}"
    return None


def check_verify(q, proc):
    lines = proc.stdout.splitlines()
    fails = [line for line in lines if line.startswith("FAIL")]
    oks = [line for line in lines if line.startswith("ok")]
    if proc.returncode != 0 or fails or len(oks) < 4:
        return f"exit {proc.returncode}, failures {fails}"
    if HYPOTHESES[q["poset"]][0]:
        elements, covers = shared.LADDER[q["poset"]]
        ninv = len(shared.involution_maps(
            elements, shared.order_relation(elements, covers)))
        if sum(line.startswith("ok   classification") for line in oks) != ninv:
            return "classification checks missing"
    return None


def check(state, n, proc):
    """None when the answer is right, else what is wrong with it."""
    q = state["queries"][n]
    cmd = q["cmd"]
    if cmd == "hypotheses":
        return check_hypotheses(q, proc)
    if cmd == "classify":
        return check_classify(q, proc)
    if cmd == "equivalent":
        return check_equivalent(q, proc, state)
    if cmd == "poset-info":
        return check_poset_info(q, proc)
    return check_verify(q, proc)
