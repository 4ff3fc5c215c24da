"""Paths, the poset ladder, statistics and independent ground truth.

Everything under "ground truth" works on plain label lists, relation sets
and tuples of ints mod p or Fractions with its own arithmetic, so neither
the generated inputs nor the answers the benchmark checks against come
from the library that is being measured.
"""

import importlib
import itertools
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

CHILD_TIMEOUT_S = 170


WORKLOADS = {"cli-mix": "cli_mix", "recognize-raw": "recognize_raw",
             "oracle-enum": "oracle_enum"}
# Claims are checked again on this seed, which no change was tuned on.
SECOND_SEED = 20261017


def workload_module(name):
    return importlib.import_module(WORKLOADS[name])


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, a failed child)."""


def use_source_tree():
    """Import incalg from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "incalg", "__init__.py")):
        raise BenchError(f"no incalg sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import incalg
    here = os.path.dirname(os.path.abspath(incalg.__file__))
    if here != os.path.join(SRC, "incalg"):
        raise BenchError(f"incalg imported from {here}, not from {SRC}")


def child_env():
    """Environment for child interpreters: this checkout's src/ first."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def run_child(args):
    """Run a child interpreter to completion; raise BenchError on failure."""
    proc = subprocess.run([sys.executable] + list(args), env=child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc


# -- the poset ladder ---------------------------------------------------------


def _chain(n):
    labels = [f"c{i}" for i in range(n)]
    return labels, list(zip(labels, labels[1:]))


def _boolean3():
    subsets = ["".join(s) or "e" for r in range(4)
               for s in itertools.combinations("123", r)]
    covers = []
    for s in subsets:
        have = "" if s == "e" else s
        for x in "123":
            if x not in have:
                covers.append((s, "".join(sorted(have + x))))
    return subsets, covers


LADDER = {
    "chain2": _chain(2),
    "chain3": _chain(3),
    "chain4": _chain(4),
    "chain6": _chain(6),
    "chain8": _chain(8),
    "diamond": (["0", "a", "b", "1"],
                [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]),
    "wide-diamond": (["0", "a", "b", "c", "1"],
                     [("0", x) for x in "abc"] + [(x, "1") for x in "abc"]),
    "crown": (["a", "b", "c", "d"],
              [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]),
    # the 6-cycle crown: a_i below b_i and b_(i+1)
    "crown3": (["a0", "a1", "a2", "b0", "b1", "b2"],
               [(f"a{i}", f"b{i}") for i in range(3)]
               + [(f"a{i}", f"b{(i + 1) % 3}") for i in range(3)]),
    "B3": _boolean3(),
}


def _reverse_chain(labels):
    return dict(zip(labels, reversed(labels)))


# Named order-reversing involutions used by the workloads.
LAMBDAS = {
    "rev": _reverse_chain,
    "flip": lambda labels: {x: ({"0": "1", "1": "0"}.get(x, x)) for x in labels},
    "swap": lambda labels: {x: {"0": "1", "1": "0", "a": "b", "b": "a"}.get(x, x)
                            for x in labels},
    "cross": lambda labels: {"a": "c", "c": "a", "b": "d", "d": "b"},
    "compl": lambda labels: {s: ("".join(x for x in "123" if x not in s) or "e")
                             if s != "e" else "123" for s in labels},
}


def poset_json(name):
    elements, covers = LADDER[name]
    return {"elements": list(elements), "covers": [list(c) for c in covers]}


def algebra(poset_name, field_name):
    """The incidence algebra of a ladder poset over F<p> or Q."""
    from incalg.fia import IncidenceAlgebra
    from incalg.fields import parse_field
    from incalg.posets import Poset
    poset = Poset.from_json(poset_json(poset_name))
    return IncidenceAlgebra(poset, parse_field(field_name))


def lambda_map(poset_name, lam_name):
    elements = LADDER[poset_name][0]
    mapping = LAMBDAS[lam_name](elements)
    if not is_order_involution(elements, order_relation(*LADDER[poset_name]),
                               mapping):
        raise BenchError(f"{lam_name} is not an involution of {poset_name}")
    return mapping


# -- statistics and machine facts ---------------------------------------------


def percentiles_ms(latencies_s):
    """(p50, p90) in milliseconds of a latency list in seconds."""
    ms = [1000.0 * t for t in latencies_s]
    if len(ms) < 2:
        return ms[0], ms[0]
    return statistics.median(ms), statistics.quantiles(ms, n=10)[-1]


def peak_rss_mb(include_children):
    """Peak resident set of this process, or of it and its largest child."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# The reference loop's time, without and with fractions, on the machine the
# benchmark was written on when it ran at full speed; reported times are
# scaled to it.
REF_NOMINAL_S = {False: 0.0010, True: 0.0020}


def reference_s(fractions):
    """Fastest of three runs of a fixed pure-Python loop: how fast this
    process runs Python right now.  The loop does integer steps and dict
    stores and, with ``fractions``, Fraction arithmetic.  On a busy machine
    in-process library queries slowed as the loop with fractions did, and
    fresh CLI processes as the loop without; the other loop was off by 7%
    to 10% between slow and fast phases."""
    best = None
    for _ in range(3):
        t0 = perf_counter()
        acc, table = 0, {}
        for k in range(10_000):
            acc = (acc * 31 + k) % 1_000_003
            table[k & 63] = acc
        if fractions:
            x = Fraction(1, 3)
            for k in range(1, 200):
                x = (x * k + Fraction(1, k)) / (k + 1)
        dt = perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def pin_to_one_cpu():
    """Run this process and the children it starts on one CPU, so that the
    clock's reference readings time the CPU the work runs on, a CLI
    query's child process included.  (Unpinned, the same CLI query's scaled
    time ranged 22% across one run; pinned, 10-15%.)"""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Clock:
    """Times spans of work at a fixed reference speed.

    The machine the benchmark runs on is shared: the same Python loop runs
    up to twice as fast in one second as in the next, in phases that last
    from seconds to minutes, and process CPU time slows with it.  So the
    clock reads the reference loop before and after each span and, from a
    timer signal, every TICK_S inside it; each piece of the span between
    two readings is scaled by the loop's nominal time over their mean.
    The result is the time the span would take at the reference speed.
    The readings taken inside a span are not counted in its time."""

    TICK_S = 0.2

    def __init__(self, in_process):
        self.fractions = in_process
        self.nominal = REF_NOMINAL_S[in_process]
        self.ref = reference_s(self.fractions)
        self.refs = [self.ref]

    def time(self, fn):
        """(result or raised exception, raw seconds, scaled seconds)."""
        ticks = []

        def tick(signum, frame):
            t0 = perf_counter()
            ref = reference_s(self.fractions)
            ticks.append((t0, perf_counter(), ref))
        old = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        start = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # counted by the caller, not fatal
            result = exc
        end = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        ticks = [t for t in ticks if t[1] <= end]
        ref_end = reference_s(self.fractions)
        raw = scaled = 0.0
        left, left_ref = start, self.ref
        for t0, t1, ref in ticks + [(end, end, ref_end)]:
            raw += t0 - left
            scaled += (t0 - left) * 2 * self.nominal / (left_ref + ref)
            left, left_ref = t1, ref
        self.ref = ref_end
        self.refs += [t[2] for t in ticks] + [ref_end]
        return result, raw, scaled


def machine_facts():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu_model(), "platform": platform.platform()}


# -- ground truth -------------------------------------------------------------


def order_relation(elements, covers):
    """The set of pairs (x, y) with x <= y: reflexive-transitive closure."""
    leq = {(x, x) for x in elements} | {tuple(c) for c in covers}
    changed = True
    while changed:
        changed = False
        for (x, y) in list(leq):
            for (y2, z) in list(leq):
                if y == y2 and (x, z) not in leq:
                    leq.add((x, z))
                    changed = True
    return leq


def order_maps(elements, leq, anti):
    """All bijections preserving (anti=False) or reversing the order."""
    out = []

    def extend(assign, used):
        if len(assign) == len(elements):
            out.append(dict(assign))
            return
        x = elements[len(assign)]
        for y in elements:
            if y in used:
                continue
            ok = True
            for x0, y0 in assign.items():
                a, b = (x0, x) in leq, (x, x0) in leq
                if anti:
                    ok = a == ((y, y0) in leq) and b == ((y0, y) in leq)
                else:
                    ok = a == ((y0, y) in leq) and b == ((y, y0) in leq)
                if not ok:
                    break
            if ok:
                assign[x] = y
                used.add(y)
                extend(assign, used)
                del assign[x]
                used.discard(y)

    extend({}, set())
    return out


def is_order_involution(elements, leq, mapping):
    return (sorted(mapping) == sorted(elements)
            and all(mapping[mapping[x]] == x for x in elements)
            and all(((mapping[y], mapping[x]) in leq) == ((x, y) in leq)
                    for x in elements for y in elements))


def involution_maps(elements, leq):
    return [m for m in order_maps(elements, leq, anti=True)
            if all(m[m[x]] == x for x in elements)]


def fixed_points(elements, mapping):
    return [x for x in elements if mapping[x] == x]


def inner_class_count(nfixed, field_name):
    """Involution classes inducing one poset involution, up to inner
    equivalence: 4, 2, or 2 |S_K|^(f-1); None when S_K is infinite."""
    if nfixed == 0:
        return 4
    if nfixed == 1:
        return 2
    if field_name == "Q":
        return None
    return 2 * 2 ** (nfixed - 1)


def _chi_orbit_key(elements, leq, mapping, bits):
    """Canonical member of the orbit of a square-class bit tuple on the
    fixed points under the global shift and the automorphisms commuting
    with the involution."""
    fixed = fixed_points(elements, mapping)
    normalizer = [a for a in order_maps(elements, leq, anti=False)
                  if all(a[mapping[x]] == mapping[a[x]] for x in elements)]
    orbit = set()
    for a in normalizer:
        moved = {a[x]: b for x, b in zip(fixed, bits)}
        tup = tuple(moved[x] for x in fixed)
        orbit.add(tup)
        orbit.add(tuple(1 - b for b in tup))
    return min(orbit)


def general_class_count(elements, leq, mapping, field_name):
    """Class count up to general equivalence: the square-class tuples
    folded by the automorphisms commuting with the involution."""
    nfixed = len(fixed_points(elements, mapping))
    if nfixed <= 1 or field_name == "Q":
        return inner_class_count(nfixed, field_name)
    keys = {_chi_orbit_key(elements, leq, mapping, bits)
            for bits in itertools.product((0, 1), repeat=nfixed)}
    return 2 * len(keys)


def same_general_class(elements, leq, mapping, rep1, rep2):
    """Whether two representatives from ``theory_reps`` are
    equivalent under all ring automorphisms."""
    if rep1["k"] != rep2["k"]:
        return False
    if "kind" in rep1:
        return rep1["kind"] == rep2["kind"]
    if "bits" not in rep1:
        return True
    return (_chi_orbit_key(elements, leq, mapping, rep1["bits"])
            == _chi_orbit_key(elements, leq, mapping, rep2["bits"]))


def _scalar(text, p):
    v = Fraction(text)
    if p is None:
        return v
    return v.numerator * pow(v.denominator, -1, p) % p


def _spanning_values(elements, leq, start, step):
    """Propagate a potential from the first element along comparabilities;
    ``step(v_known, x_known, y_new)`` gives the new value."""
    pot = {elements[0]: start}
    frontier = [elements[0]]
    while frontier:
        v = frontier.pop()
        for w in elements:
            if w not in pot and ((v, w) in leq or (w, v) in leq):
                pot[w] = step(pot[v], v, w)
                frontier.append(w)
    return pot


def is_non_inner_mult_cocycle(elements, leq, entries, p):
    """A multiplicative cocycle (chain identity, nonzero) that is not
    eta(x)/eta(y) for any eta; entries are {"x,y": text}."""
    sigma = {}
    for key, text in entries.items():
        x, _, y = key.partition(",")
        sigma[(x, y)] = _scalar(text, p)
    strict = [(x, y) for (x, y) in leq if x != y]
    if set(sigma) != set(strict) or any(v == 0 for v in sigma.values()):
        return False

    def mul(a, b):
        return a * b % p if p else a * b

    def div(a, b):
        return a * pow(b, -1, p) % p if p else a / b

    for (x, z) in strict:
        for (z2, y) in strict:
            if z == z2 and mul(sigma[(x, z)], sigma[(z, y)]) != sigma[(x, y)]:
                return False
    one = 1 if p else Fraction(1)
    eta = _spanning_values(
        elements, leq, one,
        lambda ev, v, w: div(ev, sigma[(v, w)]) if (v, w) in leq
        else mul(sigma[(w, v)], ev))
    return any(div(eta[x], eta[y]) != v for (x, y), v in sigma.items())


def is_non_inner_add_cocycle(elements, leq, entries, p):
    """An additive cocycle that is not d(y) - d(x) for any diagonal d."""
    tau = {}
    for key, text in entries.items():
        x, _, y = key.partition(",")
        tau[(x, y)] = _scalar(text, p)
    strict = [(x, y) for (x, y) in leq if x != y]
    if set(tau) != set(strict):
        return False

    def norm(a):
        return a % p if p else a

    for (x, z) in strict:
        for (z2, y) in strict:
            if z == z2 and norm(tau[(x, z)] + tau[(z, y)]) != tau[(x, y)]:
                return False
    zero = 0 if p else Fraction(0)
    d = _spanning_values(
        elements, leq, zero,
        lambda dv, v, w: norm(dv + tau[(v, w)]) if (v, w) in leq
        else norm(dv - tau[(w, v)]))
    return any(norm(d[y] - d[x]) != v for (x, y), v in tau.items())


def field_modulus(field_name):
    return None if field_name == "Q" else int(field_name[1:])


class DRing:
    """The idealization D(X, K): pairs [f; i] of functions on the comparable
    pairs x <= y, multiplied as [f; i][g; j] = [fg; fj + ig].  An element
    is one tuple, the f values then the i values, in ``pairs`` order."""

    def __init__(self, poset_name, field_name):
        elements, covers = LADDER[poset_name]
        self.elements = list(elements)
        leq = order_relation(elements, covers)
        interval = {(x, y): [z for z in elements
                             if (x, z) in leq and (z, y) in leq]
                    for (x, y) in leq}
        # shorter intervals first, so an inverse can be filled in order
        self.pairs = sorted(leq, key=lambda xy: (len(interval[xy]),
                                                 elements.index(xy[0]),
                                                 elements.index(xy[1])))
        self.index = {xy: k for k, xy in enumerate(self.pairs)}
        self.n = len(self.pairs)
        self.p = field_modulus(field_name)
        self.terms = [[(self.index[(x, z)], self.index[(z, y)])
                       for z in interval[(x, y)]] for x, y in self.pairs]
        self.basis = [tuple(int(j == k) for j in range(2 * self.n))
                      for k in range(2 * self.n)]

    def norm(self, v):
        return v % self.p if self.p else v

    def div(self, a, b):
        return a * pow(b, -1, self.p) % self.p if self.p else Fraction(a) / b

    def _fmul(self, f, g):
        return tuple(self.norm(sum(f[a] * g[b] for a, b in ts))
                     for ts in self.terms)

    def _finv(self, f):
        g = [None] * self.n
        for t, (x, y) in enumerate(self.pairs):
            if x == y:
                g[t] = self.div(1, f[t])
            else:
                s = sum(g[a] * f[b] for a, b in self.terms[t] if a != t)
                g[t] = self.div(-s, f[self.index[(y, y)]])
        return tuple(g)

    def mul(self, a, b):
        n = self.n
        f, i, g, j = a[:n], a[n:], b[:n], b[n:]
        return self._fmul(f, g) + tuple(
            self.norm(u + v) for u, v in zip(self._fmul(f, j), self._fmul(i, g)))

    def inverse(self, a):
        fi = self._finv(a[:self.n])
        return fi + tuple(self.norm(-v)
                          for v in self._fmul(self._fmul(fi, a[self.n:]), fi))

    def base(self, d, lam, k):
        """Relabel both coordinates along the order-reversing ``lam`` and
        scale the bimodule one by the sign ``k``."""
        perm = [self.index[(lam[y], lam[x])] for x, y in self.pairs]
        return (tuple(d[s] for s in perm)
                + tuple(self.norm(k * d[self.n + s]) for s in perm))

    def relabel(self, d, alpha):
        """The automorphism induced by the order-preserving ``alpha``."""
        out = [None] * (2 * self.n)
        for (x, y), t in self.index.items():
            s = self.index[(alpha[x], alpha[y])]
            out[s], out[self.n + s] = d[t], d[self.n + t]
        return tuple(out)

    def involution(self, theta, lam, k):
        """d -> theta base(d) theta^-1."""
        theta_inv = self.inverse(theta)
        return lambda d: self.mul(self.mul(theta, self.base(d, lam, k)),
                                  theta_inv)

    def matrix(self, fn):
        """Columns of a linear map, one per basis element."""
        return [fn(b) for b in self.basis]

    def intertwines(self, c, s1, s2):
        """Whether conjugation by the unit c carries s1 to s2."""
        c_inv = self.inverse(c)

        def conj(d):
            return self.mul(self.mul(c, d), c_inv)
        return all(conj(s1(b)) == s2(conj(b)) for b in self.basis)

    def diagonal(self, values):
        f = [0] * self.n
        for x, v in values.items():
            f[self.index[(x, x)]] = self.norm(v)
        return tuple(f) + (0,) * self.n

    def one(self):
        return self.diagonal({x: 1 for x, y in self.pairs if x == y})

    def random_unit(self, rng):
        """A unit; over Q its entries are integers in [-3, 3], which keeps
        the cost of a query from depending on how large drawn fractions
        happen to be."""
        def draw(nonzero):
            if self.p is None:
                return (rng.choice([-3, -2, -1, 1, 2, 3]) if nonzero
                        else rng.randint(-3, 3))
            return rng.randrange(1, self.p) if nonzero else rng.randrange(self.p)
        return (tuple(draw(x == y) for x, y in self.pairs)
                + tuple(draw(False) for _ in self.pairs))

    def format(self, v):
        return str(v % self.p) if self.p else str(v)

    def parse(self, text):
        return _scalar(text, self.p)

    def to_json(self, d):
        """The library's element format: nonzero entries keyed "x,y"."""
        def part(vals):
            return {"entries": {f"{x},{y}": self.format(v)
                                for (x, y), v in zip(self.pairs, vals) if v}}
        return {"f": part(d[:self.n]), "i": part(d[self.n:])}

    def from_json(self, obj):
        out = [0] * (2 * self.n)
        for offset, key in ((0, "f"), (self.n, "i")):
            for xy, text in obj[key].get("entries", {}).items():
                x, _, y = xy.partition(",")
                out[offset + self.index[(x.strip(), y.strip())]] = self.parse(text)
        return tuple(out)


def theory_reps(ring, mapping, field_name):
    """Class representatives built from the theory, as (theta, descriptor):
    for each sign k, the plain and the sign-split conjugator with no fixed
    points, the plain one with one, and one fixed-point scaling per
    square-class tuple (first bit 0) with two or more (finite fields)."""
    elements = ring.elements
    fixed = [x for x in elements if mapping[x] == x]
    reps = []
    for k in (1, -1):
        if not fixed:
            lower = {x for x in elements if elements.index(x)
                     < elements.index(mapping[x])}
            split = ring.diagonal({x: 1 if x in lower else -1 for x in elements})
            reps += [(ring.one(), {"k": k, "kind": "plain"}),
                     (split, {"k": k, "kind": "skew"})]
        elif len(fixed) == 1:
            reps.append((ring.one(), {"k": k}))
        else:
            nonsq = next(t for t in range(2, ring.p)
                         if pow(t, (ring.p - 1) // 2, ring.p) != 1)
            for rest in itertools.product((0, 1), repeat=len(fixed) - 1):
                bits = (0,) + rest
                eps = {x: 1 for x in elements}
                eps.update((x, nonsq if b else 1) for x, b in zip(fixed, bits))
                reps.append((ring.diagonal(eps), {"k": k, "bits": bits}))
    return reps


def conjugate(ring, theta, mapping, k, u):
    """The conjugator of conj(u) o s o conj(u)^-1 for s = theta base(.)
    theta^-1: base is anti-multiplicative, so it is u theta base(u)."""
    return ring.mul(ring.mul(u, theta), ring.base(u, mapping, k))


def involution_json(ring, theta, mapping, k):
    """The library's involution file format."""
    return {"theta": ring.to_json(theta), "lambda": dict(mapping), "k": k}
