"""Command-line front end.

Subcommands: poset-info, hypotheses, classify, equivalent, verify.
Exit codes: 0 ok/equivalent, 1 not equivalent, 2 input error,
3 hypothesis failure, 4 unsupported characteristic.  A witness, count or
normal form that fails the library's internal exact check (WitnessFailed)
also exits 2, with a one-line message and no traceback, and so does a
run whose reader closes stdout before the output is all written (as
``| head -1`` does): what is left goes to the null device.  A run that
exhausts memory (MemoryError) exits 2 too, with the one line ``error: out
of memory``.

Each process runs one subcommand and, with bytecode writing off, compiles
every library module it imports.  So the top of this module imports only
what every subcommand shares: ``errors``, ``fields``, ``posets`` and the
hypothesis decision in ``snf``; each ``cmd_*`` imports the rest.
``poset-info`` and a passing ``hypotheses`` run load no algebra.  A
failing ``hypotheses`` run builds one to certify its counterexamples, but
multiplies in it nothing, so it compiles no product kernel; both finders
read the Smith form the poset keeps (``snf._smith_reading``), so the run
takes one form in all when the poset is its own core.
``classify`` and ``equivalent``, inner or ``--general``, add
``involutions`` (the algebra and the idealization).  ``verify`` adds
``morphisms``, and the ``oracle`` only when the unit group is within
``--oracle-limit``; it classifies every poset involution on the one
algebra it builds, and reads pairwise inequivalence of the
representatives off their distinct (k, key) pairs.

A well-formed command line loads no argparse either (nor the gettext and
locale argparse imports) and builds no parser: ``_read_args`` reads it off
``COMMANDS``, the table ``build_parser`` builds argparse's parser from.
argparse loads only for help, for a usage error, and for what only it
reads: an abbreviated or repeated option, a value led by ``-``.
"""

import json
import os
import sys

from .errors import (BadSign, Char2Unsupported, CycleDetected, DuplicateLabel,
                     HypothesisFailed, IncalgError, NotAUnit, NotInvolutive, ParseError)
from .fields import parse_field
from .posets import Poset, PosetMap
from .snf import check_hypotheses

EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3
EXIT_CHAR2 = 4


def _fs_path(path):
    """The path ``pathlib.Path(path)`` names: empty is ``.``; ``.`` parts and
    repeated or trailing slashes drop, two leading slashes stay two."""
    rel = path.lstrip("/")
    root = "//" if len(path) - len(rel) == 2 else "/" * (rel != path)
    return root + "/".join(p for p in rel.split("/") if p not in ("", ".")) or "."


def read_input(path):
    """The UTF-8 text of the file at ``path``; a file that cannot be read
    (missing, a directory, no permission) or is not UTF-8 text raises
    ParseError naming the path."""
    try:
        with open(_fs_path(path), encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text "
                         f"({exc.reason} at byte {exc.start})") from exc


def _parse_json(text, what):
    """The value the JSON ``text`` holds; malformed JSON, an integer past
    Python's digit limit, or JSON nested too deeply raises ParseError, its
    message led by ``what``."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError is one
        raise ParseError(f"{what}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{what}: JSON nested too deeply") from exc


def load_poset(path):
    """The poset a file holds, as JSON or as relation lines; any fault in
    the file raises ParseError naming the path."""
    text = read_input(path)
    what = f"bad poset file {path}"
    obj = _parse_json(text, what) if text.lstrip().startswith("{") else None
    try:
        return Poset.from_lines(text) if obj is None else Poset.from_json(obj)
    except (CycleDetected, DuplicateLabel, ParseError) as exc:
        raise ParseError(f"{what}: {exc}") from exc


def load_lambda(poset, spec):
    """Inline JSON object, inline a:b,c:d pairs, or a file holding either."""
    text = spec
    if os.path.isfile(_fs_path(spec)):  # False for a map too long to stat
        text = read_input(spec)
    text = text.strip()
    if text.startswith("{"):
        mapping = _parse_json(text, "bad map")
    else:
        mapping = {}
        for part in text.split(","):
            src, _, dst = part.partition(":")
            if not dst:
                raise ParseError(f"bad map entry {part!r}")
            mapping[src.strip()] = dst.strip()
    lam = PosetMap.from_json(poset, poset, mapping, anti=True)
    if not lam.is_involution():
        raise ParseError("map is not an order-reversing involution")
    return lam


def _emit(payload, as_json):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for key, value in payload.items():
        print(f"{key}: {value}")


def cmd_poset_info(args):
    poset = load_poset(args.poset)
    # once X has an anti-automorphism alpha, its anti-automorphisms are the
    # coset alpha Aut(X), as many as Aut(X); so none is listed: the pruned
    # search finds the involutions, and without one a first-hit search
    # decides whether any anti-automorphism exists
    autos, involutions = poset.automorphisms(), poset.involutions()
    anti = bool(involutions or poset.maps_to(poset, True, _first=True))
    payload = {
        "elements": ", ".join(str(x) for x in poset.elements),
        "covers": ", ".join(f"{x}<{y}" for x, y in poset.covers),
        "connected": "yes" if poset.is_connected() else "no",
        "all-comparable": ", ".join(
            sorted(str(x) for x in poset.all_comparable_elements())) or "none",
        "automorphisms": len(autos),
        "anti-automorphisms": len(autos) if anti else 0,
        "involutions": "; ".join(
            json.dumps(m.to_json(), sort_keys=True) for m in involutions) or "none",
    }
    if not anti:
        payload["note"] = ("no anti-automorphisms: the idealization ring "
                           "admits no involution over any field")
    if args.json:
        payload["automorphism_maps"] = [m.to_json() for m in autos]
        payload["involution_maps"] = [m.to_json() for m in involutions]
    _emit(payload, args.json)
    return EXIT_OK


def cmd_hypotheses(args):
    poset = load_poset(args.poset)
    field = parse_field(args.field)
    report = check_hypotheses(poset, field)
    if not all(report.values()):
        # the decision needs no algebra; only certifying a counterexample does
        from .derivations import find_non_inner_additive
        from .fia import IncidenceAlgebra
        from .morphisms import find_non_inner_cocycle
        alg = IncidenceAlgebra(poset, field)
    payload = {"field": field.name}
    payload["mult_subset_inn"] = report["mult_subset_inn"]
    if not report["mult_subset_inn"]:
        payload["non_inner_cocycle"] = {
            f"{x},{y}": field.format(v)
            for (x, y), v in sorted(find_non_inner_cocycle(alg).items())}
    payload["der_equals_ider"] = report["der_equals_ider"]
    if not report["der_equals_ider"]:
        payload["non_inner_additive_cocycle"] = {
            f"{x},{y}": field.format(v)
            for (x, y), v in sorted(find_non_inner_additive(alg).items())}
    _emit(payload, args.json)
    return EXIT_OK if all(report.values()) else EXIT_HYPOTHESIS


def cmd_classify(args):
    from .involutions import classify
    poset = load_poset(args.poset)
    field = parse_field(args.field)
    lam = load_lambda(poset, args.lam)
    result = classify(poset, lam, field, general=args.general)
    payload = result.to_json()
    if args.json:
        _emit(payload, True)
    else:
        print(f"mode: {payload['mode']}")
        print(f"fixed points: {', '.join(payload['fixed_points']) or 'none'}")
        print(f"count: {payload['count']}")
        for spec, inv in zip(payload.get("representatives", ()),
                             payload.get("invariants", ())):
            print(f"  representative: {json.dumps(spec, sort_keys=True)}")
            print(f"    invariant: {json.dumps(inv, sort_keys=True)}")
        if "family" in payload:
            print(f"family: {json.dumps(payload['family'], sort_keys=True)}")
    return EXIT_OK


def _load_involution(alg, path):
    from .involutions import involution_from_json
    obj = _parse_json(read_input(path), f"bad involution file {path}")
    try:
        return involution_from_json(alg, obj)
    except (BadSign, NotAUnit, NotInvolutive, ParseError) as exc:
        raise ParseError(f"bad involution object in {path}: {exc}") from exc


def cmd_equivalent(args):
    from .fia import IncidenceAlgebra
    from .involutions import equivalent, equivalent_inner, verify_witness
    poset = load_poset(args.poset)
    field = parse_field(args.field)
    alg = IncidenceAlgebra(poset, field)
    s1 = _load_involution(alg, args.inv1)
    s2 = _load_involution(alg, args.inv2)
    verdict = equivalent(s1, s2) if args.general else equivalent_inner(s1, s2)
    if verdict.equivalent and args.check:
        verify_witness(s1, s2, verdict)
    _emit(verdict.to_json(), True)
    return EXIT_OK if verdict.equivalent else EXIT_NOT_EQUIVALENT


def cmd_verify(args):
    import random

    from .fia import IncidenceAlgebra, count_units
    from .idealization import d_one, random_d_unit, random_delem
    from .involutions import _classify
    from .morphisms import FiaMorphism, decompose
    poset = load_poset(args.poset)
    field = parse_field(args.field)
    alg = IncidenceAlgebra(poset, field)
    rng = random.Random(20240)
    failures = []

    def check(name, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    for name, draw in (("algebra", alg.random),
                       ("idealization", lambda r: random_delem(alg, r))):
        triples = ([draw(rng) for _ in range(3)] for _ in range(50))
        check(f"{name} ring axioms",
              all((a * b) * c == a * (b * c) and a * (b + c) == a * b + a * c
                  for a, b, c in triples))
    ok = True
    for _ in range(20):
        u = random_d_unit(alg, rng)
        if u * u.inverse() != d_one(alg) or u.inverse() * u != d_one(alg):
            ok = False
    check("unit inverses", ok)
    ok = True
    try:
        for _ in range(10):
            u = alg.random_unit(rng)
            raw = FiaMorphism.inner(alg, u).to_linear()
            decompose(raw)
    except IncalgError:
        ok = False
    check("inner decomposition round-trip", ok)
    report = check_hypotheses(poset, field)
    print(f"info mult_subset_inn: {report['mult_subset_inn']}")
    print(f"info der_equals_ider: {report['der_equals_ider']}")
    if field.char != 2 and poset.is_connected() and all(report.values()):
        counts = []  # per lam, for the oracle check below
        for lam in poset.involutions():
            res = _classify(alg, lam, False)
            counts.append(res.count)
            reps = res.representatives
            if reps is None:
                print(f"info classification over {field.name}: infinite family")
                continue
            # all share lam, so they are pairwise inequivalent exactly when
            # their (k, key) pairs are distinct
            ok = (all(s.to_linear().is_involution() for s in reps)
                  and len({(s.k, s.invariant().key()) for s in reps}) == len(reps))
            check(f"classification for {json.dumps(lam.to_json(), sort_keys=True)}", ok)
        if field.order is not None:
            units = count_units(alg, "D")
            if units > args.oracle_limit:
                print(f"info oracle check skipped: {units} units exceed "
                      f"--oracle-limit {args.oracle_limit}")
            else:
                from .oracle import (
                    enumerate_involutions_D, orbit_partition,
                    unit_group_generators,
                )
                invs = enumerate_involutions_D(alg, limit=args.oracle_limit)
                partition = orbit_partition(invs, unit_group_generators(alg))
                check("oracle orbit count matches classification",
                      len(partition) == sum(counts))
    else:
        print("info classification checks skipped (hypotheses or field)")
    return EXIT_OK if not failures else EXIT_INPUT


def _count(text):
    """A non-negative integer, read by the scalar rule of ``Field.parse``:
    ASCII with no underscore, so ``٢`` and ``1_000`` are refused, with
    ParseError."""
    try:
        value = int(text) if text.isascii() and "_" not in text else -1
    except ValueError:
        value = -1
    if value < 0:
        raise ParseError(f"expected a non-negative integer, got {text!r}")
    return value


_POSET = ("--poset", {"required": True})
_FIELD = ("--field", {"required": True})
_JSON = ("--json", {"action": "store_true"})

# subcommand: (help, function, arguments in the order ``--help`` lists
# them).  An argument is its name, led by ``--`` for an option, and the
# keywords ``add_argument`` takes for it; a "type" reads a value, raising
# ParseError on one it refuses.
COMMANDS = {
    "poset-info": ("connectivity and symmetry report", cmd_poset_info,
                   (_POSET, _JSON)),
    "hypotheses": ("check the classification hypotheses", cmd_hypotheses,
                   (_POSET, _FIELD, _JSON)),
    "classify": ("involution classes for one poset involution", cmd_classify, (
        _POSET, _FIELD,
        ("--lambda", {"dest": "lam", "required": True,
                      "help": "inline map (a:b,b:a or JSON) or a file"}),
        ("--general", {"action": "store_true",
                       "help": "fold classes under all ring automorphisms"}),
        _JSON)),
    "equivalent": ("decide equivalence of two involutions", cmd_equivalent, (
        _POSET, _FIELD, ("inv1", {}), ("inv2", {}),
        ("--general", {"action": "store_true",
                       "help": "decide under all ring automorphisms, not only inner"}),
        ("--check", {"action": "store_true",
                     "help": "re-verify the witness before printing"}))),
    "verify": ("run the property checks on one instance", cmd_verify, (
        _POSET, _FIELD,
        ("--oracle-limit", {"type": _count, "default": 1000,
                            "help": "largest unit group the brute-force oracle "
                                    "enumerates (default 1000)"}))),
}


def build_parser():
    """``COMMANDS`` as an argparse parser, which prints the help and
    reports every usage error."""
    import argparse

    def typed(read):
        """argparse type: ``read``, its ParseError argparse's own error."""
        def parse(text):
            try:
                return read(text)
            except ParseError as exc:
                raise argparse.ArgumentTypeError(str(exc))
        return parse

    parser = argparse.ArgumentParser(
        prog="incalg",
        description="Exact incidence algebras, idealization rings, and "
                    "involution classification over finite posets.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, fn, arguments) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, keywords in arguments:
            if "type" in keywords:
                keywords = {**keywords, "type": typed(keywords["type"])}
            p.add_argument(name, **keywords)
        p.set_defaults(fn=fn)
    return parser


def _read_args(argv):
    """What ``build_parser().parse_args(argv)`` returns, read off
    ``COMMANDS`` without argparse, when argv is well formed: a subcommand,
    then its options by their exact names, each once, a valued one as
    ``--opt value`` (a value not led by ``-``) or ``--opt=value``, a flag
    without ``=``, and exactly its positionals, among the options or not.
    None for anything else (help, an abbreviation, a repeat, a usage
    error), which argparse reads."""
    from types import SimpleNamespace
    if not argv or argv[0] not in COMMANDS:
        return None
    _, fn, arguments = COMMANDS[argv[0]]
    options = {name: keywords for name, keywords in arguments
               if name.startswith("--")}
    given, free = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            free.append(token)
            continue
        name, eq, value = token.partition("=")
        keywords = options.get(name)
        if keywords is None or name in given:
            return None
        if "action" in keywords:  # a flag, which takes no value
            if eq:
                return None
            value = True
        elif not eq:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ParseError:
                return None
        given[name] = value
    positionals = [name for name, _ in arguments if name not in options]
    if len(free) != len(positionals):
        return None
    values = dict(zip(positionals, free), command=argv[0], fn=fn)
    for name, keywords in options.items():
        if name not in given and keywords.get("required"):
            return None
        default = keywords.get("default", False if "action" in keywords else None)
        values[keywords.get("dest", name[2:].replace("-", "_"))] = \
            given.get(name, default)
    return SimpleNamespace(**values)


def main(argv=None):
    """Run the subcommand ``argv`` (default ``sys.argv[1:]``) names and
    return its exit code.  ``_read_args`` reads a well-formed command
    line; argparse loads only to print help or report a usage error."""
    argv = sys.argv[1:] if argv is None else argv
    args = _read_args(argv) or build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader raises here, not at exit
        return code
    except BrokenPipeError:
        # the exit flush would raise again: write the rest to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed before it was all written", file=sys.stderr)
        return EXIT_INPUT
    except HypothesisFailed as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except Char2Unsupported as exc:
        print(f"unsupported characteristic: {exc}", file=sys.stderr)
        return EXIT_CHAR2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INPUT
    except IncalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
