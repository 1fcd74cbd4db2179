"""Command-line surface: classify, run, bench, algebra.

Exit codes: 0 ok, 1 oracle mismatch, 2 input error or out of memory, each
error one line on stderr, no traceback. All randomness flows from --seed
(fixed default), so reports are reproducible byte for byte; wall-clock
timings go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .algebra.green import green_j, local_monoids
from .algebra.rees import rees_decompose
from .algebra.varieties import check_variety
from .engines.base import make_naive_engine
from .engines.dispatch import ENGINES
from .engines.language import make_language_engine
from .errors import AlgebraError, EngineError, InternalError, RangeError, VebError
from .gallery import gallery
from .jsonio import language_from_json, load_json, semigroup_from_json
from .syntactic import analyze_dfa

DEFAULT_SEED = 20114

VARIETY_FLAGS = [
    "COM",
    "APERIODIC",
    "ZE",
    "ZG",
    "SG",
    "NILPOTENT",
    "DEFINITE",
    "NIL_PLUS_ONE",
]


def cmd_classify(args):
    obj = load_json(args.input)
    _, _, report = analyze_dfa(language_from_json(obj))
    out = report.to_dict()
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _resolve_input(obj):
    """Returns ('language', m, sd, report) or ('semigroup', s)."""
    if isinstance(obj, dict) and "table" in obj:
        return ("semigroup", semigroup_from_json(obj))
    return ("language",) + analyze_dfa(language_from_json(obj))


def _position(tok, line):
    """A stream record's position field as an int; ValueError naming the
    record otherwise."""
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"bad stream record {line!r}: {tok!r} is not an integer position") from None


def cmd_run(args):
    obj = load_json(args.input)
    resolved = _resolve_input(obj)
    t0 = time.perf_counter()
    answers = []
    mismatches = 0
    op_costs = []

    if resolved[0] == "language":
        if args.engine != "auto":
            raise ValueError(
                f"--engine {args.engine} needs semigroup input; "
                "a language's engine follows from its class"
            )
        m, sd, report = resolved[1:]
        word = list(args.word)
        engine = make_language_engine(m, sd, report, word)
        shadow = list(word) if args.check else None

        def apply_update(pos, letter):
            engine.update(pos, letter)
            if shadow is not None:
                shadow[pos] = letter

        def answer_query(tag, positions):
            if tag != "Q":
                raise ValueError("language runs support only Q queries")
            got = engine.query()
            answers.append("true" if got else "false")
            if shadow is not None and got != m.member(shadow):
                return 1
            return 0

        def decode(tok):
            return tok
    else:
        s = resolved[1]
        word = [s.id_of(tok) for tok in args.word.split()]
        engine = ENGINES[args.engine](s, word)
        oracle = make_naive_engine(s, list(word)) if args.check else None

        def apply_update(pos, letter):
            engine.update(pos, letter)
            if oracle is not None:
                oracle.update(pos, letter)

        def answer_query(tag, positions):
            needed = {"P": "prefix", "I": "infix"}.get(tag)
            if needed and not hasattr(engine, needed):
                raise ValueError(f"engine kind {engine.kind!r} does not answer {tag} "
                                 "queries; --engine kary answers them")
            if tag == "Q":
                got = engine.query()
                want = oracle.query() if oracle else got
            elif tag == "P":
                got = engine.prefix(*positions)
                want = oracle.prefix(*positions) if oracle else got
            else:
                got = engine.infix(*positions)
                want = oracle.infix(*positions) if oracle else got
            answers.append("none" if got is None else s.names[got])
            return 0 if got == want else 1

        def decode(tok):
            return s.id_of(tok)

    fields = {"U": 3, "Q": 1, "P": 2, "I": 3}  # of each stream record
    with open(args.stream) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if len(parts) != fields.get(tag):
                raise ValueError(f"bad stream record {line!r}")
            positions = [_position(tok, line) for tok in parts[1:2 if tag == "U" else None]]
            before = engine.op_count
            if tag == "U":
                apply_update(positions[0], decode(parts[2]))
            else:
                mismatches += answer_query(tag, positions)
            op_costs.append(engine.op_count - before)

    wall = time.perf_counter() - t0
    for a in answers:
        print(a)
    max_ops = max(op_costs) if op_costs else 0
    mean_ops = sum(op_costs) / len(op_costs) if op_costs else 0.0
    print(f"# report answers={len(answers)} mismatches={mismatches} "
          f"max_ops={max_ops} mean_ops={mean_ops:.2f}")
    print(f"wall_s={wall:.3f}", file=sys.stderr)
    return 1 if mismatches else 0


BENCH_LANGUAGES = {
    "abstar": ("a*b*", "ab"),
    "evenba": ("(aa)*ba*", "ab"),
}


def _int_at_least(value, least):
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _known(field, value, names):
    """value when it is one of names, else RangeError naming the field, the
    value and the accepted names."""
    if not (isinstance(value, str) and value in names):
        raise RangeError(f"bench cell {field} {value!r} unknown; accepted: {', '.join(names)}")
    return value


def _bench_cells(cfg):
    """The cells of a bench config as (engine, target, ns, ops), target
    None for a language:<name> engine; RangeError names the first
    malformed one, so no cell runs before every name is checked."""
    cells = cfg.get("cells") if isinstance(cfg, dict) else None
    if not isinstance(cells, list):
        raise RangeError("bench config needs 'cells': a list of cell objects")
    gal = gallery()
    out = []
    for cell in cells:
        kind = cell.get("engine") if isinstance(cell, dict) else None
        if not isinstance(kind, str):
            raise RangeError("a bench cell must be an object with an 'engine' name")
        ns, ops = cell.get("ns"), cell.get("ops", 1000)
        if not isinstance(ns, list) or not all(_int_at_least(n, 1) for n in ns):
            raise RangeError("a bench cell's 'ns' must be a list of positive integers")
        if not _int_at_least(ops, 0):
            raise RangeError("a bench cell's 'ops' must be a non-negative integer")
        if kind.startswith("language:"):
            _known("language", kind.split(":", 1)[1], list(BENCH_LANGUAGES))
            target = None
        else:
            _known("engine", kind, list(ENGINES))
            if "gallery" in cell:
                target = gal[_known("gallery", cell["gallery"], sorted(gal))]
            elif "semigroup" in cell:
                target = semigroup_from_json(cell["semigroup"])
            else:
                raise RangeError(f"bench cell for engine {kind!r} needs 'gallery' or 'semigroup'")
        out.append((kind, target, ns, ops))
    return out


def _bench_cell(engine_kind, n, ops, seed, target):
    rng = random.Random(seed)
    if target is None:
        from .syntactic import analyze_regex

        rx, alpha = BENCH_LANGUAGES[engine_kind.split(":", 1)[1]]
        m, sd, report = analyze_regex(rx, alpha)
        word = [rng.choice(alpha) for _ in range(n)]
        eng = make_language_engine(m, sd, report, word)
        letters = alpha
        pick = lambda: rng.choice(letters)
    else:
        s = target
        word = [rng.randrange(s.size) for _ in range(n)]
        eng = ENGINES[engine_kind](s, word)
        pick = lambda: rng.randrange(s.size)
    max_upd = 0
    max_qry = 0
    for _ in range(ops):
        before = eng.op_count
        eng.update(rng.randrange(n), pick())
        max_upd = max(max_upd, eng.op_count - before)
        before = eng.op_count
        eng.query()
        max_qry = max(max_qry, eng.op_count - before)
    return eng.kind, max_upd, max_qry


def cmd_bench(args):
    cells = _bench_cells(load_json(args.config))
    seed = args.seed
    rows = ["# dynreg-bench v1", "n,engine,max_ops_update,max_probes_query"]
    for kind, target, ns, ops in cells:
        for n in ns:
            tag, mu, mq = _bench_cell(kind, n, ops, seed, target)
            rows.append(f"{n},{tag},{mu},{mq}")
    out = "\n".join(rows) + "\n"
    if args.csv_out:
        with open(args.csv_out, "w") as f:
            f.write(out)
    else:
        sys.stdout.write(out)
    return 0


def cmd_algebra(args):
    s = semigroup_from_json(load_json(args.input))
    print(f"size: {s.size}")
    print(f"identity: {s.names[s.identity] if s.identity is not None else '-'}")
    print(f"zero: {s.names[s.zero] if s.zero is not None else '-'}")
    print(f"idempotents: {' '.join(s.names[e] for e in s.idempotents)}")
    print("omega:")
    for x in range(s.size):
        d = s.omega_data(x)
        print(
            f"  {s.names[x]}: exponent={d.exponent} omega={s.names[d.element]} "
            f"omega_plus_one={s.names[d.plus_one]} group={d.is_group_element}"
        )
    js = green_j(s)
    print("j-classes:")
    for cid, cls in enumerate(js.classes):
        marks = []
        if cid in js.maximal_classes:
            marks.append("maximal")
        if js.regular[cid]:
            marks.append("regular")
        above = sorted(d for d in range(len(js.classes)) if (cid, d) in js.less)
        rel = f" < {above}" if above else ""
        print(f"  C{cid} {{{' '.join(s.names[x] for x in cls)}}} "
              f"[{' '.join(marks)}]{rel}")
    print("varieties:")
    for v in VARIETY_FLAGS:
        print(f"  {v}: {'yes' if check_variety(s, v) else 'no'}")
    print(f"  LOCAL(ZG): {'yes' if check_variety(s, ('LOCAL', 'ZG')) else 'no'}")
    print(f"  LOCAL(SG): {'yes' if check_variety(s, ('LOCAL', 'SG')) else 'no'}")
    print("local monoids:")
    for e, local, incl in local_monoids(s):
        print(f"  e={s.names[e]}: {{{' '.join(s.names[x] for x in incl)}}}")
    print("rees coordinates of regular maximal classes:")
    for cid in js.maximal_classes:
        if not js.regular[cid]:
            continue
        r = rees_decompose(s, cid, js)
        print(f"  C{cid}: |G|={r.group.size} I={r.i_count} J={r.j_count}")
        for j in range(r.j_count):
            row = [
                "0" if v is None else r.group.names[v] for v in r.matrix[j]
            ]
            print(f"    P[{j}] = [{' '.join(row)}]")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="dynreg")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="trichotomy report for a language")
    p.add_argument("input", help="language JSON file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("run", help="drive an engine with an update stream")
    p.add_argument("input", help="language or semigroup JSON file")
    p.add_argument("--word", required=True,
                   help="initial word (string for languages, names for semigroups)")
    p.add_argument("--stream", required=True, help="update/query stream file")
    p.add_argument("--check", action="store_true",
                   help="shadow with the naive oracle; exit 1 on mismatch")
    p.add_argument("--engine", default="auto", choices=list(ENGINES))
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="operation-count benchmarks to CSV")
    p.add_argument("config", help="bench config JSON")
    p.add_argument("--csv-out", default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("algebra", help="structure report for a semigroup")
    p.add_argument("input", help="semigroup JSON file")
    p.set_defaults(func=cmd_algebra)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (AlgebraError, EngineError, InternalError, VebError, ValueError,
            KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # the frames that held the memory are gone by now
        print(f"error: out of memory in {args.command}: try a shorter word or a smaller "
              "language", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
