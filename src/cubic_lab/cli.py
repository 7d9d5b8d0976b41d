"""Command-line surface: batch jobs over graphs and corpora.

All subcommands are deterministic: identical flags produce byte-identical
output, including under --jobs parallelism (aggregation is order-free).
Exit codes: 0 success, 1 bad input or usage, 2 broken internal invariant.
``insert`` and ``verify-lemmas`` take edge orbits under one group, that
of the augmented active side, which is the root's stabilizer there.

At start-up this module loads only ``graphs``, ``connectivity`` and
``hamilton``, all that ``classify --in`` runs. Every other module, and
``json``, is imported inside the handlers that use it, so ``classify --in``
loads neither ``census`` nor ``symmetry``, and ``enumerate``, ``classify``
and ``census`` never load ``construction`` or ``reduction``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .connectivity import classify_connectivity
from .errors import InputError, InvariantError
from .graphs import (
    Graph,
    edge,
    emit_edgelist,
    emit_graph6,
    parse_edgelist,
    parse_graph6,
    parse_graph6_lines,
)
from .hamilton import classify_graph, classify_graph6


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this CLI reserves 2 for
    # internal invariant faults
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cubic-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser, fmt_choices: tuple[str, ...], default_fmt: str):
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--format", choices=fmt_choices, default=default_fmt)

    p = sub.add_parser("enumerate", parents=[], help="stream connected cubic graphs")
    p.add_argument("--n", type=int, required=True)
    add_common(p, ("graph6", "edgelist"), "graph6")

    p = sub.add_parser("classify", help="per-graph facts as JSON lines")
    p.add_argument("--n", type=int, help="classify the enumerated graphs of this size")
    p.add_argument("--in", dest="infile", help="graph6 corpus, one graph per line")
    add_common(p, ("json",), "json")

    p = sub.add_parser("construct", help="run the bridge construction on one graph")
    p.add_argument("--in", dest="infile", required=True)
    add_common(p, ("json",), "json")

    p = sub.add_parser("insert", help="insertion family of one graph")
    p.add_argument("--in", dest="infile", required=True)
    add_common(p, ("graph6", "json"), "graph6")

    p = sub.add_parser("reduce", help="insert at an edge, then remove four vertices")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--edge", type=int, nargs=2, metavar=("U", "V"),
                   help="cycle edge for the insertion (default: least insertable edge)")
    add_common(p, ("json",), "json")

    p = sub.add_parser("census", help="classification counts per vertex count")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    add_common(p, ("csv", "json"), "csv")

    p = sub.add_parser("probe", help="complete-tree counting evidence rows")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    add_common(p, ("csv", "json"), "csv")

    p = sub.add_parser("verify-lemmas",
                       help="construction guarantees over a corpus, with diagnostics")
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--in", dest="infile", help="check this corpus instead of enumerating")
    add_common(p, ("json",), "json")
    return parser


def _read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _read_graph(path: str) -> Graph:
    text = _read_text(path)
    stripped = text.strip()
    if not stripped:
        raise InputError(f"{path} is empty")
    first = stripped.splitlines()[0].split()
    if len(first) == 2 and all(tok.isdigit() for tok in first):
        return parse_edgelist(text)
    return parse_graph6(stripped.splitlines()[0])


def _read_corpus(path: str) -> list[tuple[str, Graph]]:
    return parse_graph6_lines(_read_text(path))


def _write(out: Optional[str], text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json(payload) -> str:
    import json

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cmd_enumerate(args) -> str:
    from .census import enumerate_graph6

    level = enumerate_graph6(args.n)
    if args.format == "edgelist":
        return "".join(emit_edgelist(parse_graph6(g6)) for g6 in level)
    return "".join(g6 + "\n" for g6 in level)


def _cmd_classify(args) -> str:
    if (args.n is None) == (args.infile is None):
        raise InputError("classify needs exactly one of --n or --in")
    import json

    if args.n is not None:
        from .census import enumerate_graph6

        facts = map(classify_graph6, enumerate_graph6(args.n))
    else:
        facts = ({"graph6": g6, **classify_graph(g)} for g6, g in _read_corpus(args.infile))
    return "".join(json.dumps(f, sort_keys=True) + "\n" for f in facts)


def _cmd_construct(args) -> str:
    from .construction import bridge_construct, record_to_dict

    rec = bridge_construct(_read_graph(args.infile))
    return _json(record_to_dict(rec))


def _cmd_insert(args) -> str:
    from .construction import bridge_construct, insertion_family, record_to_dict

    rec = bridge_construct(_read_graph(args.infile))
    fam = insertion_family(rec)
    if args.format == "json":
        payload = {
            "record": record_to_dict(rec),
            "members": [
                {
                    "edge": list(m.chosen_edge),
                    "kind": m.kind,
                    "graph6": emit_graph6(m.graph),
                }
                for m in fam.members
            ],
            "pairwise_noniso": fam.pairwise_noniso,
            "collisions": [list(pair) for pair in fam.collision_report],
        }
        return _json(payload)
    if fam.collision_report:
        print(
            f"warning: {len(fam.collision_report)} isomorphic member pair(s): "
            f"{[list(p) for p in fam.collision_report]}",
            file=sys.stderr,
        )
    return "".join(emit_graph6(m.graph) + "\n" for m in fam.members)


def _cmd_reduce(args) -> str:
    from .construction import bridge_construct, insertable_edges
    from .reduction import reduce_to_n

    rec = bridge_construct(_read_graph(args.infile))
    if args.edge is not None:
        chosen = edge(args.edge[0], args.edge[1])
    else:
        insertable = insertable_edges(rec)
        if not insertable:
            raise InputError("no insertable cycle edge exists for this graph")
        chosen = min(insertable)
    outcome = reduce_to_n(rec, chosen)
    payload = outcome.to_dict()
    payload["edge"] = list(chosen)
    return _json(payload)


def _table(args, row_type: type, rows: list) -> str:
    from .census import table_csv

    if args.format == "json":
        return _json([row._asdict() for row in rows])
    return table_csv(row_type, rows)


def _cmd_census(args) -> str:
    from .census import CensusRow, census_table

    if args.jobs > 1 and not hasattr(os, "fork"):
        print("warning: this platform has no os.fork, so --jobs runs the census serially", file=sys.stderr)
    return _table(args, CensusRow, census_table(args.n_min, args.n_max, jobs=args.jobs))


def _cmd_probe(args) -> str:
    from .census import ConjectureProbeRow, probe_table

    return _table(args, ConjectureProbeRow, probe_table(args.n_min, args.n_max))


def _cmd_verify(args) -> str:
    from dataclasses import asdict

    from .census import enumerate_graph6, even_sizes
    from .construction import active_side_bridgeless, bridge_construct, depth_bound_report

    if args.infile is not None:
        corpus = _read_corpus(args.infile)
    else:
        corpus = (
            (g6, parse_graph6(g6))
            for n in even_sizes(args.n_min, args.n_max) for g6 in enumerate_graph6(n)
        )
    reports = []
    hard_failures = 0
    for g6, g in corpus:
        if not classify_connectivity(g).is_biconnected:
            continue
        entry: dict = {"graph6": g6}
        try:
            rec = bridge_construct(g)
            cyclic = active_side_bridgeless(rec)
            bound = depth_bound_report(rec)
            entry.update({
                "construction_ok": True,
                "side_all_edges_on_cycles": cyclic,
                **asdict(bound),
            })
            if not cyclic or not bound.holds_stabilizer or not bound.facilitated_complete:
                hard_failures += 1
        except InvariantError as exc:
            entry.update({"construction_ok": False, "fault": str(exc)})
            hard_failures += 1
        reports.append(entry)
    payload = {
        "checked": len(reports),
        "hard_failures": hard_failures,
        "graphs": reports,
    }
    if hard_failures:
        _write(args.out, _json(payload))
        raise InvariantError(f"{hard_failures} graph(s) violated construction guarantees")
    return _json(payload)


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "classify": _cmd_classify,
    "construct": _cmd_construct,
    "insert": _cmd_insert,
    "reduce": _cmd_reduce,
    "census": _cmd_census,
    "probe": _cmd_probe,
    "verify-lemmas": _cmd_verify,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        text = _HANDLERS[args.command](args)
        _write(args.out, text)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
