"""Acceptance gate: each test prints one PASS/FAIL line for its criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines. Budgets
and tolerances are pinned here, not deferred: enumeration counts, the
bridge-implies-non-Hamiltonian sweep, construction guarantees, family
properties, reduction accounting, probe rows, and byte determinism.
"""

import time
from pathlib import Path

from cubic_lab.census import classify_graph, conjecture_probe, enumerate_cubic
from cubic_lab.cli import main as cli_main
from cubic_lab.connectivity import classify_connectivity, find_bridges
from cubic_lab.construction import (
    MEMBER_INSERT,
    active_side_bridgeless,
    bridge_construct,
    depth_bound_report,
    insertion_family,
)
from cubic_lab.errors import InputError
from cubic_lab.graphs import emit_graph6, is_connected, is_cubic
from cubic_lab.reduction import OUTCOME_COMPLETE_TREE, OUTCOME_GRAPH, reduce_to_n
from cubic_lab.symmetry import canonical_form

from oracles import (
    labeled_connected_cubic,
    oracle_bridges,
    oracle_is_hamiltonian,
    orderly_connected_cubic,
)

# collision waivers for criterion 5: (source graph6, member index pair);
# empty means any within-family isomorphism collision fails the suite
COLLISION_WAIVER: frozenset = frozenset()


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _biconnected_corpus(n_max: int):
    for n in range(4, n_max + 1, 2):
        for g in enumerate_cubic(n):
            if classify_connectivity(g).is_biconnected:
                yield n, g


def test_criterion_1_enumeration_oracle():
    t0 = time.monotonic()
    counts = {n: len(enumerate_cubic(n)) for n in (4, 6, 8, 10)}
    ok = counts == {4: 1, 6: 2, 8: 5, 10: 19}
    detail = f"enumerate counts {counts}"
    # independent confirmation: exhaustive labeled generation for n <= 8
    for n in (4, 6, 8):
        labeled = {canonical_form(g).graph6 for g in labeled_connected_cubic(n)}
        ours = {canonical_form(g).graph6 for g in enumerate_cubic(n)}
        ok = ok and labeled == ours
        detail += f"; labeled[{n}]={len(labeled)}"
    # second, independently coded strategy for n = 10
    orderly = {canonical_form(g).graph6 for g in orderly_connected_cubic(10)}
    ours10 = {canonical_form(g).graph6 for g in enumerate_cubic(10)}
    ok = ok and orderly == ours10
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _verdict(1, ok, detail + f"; orderly[10]={len(orderly)}; {elapsed:.1f}s (< 60s)")


def test_criterion_2_bridge_graphs_never_hamiltonian():
    # the matching oracle searches every class, bridge graphs included,
    # where ``classify_graph`` answers a bridge graph without searching
    t0 = time.monotonic()
    exceptions = []
    disagreements = []
    non_ham = {}
    total_bridge = 0
    for n in range(4, 15, 2):
        non_ham[n] = 0
        for g in enumerate_cubic(n):
            ham = oracle_is_hamiltonian(g)
            non_ham[n] += not ham
            if ham != classify_graph(g)["is_hamiltonian"]:
                disagreements.append(emit_graph6(g))
            if oracle_bridges(g):
                total_bridge += 1
                if ham:
                    exceptions.append(emit_graph6(g))
    elapsed = time.monotonic() - t0
    # OEIS A164919: connected cubic non-Hamiltonian graphs
    ok = (not exceptions and not disagreements and elapsed < 600.0 and total_bridge >= 1
          and non_ham == {4: 0, 6: 0, 8: 0, 10: 2, 12: 5, 14: 35})
    _verdict(2, ok,
             f"{total_bridge} bridge graphs over n<=14, "
             f"{len(exceptions)} Hamiltonian exceptions; non-Hamiltonian {non_ham}; "
             f"{len(disagreements)} disagreements with classify_graph; {elapsed:.1f}s (< 600s)")


def test_criterion_3_construction_invariants():
    t0 = time.monotonic()
    checked = 0
    failures = []
    for n, g in _biconnected_corpus(10):
        rec = bridge_construct(g)
        aug = rec.augmented
        deg2 = [v for v in range(aug.n) if aug.degree(v) == 2]
        good = (
            aug.n == n + 4
            and find_bridges(aug) == (rec.bridge,)
            and deg2 == list(rec.open_nodes)
            and active_side_bridgeless(rec)
        )
        if not good:
            failures.append(emit_graph6(g))
        checked += 1
    elapsed = time.monotonic() - t0
    ok = checked >= 1 and not failures and elapsed < 300.0
    _verdict(3, ok,
             f"{checked} biconnected inputs n<=10, {len(failures)} violations; "
             f"{elapsed:.1f}s (< 300s)")


def test_criterion_4_depth_bound_stabilizer_hard_full_reported():
    checked = 0
    stab_failures = []
    for n, g in _biconnected_corpus(10):
        rep = depth_bound_report(bridge_construct(g))
        if not (rep.holds_stabilizer and rep.facilitated_complete):
            stab_failures.append(emit_graph6(g))
        checked += 1
    ok = checked >= 1 and not stab_failures
    _verdict(4, ok,
             f"{checked} records: stabilizer bound failures {len(stab_failures)}")


def test_criterion_5_family_properties():
    checked_members = 0
    size_failures = []
    member_failures = []
    collisions = []
    for n, g in _biconnected_corpus(10):
        rec = bridge_construct(g)
        fam = insertion_family(rec)
        if len(fam.members) < rec.profile.max_dist:
            size_failures.append(emit_graph6(g))
        for member in fam.members:
            h = member.graph
            if not (h.n == n + 4 and is_cubic(h) and is_connected(h)
                    and find_bridges(h) == (rec.bridge,)):
                member_failures.append((emit_graph6(g), tuple(member.chosen_edge)))
            checked_members += 1
        for pair in fam.collision_report:
            if (emit_graph6(g), pair) not in COLLISION_WAIVER:
                collisions.append((emit_graph6(g), pair))
    ok = (checked_members >= 1 and not size_failures
          and not member_failures and not collisions)
    _verdict(5, ok,
             f"{checked_members} family members: size-below-depth {len(size_failures)}, "
             f"bad members {len(member_failures)}, unwaived collisions {len(collisions)}")


def test_criterion_6_reduction_accounting():
    graph_outcomes = 0
    tree_reports = 0
    underflows = 0
    wrong = []
    for n, g in _biconnected_corpus(10):
        rec = bridge_construct(g)
        for member in insertion_family(rec).members:
            if member.kind != MEMBER_INSERT:
                continue
            try:
                outcome = reduce_to_n(rec, member.chosen_edge)
            except InputError as exc:
                if "region underflow" in str(exc):
                    underflows += 1
                    continue
                raise
            if outcome.kind == OUTCOME_GRAPH:
                h = outcome.graph
                if not (h.n == n and is_cubic(h) and is_connected(h) and find_bridges(h)):
                    wrong.append(emit_graph6(g))
                graph_outcomes += 1
            elif outcome.kind == OUTCOME_COMPLETE_TREE:
                # counted and serialized, never dropped
                payload = outcome.to_dict()
                if "complete_tree" not in payload:
                    wrong.append(emit_graph6(g))
                tree_reports += 1
    ok = not wrong and (graph_outcomes + tree_reports + underflows) >= 1
    _verdict(6, ok,
             f"pipeline runs n<=10: {graph_outcomes} graphs, {tree_reports} "
             f"complete-tree reports, {underflows} region underflows "
             "(sides this small never reach the 32-orbit selection threshold), "
             f"{len(wrong)} violations")


def test_criterion_7_probe_rows():
    t0 = time.monotonic()
    rows = [conjecture_probe(10), conjecture_probe(12)]
    elapsed = time.monotonic() - t0
    ok = (
        rows[0].rhs_count == 1
        and all(r.injection_possible == (r.lhs_count <= r.rhs_count) for r in rows)
        and elapsed < 600.0
    )
    _verdict(7, ok,
             f"probe rows {[(r.n, r.lhs_count, r.rhs_count, r.injection_possible) for r in rows]}; "
             f"{elapsed:.1f}s (< 600s)")


def test_criterion_8_byte_determinism(tmp_path: Path):
    jobs = [
        ("enumerate", "--n", "10"),
        ("census", "--n-min", "4", "--n-max", "10"),
        ("probe", "--n-min", "10", "--n-max", "10"),
    ]
    mismatches = []
    for i, argv in enumerate(jobs):
        a = tmp_path / f"job{i}_a.out"
        b = tmp_path / f"job{i}_b.out"
        assert cli_main(list(argv) + ["--out", str(a)]) == 0
        assert cli_main(list(argv) + ["--out", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            mismatches.append(argv[0])
    _verdict(8, not mismatches,
             f"{len(jobs)} jobs re-run byte-identically"
             + (f"; mismatches: {mismatches}" if mismatches else ""))
