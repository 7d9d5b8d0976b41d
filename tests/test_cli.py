import json

import pytest

from cubic_lab.cli import main
from cubic_lab.graphs import emit_graph6, parse_graph6

from conftest import long_form


@pytest.fixture
def d8_file(tmp_path, d8):
    path = tmp_path / "d8.g6"
    path.write_text(emit_graph6(d8) + "\n")
    return str(path)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_n6_two_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "6")
        assert code == 0
        assert len(out.strip().split("\n")) == 2

    def test_edgelist_format(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--format", "edgelist")
        assert code == 0
        assert out.startswith("4 6\n")

    def test_odd_n_exits_1(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "5")
        assert code == 1 and "odd" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "g.g6"
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == "C~\n"


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "4", "--bogus", "3")
        assert code == 1 and "--bogus" in err

    def test_missing_subcommand_exits_1(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_classify_needs_exactly_one_source(self, capsys, d8_file):
        code, _, err = run(capsys, "classify")
        assert code == 1 and "exactly one" in err
        code, _, err = run(capsys, "classify", "--n", "4", "--in", d8_file)
        assert code == 1


class TestClassify:
    def test_corpus(self, capsys, d8_file):
        code, out, _ = run(capsys, "classify", "--in", d8_file)
        assert code == 0
        facts = json.loads(out.strip())
        assert facts["class"] == "biconnected" and facts["is_hamiltonian"]

    def test_enumerated(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "4")
        assert code == 0
        assert json.loads(out.strip())["class"] == "three-connected"
        assert out.endswith("}\n") and out.count("\n") == 1

    def test_empty_corpus_prints_nothing(self, capsys, tmp_path):
        path = tmp_path / "empty.g6"
        path.write_text("")
        code, out, _ = run(capsys, "classify", "--in", str(path))
        assert code == 0 and out == ""


class TestConstructInsertReduce:
    def test_construct_json(self, capsys, d8_file):
        code, out, _ = run(capsys, "construct", "--in", d8_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["bridge"] == [8, 9] and doc["max_dist"] == 3

    def test_construct_rejects_three_connected(self, capsys, tmp_path, k4):
        path = tmp_path / "k4.g6"
        path.write_text(emit_graph6(k4) + "\n")
        code, _, err = run(capsys, "construct", "--in", str(path))
        assert code == 1 and "three-connected" in err

    def test_insert_graph6_members(self, capsys, d8_file):
        code, out, _ = run(capsys, "insert", "--in", d8_file)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        for line in lines:
            g = parse_graph6(line)
            assert g.n == 12

    def test_insert_json(self, capsys, d8_file):
        code, out, _ = run(capsys, "insert", "--in", d8_file, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pairwise_noniso"] is True and len(doc["members"]) == 3

    def test_insert_full_mode(self, capsys, d8_file):
        code, out, _ = run(capsys, "insert", "--in", d8_file, "--orbit-mode", "full")
        assert code == 0

    def test_reduce_underflows_with_exit_1(self, capsys, d8_file):
        code, _, err = run(capsys, "reduce", "--in", d8_file)
        assert code == 1 and "region underflow" in err

    def test_reduce_explicit_edge(self, capsys, d8_file):
        code, _, err = run(capsys, "reduce", "--in", d8_file, "--edge", "1", "2")
        assert code == 1 and "region underflow" in err

    def test_edgelist_input_accepted(self, capsys, tmp_path, d8):
        from cubic_lab.graphs import emit_edgelist

        path = tmp_path / "d8.edges"
        path.write_text(emit_edgelist(d8))
        code, out, _ = run(capsys, "construct", "--in", str(path))
        assert code == 0


class TestCensusProbeVerify:
    def test_census_single_row(self, capsys):
        code, out, _ = run(capsys, "census", "--n-min", "4", "--n-max", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("4,1,1,0,0,0,1,")

    def test_census_json(self, capsys):
        code, out, _ = run(capsys, "census", "--n-min", "4", "--n-max", "6", "--format", "json")
        assert code == 0
        assert [row["n"] for row in json.loads(out)] == [4, 6]

    def test_probe_csv(self, capsys):
        code, out, _ = run(capsys, "probe", "--n-min", "10", "--n-max", "10")
        assert code == 0
        assert out.splitlines()[1].startswith("10,")

    def test_verify_lemmas_clean_up_to_8(self, capsys):
        code, out, _ = run(capsys, "verify-lemmas", "--n-max", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["hard_failures"] == 0
        assert doc["checked"] >= 1
        assert all(g["side_all_edges_on_cycles"] for g in doc["graphs"])

    def test_enumerated_classes_print_the_level_strings(self, capsys, monkeypatch):
        # the levels already hold canonical graph6; only --in corpora,
        # whose lines may carry a header, are re-emitted
        from cubic_lab import cli
        from cubic_lab.census import enumerate_graph6

        def refuse(g):
            raise AssertionError(f"re-emitted {g}")

        monkeypatch.setattr(cli, "emit_graph6", refuse)
        code, out, _ = run(capsys, "classify", "--n", "8")
        assert code == 0
        assert [json.loads(line)["graph6"] for line in out.splitlines()] == list(enumerate_graph6(8))
        code, out, _ = run(capsys, "verify-lemmas", "--n-max", "8")
        assert code == 0 and json.loads(out)["checked"] >= 1

    def test_census_jobs_below_one_exits_1(self, capsys):
        code, out, err = run(capsys, "census", "--n-min", "4", "--n-max", "6", "--jobs", "0")
        assert code == 1 and out == ""
        assert "--jobs must be at least 1, got 0" in err

    @pytest.mark.parametrize("command", ["census", "probe", "verify-lemmas"])
    def test_empty_range_exits_1(self, capsys, command):
        code, out, err = run(capsys, command, "--n-min", "8", "--n-max", "6")
        assert code == 1 and out == ""
        assert "no even vertex count lies in [--n-min 8, --n-max 6]" in err
        code, out, err = run(capsys, command, "--n-min", "5", "--n-max", "5")
        assert code == 1 and out == ""

    @pytest.mark.parametrize("command, n_max, message", [
        ("census", "10", "n must lie in [4, 8], got 10"),
        ("verify-lemmas", "10", "n must lie in [4, 8], got 10"),
        ("probe", "8", "the probe row for n = 8 needs the graphs on n + 2 = 10 vertices: "
                       "n must lie in [4, 8], got 10"),
    ])
    def test_count_past_the_cap_exits_1_before_enumerating(
        self, capsys, monkeypatch, command, n_max, message
    ):
        from cubic_lab import census

        monkeypatch.setenv("CUBIC_LAB_MAX_N", "8")
        monkeypatch.setattr(census, "_ENUMERATED", {})
        code, out, err = run(capsys, command, "--n-min", "4", "--n-max", n_max)
        assert code == 1 and out == ""
        assert message in err
        assert census._ENUMERATED == {}

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "construct", "--in", "/nonexistent/file.g6")
        assert code == 1


class TestExitCodes:
    def test_invariant_fault_exits_2(self, capsys, monkeypatch):
        import cubic_lab.cli as cli
        from cubic_lab.errors import InvariantError

        def boom(args):
            raise InvariantError("synthetic fault")

        monkeypatch.setitem(cli._HANDLERS, "enumerate", boom)
        code, _, err = run(capsys, "enumerate", "--n", "4")
        assert code == 2 and "synthetic fault" in err

    def test_unsupported_format_combo_exits_1(self, capsys):
        code, _, err = run(capsys, "census", "--n-min", "4", "--n-max", "4",
                           "--format", "graph6")
        assert code == 1 and "graph6" in err

    def test_verify_lemmas_corpus_input(self, capsys, tmp_path, d8, k4):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text(emit_graph6(d8) + "\n" + emit_graph6(k4) + "\n")
        code, out, _ = run(capsys, "verify-lemmas", "--n-max", "4", "--in", str(corpus))
        assert code == 0
        doc = json.loads(out)
        assert doc["checked"] == 1  # K4 is three-connected, skipped


class TestCorpusLines:
    # every corpus line prints in normal form; only a line with the header
    # or a long size field below n = 63 is re-emitted to get there

    @pytest.fixture
    def spelled(self, tmp_path):
        from cubic_lab.census import enumerate_graph6

        level = [g6 for n in (6, 8, 10) for g6 in enumerate_graph6(n)]
        spellings = (lambda g6: g6, lambda g6: ">>graph6<<" + g6, long_form)
        lines = [spellings[i % 3](g6) for i, g6 in enumerate(level)]
        path = tmp_path / "mixed.g6"
        path.write_text("".join(line + "\n" for line in lines))
        respelled = [parse_graph6(line) for i, line in enumerate(lines) if i % 3]
        return str(path), level, respelled

    @staticmethod
    def _count_emits(monkeypatch):
        import cubic_lab.graphs as graphs

        emitted = []
        monkeypatch.setattr(graphs, "emit_graph6", lambda g: emitted.append(g) or emit_graph6(g))
        return emitted

    def test_classify_prints_the_normal_form(self, capsys, monkeypatch, spelled):
        path, level, respelled = spelled
        emitted = self._count_emits(monkeypatch)
        code, out, _ = run(capsys, "classify", "--in", path)
        assert code == 0
        assert [json.loads(line)["graph6"] for line in out.splitlines()] == level
        assert emitted == respelled

    def test_verify_lemmas_prints_the_normal_form(self, capsys, monkeypatch, spelled):
        from cubic_lab.connectivity import classify_connectivity

        path, level, respelled = spelled
        emitted = self._count_emits(monkeypatch)
        code, out, _ = run(capsys, "verify-lemmas", "--n-max", "4", "--in", path)
        assert code == 0
        checked = [g6 for g6 in level if classify_connectivity(parse_graph6(g6)).is_biconnected]
        assert checked and [e["graph6"] for e in json.loads(out)["graphs"]] == checked
        assert emitted == respelled


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "census", "--n-min", "4", "--n-max", "8", "--out", str(a))[0] == 0
        assert run(capsys, "census", "--n-min", "4", "--n-max", "8", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
