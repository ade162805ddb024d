import io
import itertools
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal.cli import run
from antipodal.fileformat import (StructureFile, read_structure_file,
                                  read_structure_text, write_structure_text)
from antipodal import (ClassDescriptor, EdgeLabelledGraph, FormatError,
                       GammaLStructure, ParityFunction, ValuationFunction)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), stdout=out)
    return code, out.getvalue()


def report_dict(text):
    out = {}
    for line in text.splitlines():
        key, value = line.split("\t", 1)
        out[key] = value
    return out


def fixture(name):
    return str(FIXTURES / name)


class TestFileFormat:
    @pytest.mark.parametrize("name", [
        "quadruple.elg", "bad-triangle.elg", "nonmetric.elg", "edge3.elg",
        "two-edges-f.elg", "quad-expansion.elg", "path22.elg"])
    def test_roundtrip_is_byte_identical(self, name):
        text = (FIXTURES / name).read_text(encoding="utf-8")
        assert write_structure_text(read_structure_text(text)) == text

    def test_marked_file_parses_to_marked_structure(self):
        parsed = read_structure_file(fixture("quad-expansion.elg"))
        assert isinstance(parsed.structure, GammaLStructure)
        assert parsed.structure.mark_size == 2

    def test_parity_lines_parse(self):
        parsed = read_structure_file(fixture("two-edges-f.elg"))
        assert parsed.parity is not None
        assert parsed.parity.value("u1", "u2") == 1

    def test_comments_and_blanks_ignored(self):
        text = "# header comment\nelg 1\n\ndelta 2\nvertex a  # trailing\n"
        parsed = read_structure_text(text)
        assert parsed.graph.vertices == ("a",)

    def test_bad_header_rejected(self):
        with pytest.raises(FormatError, match="header"):
            read_structure_text("delta 3\n")

    def test_unknown_directive_rejected(self):
        with pytest.raises(FormatError, match="unknown directive"):
            read_structure_text("elg 1\ndelta 3\nnonsense a b\n")

    @pytest.mark.parametrize("name", ["a#b", "a b", "", "a\tb", 7])
    def test_writer_refuses_names_the_reader_rejects(self, name):
        parsed = StructureFile(EdgeLabelledGraph([name, "z"], 3, [(name, "z", 1)]))
        with pytest.raises(FormatError, match="cannot be written"):
            write_structure_text(parsed)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_written_text_reads_back_or_is_refused(self, data):
        names = data.draw(st.lists(st.one_of(st.text(max_size=3), st.integers(0, 9)),
                                   min_size=1, max_size=5, unique=True))
        delta = data.draw(st.integers(1, 4))
        pairs = list(itertools.combinations(names, 2))
        labels = data.draw(st.lists(st.none() | st.integers(1, delta),
                                    min_size=len(pairs), max_size=len(pairs)))
        base = EdgeLabelledGraph(names, delta, [(u, v, l) for (u, v), l in
                                                zip(pairs, labels) if l is not None])
        structure = base
        if data.draw(st.booleans()):
            valuations = st.tuples(st.integers(0, 1), st.integers(0, 1)).map(ValuationFunction)
            marks = data.draw(st.dictionaries(st.sampled_from(names),
                                              st.tuples(st.integers(1, 2), valuations)))
            mates = data.draw(st.dictionaries(st.sampled_from(names), st.sampled_from(names)))
            if marks or mates:
                structure = GammaLStructure(base, mates, marks)
        parity = None
        if pairs and data.draw(st.booleans()):
            parity = ParityFunction(data.draw(st.dictionaries(
                st.sampled_from(pairs), st.integers(0, 1), min_size=1)))
        descriptor = ClassDescriptor(3, 1) if delta == 3 and data.draw(st.booleans()) else None
        parsed = StructureFile(structure, descriptor, parity)
        if all(isinstance(v, str) and re.fullmatch(r"[A-Za-z0-9_'*+.-]+", v) for v in names):
            text = write_structure_text(parsed)
        else:
            try:
                text = write_structure_text(parsed)
            except FormatError:
                return
        back = read_structure_text(text)
        assert back.structure == structure
        assert back.descriptor == descriptor
        assert back.parity == parity
        assert write_structure_text(back) == text


class TestExitCodes:
    def test_validate_member(self):
        code, text = invoke("validate", "--delta", "3", "--K", "1",
                            fixture("quadruple.elg"))
        assert code == 0
        assert report_dict(text)["outcome"] == "member"

    def test_validate_non_member_names_the_triple(self):
        code, text = invoke("validate", "--delta", "3", "--K", "1",
                            fixture("bad-triangle.elg"))
        assert code == 1
        report = report_dict(text)
        assert report["outcome"] == "non-member"
        labels = sorted(report["violation.labels"].split(","))
        assert labels == ["1", "1", "3"]

    def test_complete_nonmetric_exits_three_with_witness(self):
        code, text = invoke("complete", "--mode", "shortest-path",
                            fixture("nonmetric.elg"))
        assert code == 3
        report = report_dict(text)
        assert report["outcome"] == "non-metric-cycle"
        assert sorted(report["witness.labels"].split(",")) == ["1", "1", "5"]

    def test_failed_internal_audit_exits_four(self, monkeypatch, capsys):
        import antipodal.valuations as valuations
        monkeypatch.setattr(valuations, "suitable_expansion_violations",
                            lambda *args, **kwargs: ["planted failure"])
        code, text = invoke("expand", "--delta", "3", "--K", "1",
                            fixture("quadruple.elg"))
        assert code == 4
        report = report_dict(text)
        assert report["outcome"] == "internal-error"
        assert report["error"] == \
            "internal: built expansion is not suitable: planted failure"
        assert report["exit"] == "4"
        assert capsys.readouterr().err == ""

    def test_unknown_flag_exits_two(self, capsys):
        code, _ = invoke("validate", "--nonsense", fixture("quadruple.elg"))
        assert code == 2

    def test_missing_k_exits_two(self, tmp_path):
        target = tmp_path / "bare.elg"
        target.write_text("elg 1\ndelta 3\nvertex a\n", encoding="utf-8")
        code, text = invoke("validate", str(target))
        assert code == 2
        assert report_dict(text)["outcome"] == "input-error"

    def test_incomplete_graph_exits_two(self):
        code, text = invoke("validate", "--delta", "3", "--K", "1",
                            fixture("edge3.elg"))
        # the lone edge is complete, so craft a partial file instead
        assert code == 0
        code, text = invoke("validate", "--delta", "3", "--K", "1",
                            fixture("two-edges-f.elg"))
        assert code == 2
        assert "completion" in report_dict(text)["error"]


class TestCommands:
    def test_complete_shortest_path_writes_output(self, tmp_path):
        out = tmp_path / "completed.elg"
        code, text = invoke("complete", "--mode", "shortest-path",
                            fixture("path22.elg"), "--out", str(out))
        assert code == 0
        got = read_structure_file(out)
        assert got.graph.dist("u", "w") == 4

    @pytest.mark.parametrize("header,labels,grown,delta", [
        ("delta 3\nK 1\n", (3, 3), True, 6),
        ("delta 4\nK 4\n", (3, 2), True, 5),
        ("delta 5\nK 2\n", (2, 2), False, 5),
    ])
    def test_complete_shortest_path_output_reads_back(self, tmp_path, header,
                                                      labels, grown, delta):
        source = tmp_path / "path.elg"
        source.write_text(
            f"elg 1\n{header}vertex u\nvertex v\nvertex w\n"
            f"edge u v {labels[0]}\nedge v w {labels[1]}\n", encoding="utf-8")
        out = tmp_path / "completed.elg"
        code, _ = invoke("complete", "--mode", "shortest-path", str(source),
                         "--out", str(out))
        assert code == 0
        got = read_structure_file(out)
        assert got.graph.delta == delta
        assert got.graph.dist("u", "w") == sum(labels)
        # K and the variant belong to the input's delta: kept with it, else dropped
        assert (got.descriptor is None) == grown
        if not grown:
            assert got.descriptor == read_structure_file(source).descriptor
            code, _ = invoke("validate", str(out))
            assert code in (0, 1)

    def test_complete_antipodal(self, tmp_path):
        out = tmp_path / "completed.elg"
        code, text = invoke("complete", "--mode", "antipodal",
                            fixture("two-edges-f.elg"), "--out", str(out))
        assert code == 0
        got = read_structure_file(out)
        assert got.graph.dist("u1", "u2") == 1
        assert got.graph.dist("u1", "v2") == 2

    def test_fold_unfold_cycle(self, tmp_path):
        folded_path = tmp_path / "folded.elg"
        code, _ = invoke("fold", fixture("quadruple.elg"), "--out", str(folded_path))
        assert code == 0
        doubled_path = tmp_path / "doubled.elg"
        code, _ = invoke("unfold", str(folded_path), "--delta", "3", "--K", "1",
                         "--out", str(doubled_path))
        assert code == 0
        got = read_structure_file(doubled_path)
        assert len(got.graph) == 4

    def test_close_adds_mates(self, tmp_path):
        bare = tmp_path / "vertex.elg"
        bare.write_text("elg 1\ndelta 3\nvertex a\n", encoding="utf-8")
        out = tmp_path / "closed.elg"
        code, text = invoke("close", str(bare), "--delta", "3", "--K", "1",
                            "--out", str(out))
        assert code == 0
        assert report_dict(text)["added"] == "1"
        assert read_structure_file(out).graph.dist("a", "a*") == 3

    def test_expand_emits_marks(self, tmp_path):
        out = tmp_path / "expanded.elg"
        code, _ = invoke("expand", fixture("quadruple.elg"), "--out", str(out))
        assert code == 0
        got = read_structure_file(out)
        assert isinstance(got.structure, GammaLStructure)
        assert got.structure.mark("u") is not None

    def test_extend_reports_psi_and_flips(self):
        code, text = invoke("extend", fixture("quad-expansion.elg"),
                            "--map", "u:w")
        assert code == 0
        report = report_dict(text)
        assert report["closure"] == "u:w,v:x"
        assert report["psi"] == "1:2,2:1"
        assert report["flips"] == "1,2;2,1"

    def test_verify_witness_ok(self):
        code, text = invoke("verify-witness", fixture("edge3.elg"),
                            fixture("quadruple.elg"))
        assert code == 0
        assert report_dict(text)["checked"] == "7"

    def test_verify_witness_failure(self):
        code, text = invoke("verify-witness", fixture("edge3.elg"),
                            fixture("bad-triangle.elg"))
        assert code == 1
        assert "counterexample" in report_dict(text)

    def test_search_witness(self, tmp_path):
        out = tmp_path / "witness.elg"
        code, text = invoke("search-witness", fixture("edge3.elg"),
                            "--bound", "4", "--out", str(out))
        assert code == 0
        assert report_dict(text)["outcome"] == "witness-found"

    def test_search_witness_bound_too_small(self, tmp_path):
        bare = tmp_path / "vertex.elg"
        bare.write_text("elg 1\ndelta 3\nK 1\nvertex a\n", encoding="utf-8")
        code, text = invoke("search-witness", str(bare), "--bound", "1")
        assert code == 3
        assert report_dict(text)["outcome"] == "no-witness-within-bound"

    @pytest.mark.parametrize("pipeline", [False, True])
    def test_search_witness_refuses_a_bound_below_the_input(self, pipeline):
        # both search paths refuse, instead of searching and finding nothing
        code, text = invoke("search-witness", fixture("edge3.elg"), "--bound", "0",
                            *(["--pipeline"] if pipeline else []))
        assert code == 2
        report = report_dict(text)
        assert report["outcome"] == "input-error"
        assert report["error"] == "witness search is bounded at 0 vertices"

    def test_gen_refuses_a_negative_size(self):
        code, text = invoke("gen", "--delta", "3", "--K", "1", "--size", "-4",
                            "--seed", "1")
        assert code == 2
        report = report_dict(text)
        assert report["outcome"] == "input-error"
        assert report["error"] == "member size must not be negative, got -4"

    def test_gen_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a.elg", tmp_path / "b.elg"
        code1, text1 = invoke("gen", "--delta", "3", "--K", "1", "--size", "6",
                              "--seed", "7", "--out", str(out1))
        code2, text2 = invoke("gen", "--delta", "3", "--K", "1", "--size", "6",
                              "--seed", "7", "--out", str(out2))
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        # the reports only differ in the output path
        assert [l for l in text1.splitlines() if not l.startswith("output\t")] == \
            [l for l in text2.splitlines() if not l.startswith("output\t")]

    def test_gen_produces_members(self, tmp_path):
        out = tmp_path / "member.elg"
        code, _ = invoke("gen", "--delta", "5", "--K", "2", "--size", "6",
                         "--seed", "11", "--out", str(out))
        assert code == 0
        code, _ = invoke("validate", str(out))
        assert code == 0

    def test_reports_are_deterministic(self):
        _, first = invoke("validate", "--delta", "3", "--K", "1",
                          fixture("quadruple.elg"))
        _, second = invoke("validate", "--delta", "3", "--K", "1",
                           fixture("quadruple.elg"))
        assert first == second
        assert "timing_ms" not in first

    def test_timing_is_opt_in(self):
        _, text = invoke("--timing", "validate", "--delta", "3", "--K", "1",
                         fixture("quadruple.elg"))
        assert "timing_ms" in text
