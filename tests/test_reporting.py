import json

from hypothesis import given, settings
from hypothesis import strategies as st

from matchext import complete_graph, is_nk_extendable, verify_theorem2
from matchext.cli import main
from matchext.families import build_h1
from matchext.reporting import graph_info, report_to_dict, reports_document, to_json, verdict_document


def verdict_json(verdict, **context):
    return to_json(verdict_document(verdict, command="check", **context))


class TestEmitVerdictJson:
    def test_positive_verdict(self):
        g = complete_graph(4)
        verdict = is_nk_extendable(g, 0, 1)
        text = verdict_json(verdict, n=0, k=1, graph=graph_info(g))
        doc = json.loads(text)
        assert doc["schema"] == "matchext/1"
        assert doc["holds"] is True
        assert doc["failure"] is None
        assert text.startswith('{\n  "schema": "matchext/1"')

    def test_failure_embeds_tutte(self):
        fam = build_h1(2, 0)
        verdict = is_nk_extendable(fam.graph, 2, 2)
        doc = json.loads(verdict_json(verdict, n=2, k=2, graph=graph_info(fam.graph, "h1:2:0")))
        assert doc["failure"]["kind"] == "STUCK_MATCHING"
        assert doc["failure"]["tutte"]["excess"] == 2
        assert doc["graph"]["source"] == "h1:2:0"

    def test_theorem_report(self):
        report = verify_theorem2(complete_graph(6), 0, 0)
        doc = json.loads(to_json(reports_document([report])))
        assert doc["schema"] == "matchext/1"
        assert doc["reports"][0]["status"] == "CONFIRMED"

    def test_verify_rows_equal_json_dumps(self):
        # verify's rows take census's path: render_row, spliced by to_json.
        fam = build_h1(1, 0)
        reports = [verify_theorem2(fam.graph, 1, 0), verify_theorem2(complete_graph(6), 0, 0)]
        for rows in (reports, []):
            built = {**reports_document(rows), "reports": [report_to_dict(r) for r in rows]}
            assert to_json(reports_document(rows)) == json.dumps(built, indent=2) + "\n"

    def test_deterministic_bytes(self):
        g = complete_graph(6)
        one = verdict_json(is_nk_extendable(g, 0, 1), n=0, k=1, graph=graph_info(g))
        two = verdict_json(is_nk_extendable(g, 0, 1), n=0, k=1, graph=graph_info(g))
        assert one == two


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=40,
)


class TestJsonWriter:
    @settings(max_examples=150, deadline=None)
    @given(JSON_VALUES)
    def test_same_bytes_as_json_dumps(self, value):
        assert to_json(value) == json.dumps(value, indent=2) + "\n"

    def test_tuples_non_ascii_and_scalar_keys(self):
        value = {"t": (1, ("x", 2.5)), "é": ["\u2603", "\x00"], "e": {}, "l": []}
        value.update({1: "i", 2.5: "f", False: "b", None: "n"})
        assert to_json(value) == json.dumps(value, indent=2) + "\n"


class TestCliDiagnostics:
    def test_missing_corpus_file_exit_2(self, capsys):
        code = main(["census", "--graph-file", "/nonexistent/x.g6", "--theorems", "L1"])
        capsys.readouterr()
        assert code == 2

    def test_log_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("MATCHEXT_LOG", "info")
        code = main(["check", "--n", "0", "--k", "0", "--graph", "A_"])
        capsys.readouterr()
        assert code == 0
