import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from arbormat import cli
from test_harness import inject_failures


SCHEMA = json.loads(
    (Path(cli.__file__).parent / "schemas" / "output.schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc, err


def leaves(value):
    """Every leaf of a JSON document."""
    if isinstance(value, dict):
        return [leaf for x in value.values() for leaf in leaves(x)]
    if isinstance(value, list):
        return [leaf for x in value for leaf in leaves(x)]
    return [value]


@pytest.mark.parametrize("bound", [1, 7])
def test_flush_bound_leaves_injected_runs_unchanged(capsys, monkeypatch, bound):
    """The injected-failure runs of verify and search-detmf print the same
    documents, counts and exit codes whether the queued direct rows are
    decided once ``bound`` rows wait or in one call."""
    import re

    from arbormat import certificate

    runs = [("theorem", ["verify", "--n", "4", "--orientations", "all"]),
            ("det", ["search-detmf", "--n", "4"])]

    def outputs():
        out = []
        for sweep, argv in runs:
            with monkeypatch.context() as m:
                inject_failures(m, sweep)
                code, stdout, err = run_cli(capsys, *argv)
            out.append((code, stdout, re.sub(r" in [0-9.]+s,", " in Xs,", err)))
        return out

    want = outputs()
    assert [code for code, _, _ in want] == [1, 0]
    monkeypatch.setattr(certificate, "FLUSH_ROWS", bound)
    assert outputs() == want


class TestAnalyze:
    def test_hand_instance(self, capsys):
        code, doc, _ = run_json(
            capsys, "analyze", "--tree", "1-2,2-3", "--map", "2,3,1", "--orientation", "00"
        )
        assert code == 0
        assert doc["matrices"]["oriented"] == [["0", "1"], ["-1", "-1"]]
        assert doc["charpolys"]["oriented"] == ["1", "1", "1"]
        assert doc["determinants"]["oriented"] == "1"
        assert all(v in ("pass", "not_applicable") for v in doc["claims"].values())
        assert doc["witness"]["matrix"] == [["1", "0"], ["0", "1"]]

    def test_cycle_notation_and_default_orientation(self, capsys):
        code, doc, _ = run_json(capsys, "analyze", "--tree", "1-2,2-3", "--map", "(1 2 3)")
        assert code == 0
        assert doc["instance"]["orientation"] == "00"

    def test_not_single_cycle_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--tree", "1-2,2-3", "--map", "1,3,2")
        assert code == 2
        assert "cycle" in err

    def test_orientation_length_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--tree", "1-2,2-3", "--map", "2,3,1", "--orientation", "000"
        )
        assert code == 2

    def test_malformed_tree_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--tree", "zzz", "--map", "2,3,1")
        assert code == 2

    HAND = ("analyze", "--tree", "1-2,1-3", "--map", "2,3,1")

    def test_failed_matrix_claim_exit_1(self, capsys, monkeypatch):
        from arbormat import theorems

        monkeypatch.setattr(theorems, "geometric_sum_is_zero", lambda a: False)
        code, doc, _ = run_json(capsys, *self.HAND)
        assert code == 1
        assert [k for k, v in doc["claims"].items() if v == "fail"] == ["geometric_sum_zero"]
        assert doc["witness"] is not None

    def test_failed_witness_is_null(self, capsys, monkeypatch):
        from arbormat import theorems
        from arbormat.errors import WitnessFailed

        def fail(*args):
            raise WitnessFailed("det(Mf) is odd", None)

        monkeypatch.setattr(theorems, "basis_witness", fail)
        code, doc, _ = run_json(capsys, *self.HAND, "--all-witnesses")
        assert code == 1
        assert [k for k, v in doc["claims"].items() if v == "fail"] == ["basis_witness"]
        assert doc["witness"] is None

    def test_failed_split_sign_exit_1(self, capsys, monkeypatch):
        from arbormat import theorems
        from arbormat.errors import WitnessFailed

        def fail(f, orientation):
            raise WitnessFailed("row operations rebuild the oriented matrix", None)

        monkeypatch.setattr(theorems, "split_sign_check", fail)
        code, doc, _ = run_json(capsys, *self.HAND)
        assert code == 1
        assert [k for k, v in doc["claims"].items() if v == "fail"] == ["split_sign"]
        assert doc["claims"]["uniform_sign"] == "not_applicable"


class TestEnumerate:
    def test_counts(self, capsys):
        code, doc, _ = run_json(capsys, "enumerate", "--vertices", "6")
        assert code == 0
        assert doc["count"] == "6"
        assert len(doc["trees"]) == 6

    def test_cap(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--vertices", "99")
        assert code == 2

    def test_cap_messages(self, capsys, monkeypatch):
        """The command line bounds the vertex count at ARBOR_CAP_N + 1 and
        leaves fewer than 3 vertices to the enumeration's own check."""
        assert run_cli(capsys, "enumerate", "--vertices", "12") == (
            2, "", "error: vertex count 12 exceeds cap 11\n"
        )
        assert run_cli(capsys, "enumerate", "--vertices", "2") == (
            2, "", "error: tree enumeration starts at 3 vertices\n"
        )
        monkeypatch.setenv("ARBOR_CAP_N", "12")
        assert run_cli(capsys, "enumerate", "--vertices", "14") == (
            2, "", "error: vertex count 14 exceeds cap 13\n"
        )

    def test_env_cap_raises_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("ARBOR_CAP_N", "12")
        code, doc, _ = run_json(capsys, "enumerate", "--vertices", "12")
        assert code == 0
        assert doc["count"] == "551"


class TestVerify:
    def test_small_sweep(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--n", "2..3", "--orientations", "all")
        assert code == 0
        assert doc["all_pass"] is True
        assert doc["per_n"]["2"]["instances"] == "8"
        assert doc["per_n"]["3"]["instances"] == "96"

    def test_failure_records_have_string_leaves(self, capsys, monkeypatch):
        # transport refused and the geometric sum failed on the marked rows
        inject_failures(monkeypatch, "theorem")
        code, doc, _ = run_json(capsys, "verify", "--n", "4", "--orientations", "all")
        assert code == 1
        assert doc["all_pass"] is False
        assert "geometric_sum_zero" in doc["failures"][0]["claims"]
        assert all(isinstance(leaf, (str, bool)) for leaf in leaves(doc))

    def test_stderr_reports_quotient_split(self, capsys):
        # n = 2, 3: 1 + 2 trees, 2 and 6 cycles, 4 and 8 orientations
        code, _, err = run_cli(capsys, "verify", "--n", "2..3", "--orientations", "all")
        assert code == 0
        assert err.startswith("verify: 104 instances in ")
        assert err.rstrip().endswith("(14 computed, 90 derived, 0 certificate fallbacks)")

    def test_stderr_reports_transport_split(self, capsys):
        # n = 4: 3 trees x 24 cycles on orientation 0, each chunk 16 audited
        # rows and 8 certified; 15 more orientations derived
        code, _, err = run_cli(capsys, "verify", "--n", "4", "--orientations", "all")
        assert code == 0
        assert err.startswith("verify: 1152 instances in ")
        assert err.rstrip().endswith(
            ", 24 certified, 48 audited, 0 uncertified, 0 audit disagreements "
            "(72 computed, 1080 derived, 0 certificate fallbacks)"
        )

    def test_cap_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "12")
        assert code == 2
        assert "cap" in err

    def test_sweep_limit_checked_before_enumeration(self, capsys, monkeypatch):
        from arbormat import harness

        def no_trees(v):
            raise AssertionError(f"trees on {v} vertices enumerated")

        monkeypatch.setattr(harness, "trees_for", no_trees)
        monkeypatch.setenv("ARBOR_CAP_N", "12")
        code, out, err = run_cli(capsys, "verify", "--n", "11", "--orientations", "canonical")
        assert code == 2
        assert out == ""
        assert "sweep limit of n <= 10" in err

    def test_env_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ARBOR_CAP_N", "2")
        code, _, err = run_cli(capsys, "verify", "--n", "3")
        assert code == 2

    def test_sweep_limit_error_gives_no_env_advice(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n", "12")
        assert code == 2
        assert out == ""
        assert "sweep limit of n <= 10" in err
        assert "ARBOR_CAP_N" not in err

    @pytest.mark.parametrize("command", ["verify", "search-detmf"])
    def test_env_cap_checked_before_enumeration(self, capsys, monkeypatch, command):
        from arbormat import harness

        def no_trees(v):
            raise AssertionError(f"trees on {v} vertices enumerated")

        monkeypatch.setattr(harness, "trees_for", no_trees)
        monkeypatch.setenv("ARBOR_CAP_N", "5")
        code, out, err = run_cli(capsys, command, "--n", "2..6")
        assert code == 2
        assert out == ""
        assert "ARBOR_CAP_N = 5" in err

    def test_env_cap_below_the_sweep_limit(self, capsys, monkeypatch):
        # n = 10 is within the sweep limit, so the environment cap refuses it
        from arbormat import harness

        def no_trees(v):
            raise AssertionError(f"trees on {v} vertices enumerated")

        monkeypatch.setattr(harness, "trees_for", no_trees)
        monkeypatch.setenv("ARBOR_CAP_N", "9")
        code, out, err = run_cli(capsys, "verify", "--n", "10", "--orientations", "canonical")
        assert (code, out) == (2, "")
        assert "n = 10 exceeds the cap ARBOR_CAP_N = 9" in err

    def test_byte_determinism_across_workers(self, tmp_path):
        paths = []
        for idx, workers in enumerate((1, 2, 2)):
            out = tmp_path / f"run{idx}.json"
            code = cli.main(
                [
                    "verify", "--n", "2..4", "--orientations", "sample:4",
                    "--seed", "7", "--workers", str(workers), "--out", str(out),
                ]
            )
            assert code == 0
            paths.append(out.read_bytes())
        assert paths[0] == paths[1] == paths[2]

    def test_sampled_orientations_byte_identical_across_workers(self, tmp_path):
        """16 sampled orientations per tree, repeats of 0 among them, folded
        per task: the same bytes whichever worker takes a tree."""
        docs = []
        for workers in (1, 2):
            out = tmp_path / f"workers{workers}.json"
            argv = ["verify", "--n", "6", "--orientations", "sample:16", "--seed", "7",
                    "--workers", str(workers), "--out", str(out)]
            assert cli.main(argv) == 0
            docs.append(out.read_bytes())
        assert docs[0] == docs[1]


class TestReproduce:
    def test_single_figure(self, capsys):
        code, doc, _ = run_json(capsys, "reproduce", "--figure", "1a")
        assert code == 0
        assert doc["all_match"] is True
        assert doc["figures"]["1a"]["unoriented_charpoly"] == ["1", "-3", "1", "1", "-3", "1"]

    def test_all_figures(self, capsys):
        code, doc, _ = run_json(capsys, "reproduce")
        assert code == 0
        assert set(doc["figures"]) == {
            "1a", "1b", "1c", "1d", "1e", "1f", "2a", "2b", "3a", "3b", "4",
        }
        assert doc["figures"]["4"]["checks"]["printed_product_identity"] is True

    def test_figure_3b_caption(self, capsys):
        code, doc, _ = run_json(capsys, "reproduce", "--figure", "3b")
        assert code == 0
        assert doc["figures"]["3b"]["unoriented_charpoly"] == [
            "1", "1", "-3", "-5", "-5", "1", "5", "11", "3", "-7", "-1", "1",
        ]

    def test_reconstruct_flag(self, capsys):
        code, doc, _ = run_json(capsys, "reproduce", "--figure", "1a", "--reconstruct")
        assert code == 0
        recs = doc["figures"]["1a"]["reconstructions"]
        assert recs and all(
            set(r) >= {"tree", "map", "orientation", "seed_charpolys"} for r in recs
        )

    def test_corrupted_fixture_exit_1(self, capsys, tmp_path):
        from arbormat.fixtures import default_fixture_dir

        text = (default_fixture_dir() / "figure1a.txt").read_text()
        (tmp_path / "figure1a.txt").write_text(
            text.replace("unoriented_charpoly 1 -3 1 1 -3 1",
                         "unoriented_charpoly 1 -3 1 1 -3 -1")
        )
        code, doc, err = run_json(
            capsys, "reproduce", "--figure", "1a", "--fixtures", str(tmp_path)
        )
        assert code == 1
        assert doc["all_match"] is False
        assert "mismatch" in err

    def test_corrupted_fixture_stderr_line(self, capsys, tmp_path):
        from arbormat.fixtures import default_fixture_dir

        text = (default_fixture_dir() / "figure1a.txt").read_text()
        (tmp_path / "figure1a.txt").write_text(
            text.replace("unoriented_charpoly 1 -3 1 1 -3 1",
                         "unoriented_charpoly 1 -3 1 1 -3 -1")
        )
        code, doc, err = run_json(
            capsys, "reproduce", "--figure", "1a", "--fixtures", str(tmp_path)
        )
        assert code == 1
        assert doc["figures"]["1a"]["checks"]["unoriented_charpoly_caption"] is False
        assert err == (
            "caption mismatch: figure 1a: computed ['1', '-3', '1', '1', '-3', '1'] "
            "vs recorded ['1', '-3', '1', '1', '-3', '-1']\n"
        )

    def test_every_mismatching_figure_is_named(self, capsys, tmp_path):
        import shutil

        from arbormat.fixtures import default_fixture_dir

        for path in default_fixture_dir().glob("figure*.txt"):
            shutil.copy(path, tmp_path)
        for name, old, new in [
            ("figure1b.txt", "-1 1 -3 -3 -1 1", "-1 1 -3 -3 -1 -1"),
            ("figure1a.txt", "1 -3 1 1 -3 1", "1 -3 1 1 -3 -1"),
        ]:
            path = tmp_path / name
            path.write_text(path.read_text().replace(f"unoriented_charpoly {old}",
                                                     f"unoriented_charpoly {new}"))
        code, doc, err = run_json(capsys, "reproduce", "--fixtures", str(tmp_path))
        assert code == 1
        assert [f for f, e in doc["figures"].items() if not e["match"]] == ["1a", "1b"]
        assert err == (
            "caption mismatch: figure 1a: computed ['1', '-3', '1', '1', '-3', '1'] "
            "vs recorded ['1', '-3', '1', '1', '-3', '-1']\n"
            "caption mismatch: figure 1b: computed ['-1', '1', '-3', '-3', '-1', '1'] "
            "vs recorded ['-1', '1', '-3', '-3', '-1', '-1']\n"
        )

    def test_missing_fixture_dir_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "reproduce", "--figure", "1a", "--fixtures", str(tmp_path / "nope")
        )
        assert code == 2


class TestSearchDetmf:
    def test_small(self, capsys):
        code, doc, _ = run_json(capsys, "search-detmf", "--n", "2..3")
        assert code == 0
        assert doc["all_odd"] is True
        assert set(doc["histogram"]) == {"1"}

    def test_stderr_summary(self, capsys):
        # canonical only: 2 + 12 instances, 6 and 8 coprime (i, j) pairs each
        code, doc, err = run_json(capsys, "search-detmf", "--n", "2..3")
        assert code == 0
        assert sum(int(c) for c in doc["histogram"].values()) == 108
        assert err.startswith("search-detmf: 108 witnesses in ")
        assert err.rstrip().endswith("(14 computed, 0 derived, 0 certificate fallbacks)")

    def test_stderr_reports_transport_split(self, capsys):
        # chunks of 2 and 6 cycles (n = 2, 3) are audited whole; the three
        # 24-cycle chunks of n = 4 audit 16 rows and certify 8
        code, _, err = run_cli(capsys, "search-detmf", "--n", "2..4")
        assert code == 0
        assert err.startswith("search-detmf: 1548 witnesses in ")
        assert err.rstrip().endswith(
            ", 24 certified, 62 audited, 0 uncertified, 0 audit disagreements "
            "(86 computed, 0 derived, 0 certificate fallbacks)"
        )

    def test_paths_only(self, capsys):
        code, doc, _ = run_json(
            capsys, "search-detmf", "--n", "2..4", "--paths-only"
        )
        assert code == 0
        assert doc["all_unit"] is True

    def test_nonunit_records_have_string_leaves(self, capsys, monkeypatch):
        # transport refused and |det Mf| tripled on the marked rows, which
        # n = 4 has and n = 3 has not (see test_harness.marked)
        inject_failures(monkeypatch, "det")
        code, doc, _ = run_json(capsys, "search-detmf", "--n", "4")
        assert code == 0
        assert set(doc["histogram"]) == {"1", "3"}
        assert doc["all_odd"] is True and doc["all_unit"] is False
        assert doc["nonunit_witnesses"]
        assert {r["abs_det"] for r in doc["nonunit_witnesses"]} == {"3"}
        assert all(isinstance(leaf, (str, bool)) for leaf in leaves(doc))

    def test_seed_rerun_identical(self, tmp_path):
        outs = []
        for idx in range(2):
            out = tmp_path / f"d{idx}.json"
            code = cli.main(
                ["search-detmf", "--n", "2..3", "--orientations", "sample:3",
                 "--seed", "7", "--out", str(out)]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestOutput:
    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "doc.json"
        code = cli.main(["enumerate", "--vertices", "4", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, SCHEMA)
        assert doc["count"] == "2"

    def test_integers_become_strings_at_emit(self, capsys):
        doc = {1: [np.int64(-2), True, (3, "x")], "k": {np.int32(4): False, "n": None}}
        cli._emit(doc, None)
        assert json.loads(capsys.readouterr().out) == {
            "1": ["-2", True, ["3", "x"]], "k": {"4": False, "n": None}
        }

    def test_usage_error(self, capsys):
        assert cli.main(["bogus"]) == 2
        assert cli.main([]) == 2
