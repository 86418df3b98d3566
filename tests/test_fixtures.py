import shutil

import pytest

from arbormat import invariant_factors, reduce_mod, zp_similarity
from arbormat.errors import FixtureMissing
from arbormat.fixtures import (
    FIGURE_IDS,
    check_fixture,
    default_fixture_dir,
    load_fixture,
    reconstruct_instance,
)

FIGURE_1A_PRINTED = (
    (0, -1, 0, 0, 0),
    (0, -1, -1, 0, -1),
    (0, 1, 1, 1, 0),
    (-1, 0, -1, -1, 0),
    (0, 0, 0, -1, 0),
)


class TestLoading:
    def test_all_figures_present(self):
        for figure in FIGURE_IDS:
            fix = load_fixture(figure)
            assert fix.n in (5, 11)
            assert len(fix.caption_charpoly.coeffs) == fix.n + 1

    def test_bit_exact_reemission(self):
        assert load_fixture("1a").oriented.rows == FIGURE_1A_PRINTED

    def test_missing(self):
        with pytest.raises(FixtureMissing):
            load_fixture("9z")

    def test_directory_override(self, tmp_path):
        shutil.copy(default_fixture_dir() / "figure1a.txt", tmp_path / "figure1a.txt")
        assert load_fixture("1a", tmp_path).oriented.rows == FIGURE_1A_PRINTED
        with pytest.raises(FixtureMissing):
            load_fixture("1b", tmp_path)

    def test_edge_order_line_is_accepted(self, tmp_path):
        for figure in ("1a", "4"):
            text = (default_fixture_dir() / f"figure{figure}.txt").read_text()
            with_line = text.replace("\nn 5\n", "\nn 5\nedge_order 1-2,2-3,3-4,4-5,5-6\n", 1)
            assert "edge_order" not in text and "edge_order" in with_line
            (tmp_path / f"figure{figure}.txt").write_text(with_line)
            fixture = load_fixture(figure, tmp_path)
            assert fixture == load_fixture(figure)
            assert check_fixture(fixture) == check_fixture(load_fixture(figure))


class TestChecks:
    def test_all_panels_pass(self):
        for figure in FIGURE_IDS:
            checks = check_fixture(load_fixture(figure))
            assert all(checks.values()), (figure, checks)

    def test_figure4_sections(self):
        fix = load_fixture("4")
        assert fix.row_ops is not None and fix.unoriented_printed is not None
        checks = check_fixture(fix)
        assert checks["printed_product_identity"]
        assert checks["printed_unoriented_is_abs"]

    def test_caption_mismatch_fails_its_check(self, tmp_path):
        text = (default_fixture_dir() / "figure1a.txt").read_text()
        corrupted = text.replace(
            "unoriented_charpoly 1 -3 1 1 -3 1",
            "unoriented_charpoly 1 -3 1 1 -3 -1",
        )
        (tmp_path / "figure1a.txt").write_text(corrupted)
        checks = check_fixture(load_fixture("1a", tmp_path))
        assert not checks["unoriented_charpoly_caption"]
        assert all(ok for name, ok in checks.items() if name != "unoriented_charpoly_caption")


class TestPanelPairs:
    def test_2a_unoriented_determinant_is_odd(self):
        det = load_fixture("2a").oriented.abs().determinant()
        assert det % 2 == 1

    def test_1a_1f_gf2_similar_gf3_not(self):
        a = load_fixture("1a").oriented.abs()
        f = load_fixture("1f").oriented.abs()
        assert zp_similarity(a, f, 2)
        assert not zp_similarity(a, f, 3)
        assert invariant_factors(reduce_mod(a, 3)) != invariant_factors(reduce_mod(f, 3))


class TestReconstruction:
    def test_five_by_five_panels_reconstruct(self):
        for figure in ("1a", "1f", "4"):
            recs = reconstruct_instance(load_fixture(figure))
            assert recs, figure

    def test_1a_pinned_seed_charpoly(self):
        # the recorded witness polynomial x^5 - x^4 - x + 1 must arise for
        # some coprime seed path of a reconstructed instance (the printed
        # panel carries no vertex labels, so matching is up to relabeling)
        recs = reconstruct_instance(load_fixture("1a"), max_results=8)
        pinned = [1, -1, 0, 0, -1, 1]
        assert any(pinned in r["seed_charpolys"] for r in recs)
