"""Unit tests for the ranked-answer report renderer."""

from __future__ import annotations

import pytest

from repro.core import Charles
from repro.viz import render_advice
from repro.viz.report import render_answer, render_answer_list, render_context


@pytest.fixture(scope="module")
def advice(voc_table):
    advisor = Charles(voc_table)
    return advisor.advise(["type_of_boat", "departure_harbour", "tonnage"], max_answers=4)


class TestRenderContext:
    def test_lists_every_context_predicate(self, advice):
        text = render_context(advice)
        assert "type_of_boat:" in text
        assert "departure_harbour:" in text
        assert "tonnage:" in text

    def test_reports_database_operations(self, advice):
        assert "database operations" in render_context(advice)


class TestRenderAnswerList:
    def test_one_line_per_answer(self, advice):
        lines = render_answer_list(advice).splitlines()
        assert len(lines) == len(advice.answers) + 1

    def test_lines_mention_rank_and_entropy(self, advice):
        text = render_answer_list(advice)
        assert "#1" in text
        assert "E=" in text


class TestRenderAnswer:
    def test_pie_style(self, advice):
        text = render_answer(advice.best(), style="pie")
        assert "pie:" in text

    def test_treemap_style(self, advice):
        text = render_answer(advice.best(), style="treemap", width=30, height=6)
        assert "%" in text

    def test_table_style(self, advice):
        text = render_answer(advice.best(), style="table")
        assert "Segmentation on" in text


class TestRenderAdvice:
    def test_contains_all_three_panels(self, advice):
        text = render_advice(advice)
        assert "context:" in text
        assert "ranked answers" in text
        assert "selected answer" in text

    def test_selected_index_is_clamped(self, advice):
        text = render_advice(advice, selected=99)
        assert f"selected answer #{advice.answers[-1].rank}" in text

    def test_max_answers_truncates_list(self, advice):
        full = render_answer_list(advice)
        truncated = render_advice(advice, max_answers=1)
        assert "#2" in full
        assert "#2 " not in truncated

    def test_style_is_forwarded(self, advice):
        assert "pie:" in render_advice(advice, style="pie")
        assert "pie:" not in render_advice(advice, style="table")
