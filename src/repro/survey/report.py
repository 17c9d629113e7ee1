"""Report generators regenerating the paper's §2 tables."""

from __future__ import annotations

from typing import List

from ..testsuite.questions import (
    CATEGORIES, QUESTIONS, category_counts, clarity_split,
)
from .data import EXPERTISE, RESPONSES_TOTAL, SURVEY_15


def expertise_table() -> str:
    """The respondent-expertise table of §2."""
    lines = [f"2015 survey: {RESPONSES_TOTAL} responses"]
    for label, count in EXPERTISE:
        lines.append(f"{label:45s} {count:4d}")
    return "\n".join(lines)


def survey_question_table(ref: str) -> str:
    """One survey question's response table ([n/15])."""
    q = SURVEY_15[ref]
    lines = [f"{q.ref} ({q.question_id}) — {q.topic}", q.prompt]
    for o in q.options:
        lines.append(f"  {o.label:60s} {o.count:4d} ({o.percent}%)")
    if q.extant_prompt:
        lines.append(q.extant_prompt)
        for o in q.extant_options:
            lines.append(f"  {o.label:60s} {o.count:4d} "
                         f"({o.percent}%)")
    return "\n".join(lines)


def design_space_table() -> str:
    """The 22-category question table of §2 (85 questions; the printed
    counts sum to 86 due to one cross-listing)."""
    counts = category_counts()
    lines = []
    for cat in CATEGORIES:
        lines.append(f"{cat:58s} {counts[cat]:3d}")
    lines.append(f"{'(unique questions)':58s} {len(QUESTIONS):3d}")
    return "\n".join(lines)


def clarity_table() -> str:
    """The ISO-unclear / de-facto-unclear / divergence split of §2."""
    iso, df, div = clarity_split()
    return "\n".join([
        f"for {iso} the ISO standard is unclear",
        f"for {df} the de facto standards are unclear",
        f"for {div} there are significant differences between the "
        f"ISO and the de facto standards",
    ])


def all_survey_refs() -> List[str]:
    return sorted(SURVEY_15)
