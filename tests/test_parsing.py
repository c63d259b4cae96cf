"""Answer extraction against the frozen hand-labeled corpus."""

import json
import random
import re
from pathlib import Path

import pytest

from medharness.parsing import (_ANSWER_HEADING_RE, _ANSWER_IS_RE, INVALID, extract_answer,
                                extract_explanation)

CASES_PATH = Path(__file__).parent / "fixtures" / "parser_cases.json"


def load_cases():
    doc = json.loads(CASES_PATH.read_text(encoding="utf-8"))
    return doc["cases"]


CASES = load_cases()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_frozen_case(case):
    expected = case["expected"] if case["expected"] is not None else INVALID
    word_tokens = dict(case["word_tokens"]) if case.get("word_tokens") else None
    assert extract_answer(case["raw"], tuple(case["labels"]), word_tokens) == expected


def test_corpus_is_large_enough():
    labeled = [c for c in CASES if c["expected"] is not None]
    garbage = [c for c in CASES if c.get("garbage")]
    assert len(labeled) >= 20
    assert len(garbage) >= 5
    assert all(c["expected"] is None for c in garbage)


def test_empty_and_whitespace_are_invalid():
    assert extract_answer("", ("A", "B", "C", "D")) == INVALID
    assert extract_answer("   \n\t ", ("A", "B", "C", "D")) == INVALID


def test_labels_outside_the_presented_set_never_returned():
    raw = "### Answer: E"
    assert extract_answer(raw, ("A", "B", "C", "D")) == INVALID


class TestExplanationExtraction:
    def test_between_headings(self):
        raw = ("### Explanation: The phrenic nerve arises from C3 to C5.\n"
               "It supplies the diaphragm.\n"
               "### Answer: (B) Phrenic nerve")
        expl = extract_explanation(raw)
        assert expl.startswith("The phrenic nerve")
        assert expl.endswith("the diaphragm.")
        assert "Answer" not in expl

    def test_without_heading_takes_prefix(self):
        raw = "Reasoning sentence one. Reasoning sentence two.\n### Answer: A"
        assert extract_explanation(raw) == "Reasoning sentence one. Reasoning sentence two."

    def test_answer_only_yields_empty(self):
        assert extract_explanation("### Answer: B") == ""


class PerPatternOracle:
    """Answer extraction as it was written before each rule became one
    alternation: every pattern searched on its own, the earliest start kept,
    and on a tie the pattern listed first. `ties` counts the searches where
    two patterns of different labels matched at the earliest start."""

    def __init__(self):
        self.ties = 0

    @staticmethod
    def patterns(labels, words):
        bare_words = [(re.compile(rf"(?i)(?<![A-Za-z]){re.escape(w)}(?![A-Za-z])"), label)
                      for w, label in words]
        tokens = [(re.compile(rf"(?<![A-Za-z0-9]){re.escape(label)}(?![A-Za-z0-9])"), label)
                  for label in labels] + bare_words
        parenthesized = [(re.compile(rf"\({re.escape(label)}\)"), label) for label in labels] + [
            (re.compile(rf"(?i)\({re.escape(w)}\)"), label) for w, label in words]
        bare_lines = [(re.compile(rf"\(?{re.escape(label)}\)?[.:]?"), label) for label in labels] + [
            (re.compile(rf"(?i)\(?{re.escape(w)}\)?[.:]?"), label) for w, label in words]
        return tokens, parenthesized, bare_lines, bare_words

    def earliest(self, span, patterns):
        best = None
        for pattern, label in patterns:
            m = pattern.search(span)
            if m and best is not None and m.start() == best[0] and label != best[1]:
                self.ties += 1
            if m and (best is None or m.start() < best[0]):
                best = (m.start(), label)
        return best

    def extract_answer(self, raw, labels, word_tokens=None):
        tokens, parenthesized, bare_lines, bare_words = self.patterns(
            labels, list((word_tokens or {}).items()))
        headings = list(_ANSWER_HEADING_RE.finditer(raw))
        if headings:
            found = set()
            for i, m in enumerate(headings):
                end = headings[i + 1].start() if i + 1 < len(headings) else len(raw)
                hit = self.earliest(raw[m.end():end], tokens)
                if hit:
                    found.add(hit[1])
            if len(found) > 1:
                return INVALID
            if found:
                return found.pop()
        for m in _ANSWER_IS_RE.finditer(raw):
            newline = raw.find("\n", m.end())
            hit = self.earliest(raw[m.end():newline if newline != -1 else len(raw)], tokens)
            if hit:
                return hit[1]
        hit = self.earliest(raw, parenthesized)
        if hit:
            return hit[1]
        for line in raw.splitlines():
            stripped = line.strip()
            for pattern, label in bare_lines if stripped else ():
                if pattern.fullmatch(stripped):
                    return label
        if bare_words:
            hit = self.earliest(raw, bare_words)
            if hit:
                return hit[1]
        return INVALID


# (labels, word tokens): 4- and 5-letter sets, PubMedQA's words in canonical
# and shuffled order, and word sets that match where a label or another word
# does, so some searches see several patterns at one position.
LABEL_SETS = [
    (("A", "B", "C", "D"), None),
    (("A", "B", "C", "D", "E"), None),
    (("A", "B", "C"), {"yes": "A", "no": "B", "maybe": "C"}),
    (("A", "B", "C"), {"maybe": "A", "yes": "B", "no": "C"}),
    (("A", "B", "C", "D"), {"a": "B", "b": "A", "yes": "C"}),
    (("A", "B", "C"), {"yes": "A", "YES": "B", "no": "C"}),
]

FRAGMENTS = [
    "Answer:", "### Answer:", "**Final answer**:", "The correct answer:", "answer is",
    "The answer is", "### Explanation:", "A", "B", "C", "D", "E", "(A)", "(B)", "(e)",
    "C.", "D:", "(C).", "a", "b", "B12", "C3-C5", "A1", "yes", "No", "(maybe)", "MAYBE.",
    "(Yes)", "yes-no", "noted", "maybe:", "because", "option", "likely", "the", ",",
]


def seeded_outputs(n, seed=2402):
    rng = random.Random(seed)
    for _ in range(n):
        parts = rng.choices(FRAGMENTS, k=rng.randint(1, 10))
        text = "".join(part + rng.choice([" ", " ", "\n", "", ". ", "  \n"]) for part in parts)
        yield text.strip() if rng.random() < 0.5 else text


def test_one_alternation_per_rule_equals_the_per_pattern_scan():
    oracle = PerPatternOracle()
    compared = 0
    for i, raw in enumerate(seeded_outputs(5000)):
        labels, words = LABEL_SETS[i % len(LABEL_SETS)]
        assert extract_answer(raw, labels, words) == oracle.extract_answer(raw, labels, words), \
            (raw, labels, words)
        compared += 1
    assert compared == 5000
    assert oracle.ties >= 100


@pytest.mark.parametrize("raw, labels, words, expected", [
    # A label and a word at one position: the label is listed first.
    ("Answer: A", ("A", "B", "C", "D"), {"a": "B"}, "A"),
    ("Answer: a", ("A", "B", "C", "D"), {"a": "B"}, "B"),
    ("(A)", ("A", "B", "C", "D"), {"a": "B"}, "A"),
    # Two words at one position: the word listed first.
    ("the answer is YES", ("A", "B", "C"), {"yes": "A", "YES": "B"}, "A"),
    ("YES", ("A", "B", "C"), {"YES": "B", "yes": "A"}, "B"),
])
def test_same_position_matches_go_to_the_pattern_listed_first(raw, labels, words, expected):
    assert extract_answer(raw, labels, words) == expected
    assert PerPatternOracle().extract_answer(raw, labels, words) == expected
