"""Byte-exact prompt assembly for every rung of the prompting ladder.

Target-model prompts follow one template: an instruction block, zero or five
exemplar blocks, then the test question block, with one blank line between
blocks. Exemplar blocks are

    ### Question: {question} {options}
    ### Explanation: {chain of thought}     <- chain-of-thought stages only
    ### Answer: {correct answer}

and the test block repeats the question line and ends exactly at the
stage's sentinel ("### Explanation:" for chain-of-thought stages,
"### Answer:" otherwise) with no trailing newline. Teacher prompts for
explanation generation use a separate fixed template (``TEACHER_TEMPLATE``).

Each exemplar's block is rendered once per exemplar object and cot flag,
on its first use, and kept on its `CotExemplar`: a random stage's fixed
exemplars serve all its items, and kNN exemplars kept by the command serve
both kNN stages. The CoT cache hands out one exemplar object per pool item
object, the one the teacher verified included, so a pool item's block is
rendered once per cot flag however many test items show it. Every prompt
joins the instruction, those blocks and its test block, which is rendered
per prompt since a run may shuffle its options. Nothing is kept at module
level, so each command renders its blocks anew.

Options render inline as "(A) text (B) text ..."; datasets whose options are
bare answer words (PubMedQA) render the words alone, "(yes) (no) (maybe)",
while keeping letter labels internally so voting and scoring are uniform.

Option shuffling for ensemble runs is a pure function of
(seed, item id, run index): the SHA-256 of that key, reduced mod n!, is
unranked into a permutation via the Lehmer code, so every rerun presents the
same shuffles regardless of execution order.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .corpus import Dataset, McqItem
from .errors import ConfigError

__all__ = [
    "Stage",
    "Strategy",
    "PromptBundle",
    "CotExemplar",
    "ShuffleResult",
    "ANSWER_HEADING",
    "EXPLANATION_HEADING",
    "STOP_SEQUENCES",
    "FEWSHOT_SIZE",
    "TEACHER_TEMPLATE",
    "assemble_prompt",
    "teacher_prompt",
    "shuffle_options",
    "identity_permutation",
    "uses_word_options",
    "render_options_inline",
    "extraction_tokens",
    "template_fingerprint",
]


class Stage(str, Enum):
    """One rung of the prompting ladder. The ensemble shows the kNN
    chain-of-thought prompt, over shuffled options."""

    ZERO_SHOT = "zero_shot"
    RANDOM_FEWSHOT = "random_fewshot"
    RANDOM_FEWSHOT_COT = "random_fewshot_cot"
    KNN_FEWSHOT_COT = "knn_fewshot_cot"
    ENSEMBLE = "ensemble"

    @property
    def cot(self) -> bool:
        return self in (Stage.RANDOM_FEWSHOT_COT, Stage.KNN_FEWSHOT_COT, Stage.ENSEMBLE)

    @property
    def fewshot(self) -> bool:
        return self is not Stage.ZERO_SHOT

    @property
    def knn(self) -> bool:
        return self in (Stage.KNN_FEWSHOT_COT, Stage.ENSEMBLE)


# The ladder's name in the acceptance suite and the benchmark.
Strategy = Stage


FEWSHOT_SIZE = 5

QUESTION_HEADING = "### Question:"
EXPLANATION_HEADING = "### Explanation:"
ANSWER_HEADING = "### Answer:"
OPTIONS_HEADING = "### Options:"

# Generation stops where the model would start writing another question.
STOP_SEQUENCES = ("\n" + QUESTION_HEADING,)

TEACHER_TEMPLATE = (
    "You are a medical expert. Answer the following multiple choice question "
    "from the medical domain based on following instructions.\n"
    "1. Output a brief explanation summarizing and providing context to the "
    "question under the heading 'Explanation' in about 5 sentences.\n"
    "2. Select the correct option and provide the correct option under the "
    "heading 'Answer'.\n"
    "3. Always select one of the four options provided as the answer.\n"
    "4. If the options are ambiguous or the question does not have enough "
    "context, select the one that best answers the question.\n"
    "\n"
    "### Question: {question}\n"
    "### Options: {options}"
)


@dataclass(frozen=True)
class CotExemplar:
    """A worked example: a pool item plus its (possibly empty) explanation.

    ``verified`` means a teacher model produced the explanation and its
    extracted answer matched the item's gold label. Chain-of-thought prompts
    accept only verified exemplars; answer-only few-shot prompts use
    unverified exemplars with an empty explanation.
    """

    item: McqItem
    explanation: str = ""
    verified: bool = False
    # The explanation's whitespace-separated words, counted once: token budgets sum them.
    word_count: int = field(init=False, repr=False, compare=False)
    # cot flag -> this exemplar's rendered block
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "word_count", len(self.explanation.split()))
        if self.verified and not self.word_count:
            raise ConfigError(f"{self.item.id}: verified exemplar without an explanation")

    def block(self, cot: bool) -> str:
        """This exemplar's prompt block, with its explanation if `cot`,
        rendered on first use. Rendering is pure, so threads that race here
        at worst render it twice."""
        block = self._blocks.get(cot)
        if block is None:
            block = self._blocks[cot] = _exemplar_block(self, cot)
        return block


@dataclass(frozen=True)
class PromptBundle:
    text: str


class ShuffleResult(NamedTuple):
    item: McqItem
    permutation: dict[str, str]  # canonical label -> presented label


def uses_word_options(dataset: Dataset) -> bool:
    """True when prompts show the option texts as bare answer tokens."""
    return dataset is Dataset.PUBMEDQA


def render_options_inline(dataset: Dataset, options: tuple[tuple[str, str], ...]) -> str:
    if uses_word_options(dataset):
        return " ".join([f"({text})" for _, text in options])
    return " ".join([f"({label}) {text}" for label, text in options])


def _answer_reference(item: McqItem) -> str:
    """How an exemplar's correct answer is written after "### Answer:"."""
    if uses_word_options(item.dataset):
        return item.gold_text
    return f"({item.gold}) {item.gold_text}"


def _question_with_context(item: McqItem) -> str:
    if item.context:
        return f"{item.context} {item.question}"
    return item.question


def _question_line(item: McqItem) -> str:
    inline = render_options_inline(item.dataset, item.options)
    return f"{QUESTION_HEADING} {_question_with_context(item)} {inline}"


def _exemplar_block(exemplar: CotExemplar, cot: bool) -> str:
    item = exemplar.item
    explanation = f"{EXPLANATION_HEADING} {exemplar.explanation}\n" if cot else ""
    return f"{_question_line(item)}\n{explanation}{ANSWER_HEADING} {_answer_reference(item)}"


def assemble_prompt(
    stage: Stage,
    instruction: str,
    exemplars: list[CotExemplar],
    item: McqItem,
    permutation: dict[str, str] | None = None,
    run_index: int = 0,
) -> PromptBundle:
    """Render the full prompt for *item* (already shuffled, if applicable):
    the instruction, each exemplar's block, then the test block.

    The instruction must be non-empty, the stage's exemplar count exact, and
    a chain-of-thought stage's exemplars verified. *permutation* records how
    the item's canonical labels map to the labels presented in its options;
    omit it for an unshuffled item. It is checked to be a bijection over the
    item's labels. *run_index* does not shape the text.
    """
    if not instruction or not instruction.strip():
        raise ConfigError("instruction must be non-empty")
    expected = FEWSHOT_SIZE if stage.fewshot else 0
    if len(exemplars) != expected:
        raise ConfigError(
            f"{stage.value} needs exactly {expected} exemplars, got {len(exemplars)}"
        )
    cot = stage.cot
    if cot:
        bad = [e.item.id for e in exemplars if not e.verified]
        if bad:
            raise ConfigError(f"unverified exemplars in a chain-of-thought prompt: {bad}")
    if permutation is not None:
        labels = sorted(item.labels)
        if sorted(permutation) != labels or sorted(permutation.values()) != labels:
            raise ConfigError(f"{item.id}: permutation is not a bijection over {item.labels}")

    sentinel = EXPLANATION_HEADING if cot else ANSWER_HEADING
    text = "\n\n".join([instruction, *(e.block(cot) for e in exemplars),
                         f"{_question_line(item)}\n{sentinel}"])
    # The test block must end at its sentinel: nothing, in particular no gold
    # answer text, may follow it.
    assert text.endswith(sentinel)
    return PromptBundle(text=text)


def teacher_prompt(item: McqItem) -> str:
    """The fixed explanation-generation prompt for one pool item."""
    return TEACHER_TEMPLATE.format(
        question=_question_with_context(item),
        options=render_options_inline(item.dataset, item.options),
    )


def identity_permutation(item: McqItem) -> dict[str, str]:
    return {label: label for label in item.labels}


def _unrank_lehmer(rank: int, n: int) -> list[int]:
    digits = []
    for i in range(1, n + 1):
        digits.append(rank % i)
        rank //= i
    digits.reverse()
    pool = list(range(n))
    return [pool.pop(d) for d in digits]


def _permutation_indices(seed: int, item_id: str, run_index: int, n: int) -> list[int]:
    key = f"{seed}|{item_id}|{run_index}".encode("utf-8")
    rank = int.from_bytes(hashlib.sha256(key).digest(), "big") % math.factorial(n)
    return _unrank_lehmer(rank, n)


def shuffle_options(item: McqItem, seed: int, run_index: int) -> ShuffleResult:
    """Deterministically permute *item*'s option texts among its labels.

    presented[i] = original[perm[i]], so the returned mapping sends each
    canonical label to the presented label its text now sits under, and the
    gold label moves with its text.
    """
    labels = item.labels
    n = len(labels)
    perm = _permutation_indices(seed, item.id, run_index, n)
    presented_options = tuple((labels[i], item.options[perm[i]][1]) for i in range(n))
    to_presented = {labels[perm[i]]: labels[i] for i in range(n)}
    shuffled = McqItem(id=item.id, dataset=item.dataset, split=item.split,
                       question=item.question, options=presented_options,
                       gold=to_presented[item.gold], subject=item.subject, context=item.context)
    shuffled.validate()
    return ShuffleResult(item=shuffled, permutation=to_presented)


def extraction_tokens(item: McqItem) -> tuple[tuple[str, ...], dict[str, str] | None]:
    """(presented labels, word token -> presented label) for answer parsing.

    The word map is None for datasets whose prompts show letter labels.
    """
    labels = item.labels
    if uses_word_options(item.dataset):
        return labels, {text: label for label, text in item.options}
    return labels, None


def template_fingerprint() -> str:
    """Hash of every literal template byte that shapes a prompt."""
    parts = [
        QUESTION_HEADING,
        EXPLANATION_HEADING,
        ANSWER_HEADING,
        OPTIONS_HEADING,
        TEACHER_TEMPLATE,
        "\n\n",  # block joiner
    ]
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()
