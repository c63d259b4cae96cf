"""Prompt assembly, the fixed templates, and option shuffling."""

from dataclasses import replace
from pathlib import Path

import pytest

import golden_data as gd
import medharness.promptkit as promptkit
from conftest import make_item
from medharness.config import default_instruction
from medharness.corpus import Dataset, Split
from medharness.errors import ConfigError
from medharness.promptkit import (
    ANSWER_HEADING,
    EXPLANATION_HEADING,
    CotExemplar,
    FEWSHOT_SIZE,
    Stage,
    assemble_prompt,
    extraction_tokens,
    render_options_inline,
    shuffle_options,
    teacher_prompt,
    template_fingerprint,
)
from medharness.runner import answer_stage_item

FIXTURES = Path(__file__).parent / "fixtures" / "prompts"


def fixture_bytes(name: str) -> bytes:
    return (FIXTURES / name).read_bytes()


def knn_exemplars():
    return [gd.exemplar(i, cot=True) for i in gd.KNN_ORDER]


def random_exemplars(cot: bool):
    return [gd.exemplar(i, cot=cot) for i in gd.RANDOM_ORDER]


class TestGoldenPrompts:
    """Each assembled prompt must match its frozen fixture byte for byte
    (fixture files carry one trailing newline beyond the prompt)."""

    def assert_matches(self, name: str, text: str):
        assert text.encode("utf-8") + b"\n" == fixture_bytes(name)

    def assert_word_prompt(self, name: str, text: str):
        """As `assert_matches`, for a fixture beside the acceptance suite's set."""
        fixture = FIXTURES.parent / "word_prompts" / name
        assert text.encode("utf-8") + b"\n" == fixture.read_bytes()

    def test_zero_shot(self):
        bundle = assemble_prompt(Stage.ZERO_SHOT, gd.MEDQA_INSTRUCTION, [], gd.TEST_ITEM)
        self.assert_matches("medqa_zero_shot.txt", bundle.text)

    def test_random_fewshot(self):
        bundle = assemble_prompt(
            Stage.RANDOM_FEWSHOT, gd.MEDQA_INSTRUCTION, random_exemplars(False), gd.TEST_ITEM
        )
        self.assert_matches("medqa_random_fewshot.txt", bundle.text)

    def test_random_fewshot_cot(self):
        bundle = assemble_prompt(
            Stage.RANDOM_FEWSHOT_COT, gd.MEDQA_INSTRUCTION, random_exemplars(True), gd.TEST_ITEM
        )
        self.assert_matches("medqa_random_fewshot_cot.txt", bundle.text)

    def test_knn_fewshot_cot(self):
        bundle = assemble_prompt(
            Stage.KNN_FEWSHOT_COT, gd.MEDQA_INSTRUCTION, knn_exemplars(), gd.TEST_ITEM
        )
        self.assert_matches("medqa_knn_fewshot_cot.txt", bundle.text)

    def test_zero_shot_shuffled(self):
        shuffled, perm = shuffle_options(gd.TEST_ITEM, gd.SHUFFLE_SEED, gd.SHUFFLE_RUN)
        assert perm == gd.SHUFFLED_RUN3_PERMUTATION
        bundle = assemble_prompt(
            Stage.ZERO_SHOT, gd.MEDQA_INSTRUCTION, [], shuffled,
            permutation=perm, run_index=gd.SHUFFLE_RUN,
        )
        self.assert_matches("medqa_zero_shot_shuffled_run3.txt", bundle.text)

    def test_pubmedqa_zero_shot(self):
        bundle = assemble_prompt(
            Stage.ZERO_SHOT, gd.PUBMEDQA_INSTRUCTION, [], gd.PUBMEDQA_ITEM
        )
        self.assert_matches("pubmedqa_zero_shot.txt", bundle.text)

    def test_pubmedqa_knn_fewshot_cot(self):
        """Word-answer exemplars: context before the question, the options as
        `(yes) (no) (maybe)`, the answer as `### Answer: yes`. The fixture
        lives beside the acceptance suite's fixture set, not in it."""
        bundle = assemble_prompt(Stage.KNN_FEWSHOT_COT, gd.PUBMEDQA_INSTRUCTION,
                                 gd.PUBMEDQA_EXEMPLARS, gd.PUBMEDQA_ITEM)
        self.assert_word_prompt("pubmedqa_knn_fewshot_cot.txt", bundle.text)

    @pytest.mark.parametrize("stage", [Stage.RANDOM_FEWSHOT, Stage.RANDOM_FEWSHOT_COT])
    def test_pubmedqa_random_stages(self, stage):
        exemplars = [gd.pubmedqa_exemplar(i, stage.cot) for i in gd.PUBMEDQA_RANDOM_ORDER]
        bundle = assemble_prompt(stage, gd.PUBMEDQA_INSTRUCTION, exemplars, gd.PUBMEDQA_ITEM)
        self.assert_word_prompt(f"pubmedqa_{stage.value}.txt", bundle.text)

    def test_pubmedqa_ensemble_shuffled(self):
        shuffled, perm = shuffle_options(gd.PUBMEDQA_ITEM, gd.SHUFFLE_SEED, gd.SHUFFLE_RUN)
        assert perm == gd.PUBMEDQA_SHUFFLED_RUN3_PERMUTATION
        bundle = assemble_prompt(Stage.ENSEMBLE, gd.PUBMEDQA_INSTRUCTION, gd.PUBMEDQA_EXEMPLARS,
                                 shuffled, permutation=perm, run_index=gd.SHUFFLE_RUN)
        self.assert_word_prompt("pubmedqa_ensemble_shuffled_run3.txt", bundle.text)

    def test_teacher_prompts(self):
        self.assert_matches("teacher_medqa.txt", teacher_prompt(gd.TEST_ITEM))
        self.assert_matches("teacher_pubmedqa.txt", teacher_prompt(gd.PUBMEDQA_ITEM))

    def test_default_instructions_match_golden(self):
        assert default_instruction(Dataset.MEDQA) == gd.MEDQA_INSTRUCTION
        assert default_instruction(Dataset.PUBMEDQA) == gd.PUBMEDQA_INSTRUCTION


class TestAssembly:
    def test_prompt_ends_exactly_at_sentinel(self):
        for stage, exemplars, sentinel in [
            (Stage.ZERO_SHOT, [], ANSWER_HEADING),
            (Stage.RANDOM_FEWSHOT, random_exemplars(False), ANSWER_HEADING),
            (Stage.KNN_FEWSHOT_COT, knn_exemplars(), EXPLANATION_HEADING),
        ]:
            bundle = assemble_prompt(stage, gd.MEDQA_INSTRUCTION, exemplars, gd.TEST_ITEM)
            assert bundle.text.endswith(sentinel)
            assert not bundle.text.endswith("\n")

    def test_cot_sentinel_is_explanation_heading(self):
        cot = assemble_prompt(
            Stage.KNN_FEWSHOT_COT, gd.MEDQA_INSTRUCTION, knn_exemplars(), gd.TEST_ITEM
        )
        plain = assemble_prompt(Stage.ZERO_SHOT, gd.MEDQA_INSTRUCTION, [], gd.TEST_ITEM)
        assert cot.text.endswith("### Explanation:")
        assert plain.text.endswith("### Answer:")

    def test_gold_never_follows_the_test_sentinel(self):
        bundle = assemble_prompt(
            Stage.KNN_FEWSHOT_COT, gd.MEDQA_INSTRUCTION, knn_exemplars(), gd.TEST_ITEM
        )
        tail = bundle.text.rsplit(EXPLANATION_HEADING, 1)[1]
        assert tail == ""

    def test_exemplar_order_is_preserved(self):
        forward = assemble_prompt(
            Stage.KNN_FEWSHOT_COT, gd.MEDQA_INSTRUCTION, knn_exemplars(), gd.TEST_ITEM
        )
        reordered = assemble_prompt(
            Stage.KNN_FEWSHOT_COT, gd.MEDQA_INSTRUCTION,
            list(reversed(knn_exemplars())), gd.TEST_ITEM,
        )
        assert forward.text != reordered.text
        first_q = gd.POOL_BY_ID[gd.KNN_ORDER[0]].question
        second_q = gd.POOL_BY_ID[gd.KNN_ORDER[1]].question
        assert forward.text.index(first_q) < forward.text.index(second_q)

    def test_exemplar_count_is_enforced(self):
        with pytest.raises(ConfigError, match="exactly 5"):
            assemble_prompt(
                Stage.RANDOM_FEWSHOT, gd.MEDQA_INSTRUCTION,
                random_exemplars(False)[:3], gd.TEST_ITEM,
            )
        with pytest.raises(ConfigError, match="exactly 0"):
            assemble_prompt(
                Stage.ZERO_SHOT, gd.MEDQA_INSTRUCTION,
                random_exemplars(False), gd.TEST_ITEM,
            )
        assert FEWSHOT_SIZE == 5

    def test_cot_requires_verified_exemplars(self):
        with pytest.raises(ConfigError, match="unverified"):
            assemble_prompt(
                Stage.KNN_FEWSHOT_COT, gd.MEDQA_INSTRUCTION,
                random_exemplars(False), gd.TEST_ITEM,
            )

    def test_cot_refuses_unverified_exemplars_whose_blocks_are_rendered(self):
        # A block rendered for an answer-only prompt is kept on the exemplar;
        # a chain-of-thought prompt over that exemplar is still refused.
        exemplars = random_exemplars(False)
        plain = assemble_prompt(Stage.RANDOM_FEWSHOT, gd.MEDQA_INSTRUCTION, exemplars,
                                gd.TEST_ITEM)
        assert plain.text.startswith("\n\n".join(
            [gd.MEDQA_INSTRUCTION, *(e.block(False) for e in exemplars)]))
        message = "unverified exemplars in a chain-of-thought prompt"
        for stage in (Stage.RANDOM_FEWSHOT_COT, Stage.KNN_FEWSHOT_COT, Stage.ENSEMBLE):
            with pytest.raises(ConfigError, match=message):
                assemble_prompt(stage, gd.MEDQA_INSTRUCTION, exemplars, gd.TEST_ITEM)
            with pytest.raises(ConfigError, match=message):
                answer_stage_item(gd.TEST_ITEM, stage, gd.MEDQA_INSTRUCTION, exemplars, None)

    def test_each_block_is_rendered_once_per_cot_flag(self, monkeypatch):
        rendered = []
        render = promptkit._exemplar_block
        monkeypatch.setattr(promptkit, "_exemplar_block",
                            lambda exemplar, cot: rendered.append(cot) or render(exemplar, cot))
        exemplars = knn_exemplars()
        for stage in (Stage.RANDOM_FEWSHOT, Stage.KNN_FEWSHOT_COT, Stage.ENSEMBLE):
            for item in (gd.TEST_ITEM, shuffle_options(gd.TEST_ITEM, 0, 1).item):
                assemble_prompt(stage, gd.MEDQA_INSTRUCTION, exemplars, item)
        assert sorted(rendered) == [False] * FEWSHOT_SIZE + [True] * FEWSHOT_SIZE
        # Equal exemplars that are other objects render their own blocks.
        assemble_prompt(Stage.KNN_FEWSHOT_COT, gd.MEDQA_INSTRUCTION, knn_exemplars(),
                        gd.TEST_ITEM)
        assert len(rendered) == 3 * FEWSHOT_SIZE

    def test_verified_exemplar_needs_explanation(self):
        with pytest.raises(ConfigError, match="explanation"):
            CotExemplar(item=gd.POOL_ITEMS[0], explanation="  ", verified=True)

    def test_empty_instruction_refused(self):
        with pytest.raises(ConfigError, match="instruction"):
            assemble_prompt(Stage.ZERO_SHOT, "   ", [], gd.TEST_ITEM)

    def test_bad_permutation_refused(self):
        with pytest.raises(ConfigError, match="bijection"):
            assemble_prompt(
                Stage.ZERO_SHOT, gd.MEDQA_INSTRUCTION, [], gd.TEST_ITEM,
                permutation={"A": "A", "B": "A", "C": "C", "D": "D"},
            )

    def test_word_options_render_bare(self):
        inline = render_options_inline(Dataset.PUBMEDQA, gd.PUBMEDQA_ITEM.options)
        assert inline == "(yes) (no) (maybe)"
        letters = render_options_inline(Dataset.MEDQA, gd.TEST_ITEM.options[:2])
        assert letters == "(A) Anterior cruciate ligament (B) Patellofemoral cartilage"


class TestShuffle:
    def test_deterministic(self):
        a = shuffle_options(gd.TEST_ITEM, 7, 2)
        b = shuffle_options(gd.TEST_ITEM, 7, 2)
        assert a == b

    def test_gold_moves_with_its_text(self):
        for run in range(50):
            shuffled, perm = shuffle_options(gd.TEST_ITEM, 11, run)
            assert shuffled.gold == perm[gd.TEST_ITEM.gold]
            assert shuffled.gold_text == gd.TEST_ITEM.gold_text
            assert sorted(t for _, t in shuffled.options) == \
                   sorted(t for _, t in gd.TEST_ITEM.options)

    def test_runs_differ(self):
        perms = {tuple(sorted(shuffle_options(gd.TEST_ITEM, 7, r).permutation.items()))
                 for r in range(24)}
        assert len(perms) > 1

    def test_all_permutations_reachable(self):
        seen = set()
        for run in range(600):
            _, perm = shuffle_options(gd.TEST_ITEM, 13, run)
            seen.add(tuple(perm[label] for label in "ABCD"))
        assert len(seen) == 24

    def test_unshuffle_round_trip(self):
        # The permutation maps each canonical label to its presented label;
        # reading the presented options back through it restores the item.
        for run in range(40):
            shuffled, perm = shuffle_options(gd.TEST_ITEM, 3, run)
            presented_text = dict(shuffled.options)
            to_canonical = {presented: canonical for canonical, presented in perm.items()}
            restored = replace(
                shuffled,
                options=tuple((c, presented_text[p]) for c, p in sorted(perm.items())),
                gold=to_canonical[shuffled.gold],
            )
            assert restored == gd.TEST_ITEM

    def test_presented_item_keeps_every_other_field(self):
        for item in (gd.TEST_ITEM, gd.PUBMEDQA_ITEM, replace(gd.TEST_ITEM, subject="anatomy")):
            shuffled, perm = shuffle_options(item, 7, 1)
            assert shuffled == replace(item, options=shuffled.options, gold=perm[item.gold])
            assert shuffled.labels == item.labels

    def test_pubmedqa_shuffles_words(self):
        seen_orders = set()
        for run in range(30):
            shuffled, perm = shuffle_options(gd.PUBMEDQA_ITEM, 5, run)
            shuffled.validate()
            assert shuffled.gold_text == "yes"
            seen_orders.add(tuple(text for _, text in shuffled.options))
        assert len(seen_orders) > 1

    def test_item_identity_changes_permutation(self):
        other = make_item(1, split=Split.TEST)
        mine = shuffle_options(gd.TEST_ITEM, 7, 0).permutation
        theirs = shuffle_options(other, 7, 0).permutation
        # Not guaranteed different for every pair, but across several runs
        # the streams must diverge.
        diverged = any(
            shuffle_options(gd.TEST_ITEM, 7, r).permutation
            != shuffle_options(other, 7, r).permutation
            for r in range(10)
        )
        assert diverged or mine != theirs


class TestExtractionTokens:
    def test_letter_dataset_has_no_word_tokens(self):
        labels, words = extraction_tokens(gd.TEST_ITEM)
        assert labels == ("A", "B", "C", "D")
        assert words is None

    def test_word_dataset_maps_presented_text_to_label(self):
        shuffled, _ = shuffle_options(gd.PUBMEDQA_ITEM, 5, 1)
        labels, words = extraction_tokens(shuffled)
        assert labels == ("A", "B", "C")
        assert set(words) == {"yes", "no", "maybe"}
        for word, label in words.items():
            assert shuffled.option_text(label) == word


class TestTemplateFingerprint:
    def test_stable_and_hexadecimal(self):
        fp = template_fingerprint()
        assert fp == template_fingerprint()
        assert len(fp) == 64
        int(fp, 16)
