"""Hand-written items and explanations behind the golden prompt fixtures.

The byte-exact expected prompts live in tests/fixtures/prompts/ and
tests/fixtures/word_prompts/; this module restates the items those files
were written from. Change either side only
together, and only deliberately.
"""

from medharness.corpus import Dataset, McqItem, Split
from medharness.promptkit import CotExemplar

MEDQA_INSTRUCTION = (
    "You are a medical expert. Answer the following multiple choice question "
    "about medical knowledge. Provide the correct option under the heading 'Answer'."
)

PUBMEDQA_INSTRUCTION = (
    "You are a medical expert. Read the context and answer the following "
    "research question with yes, no, or maybe. Provide the correct option "
    "under the heading 'Answer'."
)

TEST_ITEM = McqItem(
    id="test-00000",
    dataset=Dataset.MEDQA,
    split=Split.TEST,
    question=(
        "A 23-year-old runner reports anterior knee pain when descending stairs. "
        "Which structure is most likely affected?"
    ),
    options=(
        ("A", "Anterior cruciate ligament"),
        ("B", "Patellofemoral cartilage"),
        ("C", "Medial meniscus"),
        ("D", "Iliotibial band"),
    ),
    gold="B",
)

PUBMEDQA_ITEM = McqItem(
    id="9000001",
    dataset=Dataset.PUBMEDQA,
    split=Split.TEST,
    question="Does adjunctive drug X improve remission rates in adults with condition Y?",
    options=(("A", "yes"), ("B", "no"), ("C", "maybe")),
    gold="A",
    context=(
        "Sixty adults with condition Y were randomized to drug X or placebo for "
        "12 weeks. Remission occurred in 24 of 30 participants receiving drug X "
        "and in 11 of 30 receiving placebo. Levels of biomarker Z fell in "
        "parallel with symptom scores."
    ),
)

_POOL_SPEC = [
    (
        "train-00000",
        "A sailor on a long voyage develops bleeding gums, loose teeth, and poor "
        "wound healing. A deficiency of which vitamin is most likely responsible?",
        (("A", "Vitamin A"), ("B", "Vitamin B12"), ("C", "Vitamin C"), ("D", "Vitamin D")),
        "C",
        "The sailor shows classic features of scurvy: bleeding gums, loose teeth, "
        "and impaired wound healing. Scurvy results from deficient collagen "
        "cross-linking because ascorbic acid is required for proline and lysine "
        "hydroxylation. Sailors historically developed scurvy on long voyages "
        "without fresh fruit. The presentation does not fit deficiencies of "
        "vitamin A, B12, or D. Vitamin C deficiency is therefore the most likely cause.",
    ),
    (
        "train-00001",
        "Which nerve provides the primary motor innervation of the diaphragm?",
        (("A", "Vagus nerve"), ("B", "Phrenic nerve"), ("C", "Intercostal nerves"),
         ("D", "Hypoglossal nerve")),
        "B",
        "The diaphragm is the principal muscle of inspiration. Its motor supply "
        "comes from the phrenic nerve, which arises from cervical roots C3 "
        "through C5. The vagus nerve is parasympathetic to thoracic and abdominal "
        "viscera, not motor to the diaphragm. Intercostal nerves supply the "
        "intercostal muscles, and the hypoglossal nerve supplies the tongue. The "
        "phrenic nerve is therefore the correct choice.",
    ),
    (
        "train-00002",
        "A previously healthy 45-year-old develops fever, productive cough, and a "
        "lobar infiltrate on chest radiograph. Which organism is the most common "
        "cause of this presentation?",
        (("A", "Mycoplasma pneumoniae"), ("B", "Haemophilus influenzae"),
         ("C", "Streptococcus pneumoniae"), ("D", "Klebsiella pneumoniae")),
        "C",
        "Fever, productive cough, and a lobar infiltrate describe typical "
        "community-acquired pneumonia. Streptococcus pneumoniae remains the most "
        "common bacterial cause of lobar community-acquired pneumonia in "
        "otherwise healthy adults. Mycoplasma tends to cause atypical, diffuse "
        "patterns in younger patients. Haemophilus is more common with underlying "
        "lung disease, and Klebsiella favors alcohol use disorder. The best "
        "answer is Streptococcus pneumoniae.",
    ),
    (
        "train-00003",
        "An ECG shows tall, peaked T waves in a patient with acute kidney injury. "
        "Which electrolyte abnormality is most likely?",
        (("A", "Hypokalemia"), ("B", "Hyperkalemia"), ("C", "Hypocalcemia"),
         ("D", "Hypernatremia")),
        "B",
        "Tall, peaked T waves are the earliest electrocardiographic sign of "
        "hyperkalemia. Acute kidney injury impairs potassium excretion, so serum "
        "potassium rises. Hypokalemia instead flattens T waves and produces U "
        "waves. Hypocalcemia prolongs the QT interval, and hypernatremia has no "
        "characteristic T-wave change. Hyperkalemia is therefore the most likely "
        "abnormality.",
    ),
    (
        "train-00004",
        "Which organ is the primary site of erythropoietin production in adults?",
        (("A", "Liver"), ("B", "Spleen"), ("C", "Kidney"), ("D", "Bone marrow")),
        "C",
        "Erythropoietin is the hormone that stimulates red blood cell production. "
        "In adults it is synthesized mainly by peritubular interstitial cells of "
        "the kidney in response to hypoxia. The liver is the dominant source only "
        "during fetal life. The spleen and bone marrow do not produce meaningful "
        "amounts. The kidney is therefore the primary site.",
    ),
]

POOL_ITEMS = [
    McqItem(
        id=item_id,
        dataset=Dataset.MEDQA,
        split=Split.TRAIN,
        question=question,
        options=options,
        gold=gold,
    )
    for item_id, question, options, gold, _ in _POOL_SPEC
]

EXPLANATIONS = {item_id: expl for item_id, _, _, _, expl in _POOL_SPEC}

POOL_BY_ID = {item.id: item for item in POOL_ITEMS}


def exemplar(item_id: str, cot: bool) -> CotExemplar:
    if cot:
        return CotExemplar(
            item=POOL_BY_ID[item_id], explanation=EXPLANATIONS[item_id], verified=True
        )
    return CotExemplar(item=POOL_BY_ID[item_id])


# PubMedQA exemplars behind tests/fixtures/word_prompts/, in the order the
# similarity prompt lists them: (id, context, question, gold, explanation).
_PUBMEDQA_POOL_SPEC = [
    (
        "8000001",
        "Forty adults with condition Y received drug X for 8 weeks in an open "
        "trial. Symptom scores fell by half in 28 of them, and no serious adverse "
        "events were recorded.",
        "Is drug X tolerated by adults with condition Y?",
        "A",
        "No serious adverse events occurred in 40 treated adults over 8 weeks, "
        "which supports tolerability in this population.",
    ),
    (
        "8000002",
        "In a cohort of 500 patients with condition Y, biomarker Z levels did not "
        "differ between those who relapsed and those who stayed in remission "
        "over two years of follow-up.",
        "Does biomarker Z predict relapse in condition Y?",
        "B",
        "Biomarker Z levels were the same in relapsing and non-relapsing patients, "
        "so the cohort gives no evidence that it predicts relapse.",
    ),
    (
        "8000003",
        "A pilot study of 12 children with condition Y found lower symptom scores "
        "after drug X, but it had no control group and four children left the "
        "study early.",
        "Does drug X reduce symptoms in children with condition Y?",
        "C",
        "The scores fell, but with no control group and a third of the children "
        "lost to follow-up the improvement cannot be attributed to drug X.",
    ),
    (
        "8000004",
        "Mice lacking gene W developed condition Y at twice the rate of wild-type "
        "littermates, and restoring gene W expression returned the rate to "
        "normal.",
        "Does loss of gene W promote condition Y in mice?",
        "A",
        "Knocking out gene W doubled the rate of condition Y and restoring it "
        "reversed the effect, which shows that its loss promotes the condition.",
    ),
    (
        "8000005",
        "A randomized trial of 300 adults found identical remission rates with "
        "drug V and placebo after 12 weeks, with narrow confidence intervals.",
        "Does drug V induce remission in adults with condition Y?",
        "B",
        "Remission rates were identical with drug V and placebo in a large, "
        "precise trial, so drug V does not induce remission.",
    ),
]

PUBMEDQA_EXEMPLARS = [
    CotExemplar(
        item=McqItem(id=item_id, dataset=Dataset.PUBMEDQA, split=Split.TRAIN,
                     question=question, options=(("A", "yes"), ("B", "no"), ("C", "maybe")),
                     gold=gold, context=context),
        explanation=explanation,
        verified=True,
    )
    for item_id, context, question, gold, explanation in _PUBMEDQA_POOL_SPEC
]

# The PubMedQA random prompts list the exemplars in the seed-0 random stream
# over their ids (`random_candidate_stream`); the similarity prompt and the
# ensemble run list them in id order.
PUBMEDQA_RANDOM_ORDER = ["8000004", "8000005", "8000001", "8000002", "8000003"]


def pubmedqa_exemplar(item_id: str, cot: bool) -> CotExemplar:
    exemplar = next(e for e in PUBMEDQA_EXEMPLARS if e.item.id == item_id)
    return exemplar if cot else CotExemplar(item=exemplar.item)


# Exemplar orders the fixture files were written with: the answer-only and
# random chain-of-thought prompts list the pool in id order, the similarity
# prompt lists it in a hand-chosen relevance order.
RANDOM_ORDER = ["train-00000", "train-00001", "train-00002", "train-00003", "train-00004"]
KNN_ORDER = ["train-00001", "train-00003", "train-00000", "train-00004", "train-00002"]

# Frozen expectation for shuffling TEST_ITEM with seed 7, run 3 (derived
# once from the counter construction by an independent script).
SHUFFLE_SEED = 7
SHUFFLE_RUN = 3
SHUFFLED_RUN3_PERMUTATION = {"A": "B", "B": "C", "C": "D", "D": "A"}
# ... and PUBMEDQA_ITEM with the same seed and run: its three words reorder.
PUBMEDQA_SHUFFLED_RUN3_PERMUTATION = {"A": "A", "B": "C", "C": "B"}
