import numpy as np
import pytest

from medlang.errors import ConfigError, DataError
from medlang.topics import (
    TopicModel,
    fit_topic_model,
    infer_proportions,
    match_topics,
    measure_topic,
    preprocess,
)

TOPIC_A_WORDS = ("statute", "waiver", "alienation", "provision", "checklist", "plan")
TOPIC_B_WORDS = ("custody", "children", "signatory", "discretion", "treaty", "article")


def planted_corpus(n_docs, seed, doc_len=(8, 15)):
    """Two topics with disjoint vocabularies; returns (texts, topic labels)."""
    rng = np.random.default_rng(seed)
    texts, labels = [], []
    for _ in range(n_docs):
        topic = int(rng.integers(2))
        words = TOPIC_A_WORDS if topic == 0 else TOPIC_B_WORDS
        length = int(rng.integers(doc_len[0], doc_len[1] + 1))
        texts.append(" ".join(rng.choice(words, size=length)))
        labels.append(topic)
    return texts, labels


def planted_reference_rows(vocab):
    rows = []
    for words in (TOPIC_A_WORDS, TOPIC_B_WORDS):
        row = np.zeros(len(vocab))
        for w in words:
            if w in vocab:
                row[vocab.index(w)] = 1.0 / len(words)
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def small_planted_model():
    texts, _ = planted_corpus(200, seed=404)
    return fit_topic_model(texts, k=2, seed=7, n_sweeps=40, burn_in=20)


def test_preprocess_filters_stopwords_and_dashes():
    assert preprocess("I think the - - statute controls 12") == ["think", "statute", "controls"]


def test_k_below_two_is_config_error():
    with pytest.raises(ConfigError):
        fit_topic_model(["some words here"], k=1, seed=0)


def test_empty_vocabulary_is_data_error():
    with pytest.raises(DataError, match="vocabulary"):
        fit_topic_model(["the and of", "a an"], k=2, seed=0)


def test_planted_topics_recovered(small_planted_model):
    model = small_planted_model
    matches = match_topics(model, planted_reference_rows(list(model.vocab)))
    assert {idx for idx, _ in matches} == {0, 1}
    assert all(cosine >= 0.95 for _, cosine in matches)


def test_row_normalization(small_planted_model):
    model = small_planted_model
    assert np.allclose(model.topic_word.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(model.doc_topic.sum(axis=1), 1.0, atol=1e-9)


def test_same_seed_reproduces_assignments():
    texts, _ = planted_corpus(80, seed=11)
    a = fit_topic_model(texts, k=2, seed=3, n_sweeps=30, burn_in=15)
    b = fit_topic_model(texts, k=2, seed=3, n_sweeps=30, burn_in=15)
    assert np.array_equal(a.assignments, b.assignments)
    assert np.array_equal(a.topic_word, b.topic_word)
    assert np.array_equal(a.doc_topic, b.doc_topic)


def test_pure_document_maps_to_planted_topic(small_planted_model):
    model = small_planted_model
    matches = match_topics(model, planted_reference_rows(list(model.vocab)))
    planted_to_fitted = {planted: fitted for planted, (fitted, _) in enumerate(matches)}
    doc_topic_1 = " ".join(TOPIC_B_WORDS * 2)
    assert measure_topic(model, doc_topic_1) == planted_to_fitted[1]
    doc_topic_0 = " ".join(TOPIC_A_WORDS * 2)
    assert measure_topic(model, doc_topic_0) == planted_to_fitted[0]


def test_out_of_vocabulary_text_gets_reserved_level(small_planted_model):
    model = small_planted_model
    assert measure_topic(model, "zebra quokka xylophone") == model.n_topics
    assert measure_topic(model, "") == model.n_topics
    assert infer_proportions(model, "zebra") is None


def test_exact_tie_breaks_to_topic_zero():
    model = TopicModel(
        vocab=("alpha", "beta"),
        topic_word=np.array([[0.5, 0.5], [0.5, 0.5]]),
        doc_topic=np.zeros((0, 2)),
        assignments=np.zeros(0, dtype=np.int64),
        n_topics=2,
        alpha=0.1,
        beta=0.01,
        seed=0,
    )
    assert measure_topic(model, "alpha beta alpha") == 0
    theta = infer_proportions(model, "alpha beta")
    assert theta[0] == theta[1]


def test_proportions_sum_to_one(small_planted_model):
    theta = infer_proportions(small_planted_model, " ".join(TOPIC_A_WORDS))
    assert abs(theta.sum() - 1.0) < 1e-9


def test_vocabulary_index_is_built_once_per_model(small_planted_model):
    index = small_planted_model.vocab_index
    assert index == {tok: i for i, tok in enumerate(small_planted_model.vocab)}
    assert small_planted_model.vocab_index is index
