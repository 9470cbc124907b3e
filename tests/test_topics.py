import dataclasses

import numpy as np
import pytest

from medlang.errors import ConfigError, DataError
from medlang.textutil import tokenize
from medlang.topics import (
    TopicModel,
    fit_topic_model,
    fold_in,
    match_topics,
    measure_topic,
    measure_topics,
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
    tokens = tokenize("I think the - - statute controls 12")
    assert preprocess(tokens) == ["think", "statute", "controls"]


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


def test_more_reference_rows_than_topics_is_data_error(small_planted_model):
    model = small_planted_model
    rows = planted_reference_rows(list(model.vocab))
    with pytest.raises(DataError, match="more reference rows than the 2 fitted topics"):
        match_topics(model, rows + [rows[0]])
    with pytest.raises(DataError, match="more reference rows"):
        match_topics(model, iter(rows * 2))


def test_row_normalization(small_planted_model):
    model = small_planted_model
    assert np.allclose(model.topic_word.sum(axis=1), 1.0, atol=1e-9)


def test_same_seed_reproduces_assignments():
    texts, _ = planted_corpus(80, seed=11)
    a = fit_topic_model(texts, k=2, seed=3, n_sweeps=30, burn_in=15)
    b = fit_topic_model(texts, k=2, seed=3, n_sweeps=30, burn_in=15)
    assert np.array_equal(a.assignments, b.assignments)
    assert np.array_equal(a.topic_word, b.topic_word)


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
    assert np.isnan(fold_in(model, [["zebra"]])).all()


def test_exact_tie_breaks_to_topic_zero():
    model = TopicModel(
        vocab=("alpha", "beta"),
        topic_word=np.array([[0.5, 0.5], [0.5, 0.5]]),
        assignments=np.zeros(0, dtype=np.int64),
        n_topics=2,
        alpha=0.1,
        beta=0.01,
        seed=0,
    )
    assert measure_topic(model, "alpha beta alpha") == 0
    theta = fold_in(model, [["alpha", "beta"]])[0]
    assert theta[0] == theta[1]
    docs = [tokenize(text) for text in ("alpha", "alpha beta alpha", "beta", "gamma")]
    assert list(measure_topics(model, docs)) == [0, 0, 0, 2]


def test_proportions_sum_to_one(small_planted_model):
    theta = fold_in(small_planted_model, [list(TOPIC_A_WORDS)])[0]
    assert abs(theta.sum() - 1.0) < 1e-9


def test_vocabulary_index_is_built_once_per_model(small_planted_model):
    index = small_planted_model.vocab_index
    assert index == {tok: i for i, tok in enumerate(small_planted_model.vocab)}
    assert small_planted_model.vocab_index is index


@pytest.mark.parametrize("key, value", [("alpha", -0.5), ("alpha", 0.0), ("alpha", float("nan")),
                                        ("beta", -1), ("beta", 0), ("beta", float("inf"))])
def test_non_finite_or_non_positive_prior_is_config_error(key, value):
    with pytest.raises(ConfigError, match=f"topic {key} must be finite and > 0"):
        fit_topic_model(["statute waiver", "custody children"], k=2, seed=0, **{key: value})


@pytest.mark.parametrize("cell", [-0.25, float("nan"), float("inf")])
def test_model_validation_rejects_bad_cells(cell):
    topic_word = np.array([[0.5, 0.5], [1.25, cell]])
    model = TopicModel(vocab=("alpha", "beta"), topic_word=topic_word,
                       assignments=np.zeros(0, dtype=np.int64), n_topics=2, alpha=0.1, beta=0.01,
                       seed=0)
    with pytest.raises(DataError, match="negative or non-finite cell"):
        model.validate()


# -- topic-major sweep against the token-major one it replaced -------------------


def reference_fit(corpus, k, seed, alpha, beta, n_sweeps, burn_in):
    """The (tokens, k) synchronous sweep, kept as the reference for the topic-major one."""
    docs = [preprocess(tokenize(text)) for text in corpus]
    vocab = tuple(sorted({tok for doc in docs for tok in doc}))
    vocab_index = {tok: i for i, tok in enumerate(vocab)}
    n_docs, n_words = len(docs), len(vocab)
    doc_len = np.array([len(doc) for doc in docs])
    doc_of = np.repeat(np.arange(n_docs), doc_len)
    word_of = np.array([vocab_index[tok] for doc in docs for tok in doc])
    rng = np.random.default_rng(seed)
    z = rng.integers(0, k, size=word_of.size)

    def counts(z):
        nkw = np.bincount(z * n_words + word_of, minlength=k * n_words).reshape(k, n_words)
        ndk = np.bincount(doc_of * k + z, minlength=n_docs * k).reshape(n_docs, k)
        return nkw, nkw.sum(axis=1), ndk

    nkw, nk, ndk = counts(z)
    beta_sum = beta * n_words
    phi_acc = np.zeros((k, n_words))
    for sweep in range(n_sweeps):
        own = z[:, None] == np.arange(k)
        weights = nkw[:, word_of].T - own + beta
        weights /= nk - own + beta_sum
        weights *= ndk[doc_of] - own + alpha
        cumulative = np.cumsum(weights, axis=1, out=weights)
        threshold = rng.random(word_of.size) * cumulative[:, -1]
        z = (cumulative < threshold[:, None]).sum(axis=1)
        nkw, nk, ndk = counts(z)
        if sweep >= burn_in:
            phi_acc += (nkw + beta) / (nk[:, None] + beta_sum)
    return vocab, phi_acc / phi_acc.sum(axis=1, keepdims=True), z.astype(np.int64)


FIT_CORPORA = {
    # one-token documents among longer ones, and one with no content word at all
    "short": planted_corpus(40, seed=5, doc_len=(1, 12))[0] + ["statute", "the of and"],
    "one-document": [" ".join(TOPIC_A_WORDS + TOPIC_B_WORDS)],
}


@pytest.mark.parametrize("corpus", sorted(FIT_CORPORA))
@pytest.mark.parametrize("burn_in", [0, 5])
@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("k", [2, 5, 8, 10, 12])
def test_topic_major_sweep_equals_the_token_major_one_bit_for_bit(corpus, burn_in, seed, k):
    texts = FIT_CORPORA[corpus]
    model = fit_topic_model(texts, k=k, seed=seed, alpha=0.3, beta=0.05, n_sweeps=12,
                            burn_in=burn_in)
    vocab, topic_word, assignments = reference_fit(texts, k, seed, 0.3, 0.05, 12, burn_in)
    assert model.vocab == vocab
    assert model.topic_word.tobytes() == topic_word.tobytes()
    assert model.assignments.tobytes() == assignments.tobytes()


# -- batched fold-in against the per-text EM loop it replaced --------------------


def reference_proportions(model, text):
    """The per-text EM fold-in, kept as the reference for the batched one."""
    vocab_index = model.vocab_index
    ids = [vocab_index[tok] for tok in preprocess(tokenize(text)) if tok in vocab_index]
    if not ids:
        return None
    cols = model.topic_word[:, ids]
    theta = np.full(model.n_topics, 1.0 / model.n_topics)
    for _ in range(50):  # sums over topics and over tokens in order, as fold_in adds them
        q = theta[:, None] * cols
        q /= np.cumsum(q, axis=0)[-1]
        theta = model.alpha + np.cumsum(q, axis=1)[:, -1]
        theta /= np.cumsum(theta)[-1]
    return theta


def random_model(k, n_words, seed):
    rng = np.random.default_rng(seed)
    return TopicModel(
        vocab=tuple(f"word{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(n_words)),
        topic_word=rng.dirichlet(np.full(n_words, 0.3), size=k),
        assignments=np.zeros(0, dtype=np.int64),
        n_topics=k,
        alpha=0.1,
        beta=0.01,
        seed=seed,
    )


@pytest.mark.parametrize("k", [2, 5, 7, 8, 9, 10, 12, 16])
def test_batched_fold_in_equals_the_per_text_loop_bit_for_bit(k):
    model = random_model(k, n_words=15, seed=k)
    rng = np.random.default_rng(100 + k)
    # 15 words and up to 40 tokens: most documents repeat words
    texts = [" ".join(rng.choice(model.vocab, size=n)) for n in range(1, 41) for _ in range(3)]
    texts.append("the zebra of quokka")
    texts.insert(50, " ".join(rng.choice(model.vocab, size=300)))  # one long text
    docs = [tokenize(text) for text in texts]
    got = fold_in(model, docs)
    levels = measure_topics(model, docs)
    for text, doc, row, level in zip(texts, docs, got, levels):
        want = reference_proportions(model, text)
        if want is None:
            assert np.isnan(row).all() and level == k
        else:
            assert row.tobytes() == want.tobytes()
            assert level == int(np.argmax(want))
            assert fold_in(model, [doc])[0].tobytes() == want.tobytes()
            assert measure_topic(model, text) == level


def test_a_text_left_alone_in_its_batch_keeps_its_row():
    # Words 0-4 each have weight in one topic only, so a text of one of them reaches its
    # fixed point after two iterations and leaves the batch; the text of shared words,
    # in the same length class, then runs on alone as a batch of one.
    base = random_model(5, n_words=15, seed=5)
    topic_word = base.topic_word.copy()
    topic_word[:, :5] = np.eye(5)
    model = dataclasses.replace(base, topic_word=topic_word / topic_word.sum(axis=1, keepdims=True))
    texts = [" ".join([model.vocab[t]] * n) for t in range(5) for n in (8, 11, 15)]
    texts.insert(7, " ".join(np.random.default_rng(5).choice(model.vocab[5:], size=12)))
    docs = [tokenize(text) for text in texts]
    got = fold_in(model, docs)
    for text, row in zip(texts, got):
        assert row.tobytes() == reference_proportions(model, text).tobytes()
    assert got[7].tobytes() == fold_in(model, [docs[7]])[0].tobytes()


def test_batch_without_in_vocabulary_tokens_is_all_no_content():
    model = random_model(5, n_words=15, seed=1)
    docs = [[], ["zebra", "quokka"], ["the", "of"], ["-", "-"]]
    assert np.isnan(fold_in(model, docs)).all() and fold_in(model, docs).shape == (4, 5)
    assert list(measure_topics(model, docs)) == [model.no_content_level] * 4
    assert fold_in(model, []).shape == (0, 5)


def test_batched_levels_do_not_depend_on_batch_order():
    model = random_model(5, n_words=15, seed=9)
    rng = np.random.default_rng(9)
    docs = [list(rng.choice(model.vocab, size=int(rng.integers(1, 30)))) for _ in range(200)]
    docs += [[], ["zebra", "quokka"]]
    levels = measure_topics(model, docs)
    assert list(levels[-2:]) == [model.no_content_level] * 2
    order = rng.permutation(len(docs))
    assert np.array_equal(measure_topics(model, [docs[i] for i in order]), levels[order])
    assert np.array_equal(fold_in(model, [docs[i] for i in order]),
                          fold_in(model, docs)[order], equal_nan=True)
