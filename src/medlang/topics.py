"""Latent topic mediator: collapsed Gibbs LDA plus dominant-topic readout.

The model is fit on training text only and frozen; held-out text is scored
by a deterministic EM fold-in against the fitted topic-word distributions,
so measurement needs no randomness at inference time. Documents with no
in-vocabulary token map to the reserved "no-content" level K.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .textutil import DASH_TOKEN, tokenize

DEFAULT_ALPHA = 0.1
DEFAULT_BETA = 0.01
DEFAULT_SWEEPS = 1000
DEFAULT_BURN_IN = 500

DEFAULT_STOP_WORDS = frozenset(
    """
    a an and are as at be but by for from had has have he her his i if in is
    it its me my not of on or our she so that the their them they this to was
    we were what when which who will with would you your
    """.split()
)

_FOLD_IN_ITERATIONS = 50


def preprocess(text: str, stop_words: frozenset[str] = DEFAULT_STOP_WORDS) -> list[str]:
    """Tokens kept for topic modeling: alphabetic content words only."""
    return [
        tok
        for tok in tokenize(text)
        if tok != DASH_TOKEN and any(c.isalpha() for c in tok) and tok not in stop_words
    ]


@dataclass(frozen=True)
class TopicModel:
    """Fitted topic model; immutable after fitting.

    topic_word rows and doc_topic rows each sum to one. assignments is the
    final Gibbs state over the flattened training tokens, kept so that
    refits under the same seed can be compared exactly.
    """

    vocab: tuple[str, ...]
    topic_word: np.ndarray
    doc_topic: np.ndarray
    assignments: np.ndarray
    n_topics: int
    alpha: float
    beta: float
    seed: int

    @functools.cached_property
    def vocab_index(self) -> dict[str, int]:
        """Token -> vocabulary position, built once per model for fold-in."""
        return {tok: i for i, tok in enumerate(self.vocab)}

    @property
    def no_content_level(self) -> int:
        return self.n_topics

    def validate(self) -> None:
        if not np.allclose(self.topic_word.sum(axis=1), 1.0, atol=1e-9):
            raise DataError("topic-word rows do not sum to 1")
        if self.doc_topic.size and not np.allclose(self.doc_topic.sum(axis=1), 1.0, atol=1e-9):
            raise DataError("document-topic rows do not sum to 1")


def fit_topic_model(
    corpus: Sequence[str],
    k: int,
    seed: int,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
    n_sweeps: int = DEFAULT_SWEEPS,
    burn_in: int = DEFAULT_BURN_IN,
    stop_words: frozenset[str] = DEFAULT_STOP_WORDS,
) -> TopicModel:
    """Fit by collapsed Gibbs sampling, single chain, fixed seed.

    Topic-word and document-topic distributions are averages of the
    per-sweep posterior point estimates after burn-in.
    """
    if k < 2:
        raise ConfigError(f"topic count must be at least 2, got {k}")
    if not 0 <= burn_in < n_sweeps:
        raise ConfigError(f"burn_in must lie in [0, n_sweeps), got {burn_in}/{n_sweeps}")
    docs = [preprocess(text, stop_words) for text in corpus]
    vocab = tuple(sorted({tok for doc in docs for tok in doc}))
    if not vocab:
        raise DataError("vocabulary empty after preprocessing")
    vocab_index = {tok: i for i, tok in enumerate(vocab)}
    n_docs, n_words = len(docs), len(vocab)

    doc_of: list[int] = []
    word_of: list[int] = []
    for d, doc in enumerate(docs):
        for tok in doc:
            doc_of.append(d)
            word_of.append(vocab_index[tok])
    n_tokens = len(doc_of)

    rng = np.random.default_rng(seed)
    z = rng.integers(0, k, size=n_tokens)

    # Count bookkeeping in plain lists: the sampler touches scalars only.
    nkw = [[0] * n_words for _ in range(k)]
    nk = [0] * k
    nkd = [[0] * n_docs for _ in range(k)]
    for i in range(n_tokens):
        topic = int(z[i])
        nkw[topic][word_of[i]] += 1
        nk[topic] += 1
        nkd[topic][doc_of[i]] += 1

    doc_len = [len(doc) for doc in docs]
    beta_sum = beta * n_words
    phi_acc = np.zeros((k, n_words))
    theta_acc = np.zeros((n_docs, k))
    n_acc = 0
    z_list = [int(v) for v in z]
    topics_range = range(k)

    for sweep in range(n_sweeps):
        uniforms = rng.random(n_tokens)
        for i in range(n_tokens):
            w = word_of[i]
            d = doc_of[i]
            old = z_list[i]
            nkw[old][w] -= 1
            nk[old] -= 1
            nkd[old][d] -= 1
            total = 0.0
            weights = []
            for kk in topics_range:
                p = (nkw[kk][w] + beta) / (nk[kk] + beta_sum) * (nkd[kk][d] + alpha)
                total += p
                weights.append(total)
            threshold = uniforms[i] * total
            new = 0
            while weights[new] < threshold:
                new += 1
            z_list[i] = new
            nkw[new][w] += 1
            nk[new] += 1
            nkd[new][d] += 1
        if sweep >= burn_in:
            nkw_arr = np.asarray(nkw, dtype=float)
            phi_acc += (nkw_arr + beta) / (np.asarray(nk, dtype=float)[:, None] + beta_sum)
            nkd_arr = np.asarray(nkd, dtype=float).T
            theta_acc += (nkd_arr + alpha) / (np.asarray(doc_len, dtype=float)[:, None] + k * alpha)
            n_acc += 1

    phi = phi_acc / n_acc
    phi /= phi.sum(axis=1, keepdims=True)
    theta = theta_acc / n_acc
    theta /= theta.sum(axis=1, keepdims=True)

    model = TopicModel(
        vocab=vocab,
        topic_word=phi,
        doc_topic=theta,
        assignments=np.asarray(z_list, dtype=np.int64),
        n_topics=k,
        alpha=alpha,
        beta=beta,
        seed=seed,
    )
    model.validate()
    return model


def infer_proportions(model: TopicModel, text: str,
                      stop_words: frozenset[str] = DEFAULT_STOP_WORDS) -> np.ndarray | None:
    """Deterministic EM fold-in; None when no token is in vocabulary."""
    vocab_index = model.vocab_index
    ids = [vocab_index[tok] for tok in preprocess(text, stop_words) if tok in vocab_index]
    if not ids:
        return None
    cols = model.topic_word[:, ids]
    theta = np.full(model.n_topics, 1.0 / model.n_topics)
    for _ in range(_FOLD_IN_ITERATIONS):
        q = theta[:, None] * cols
        q /= q.sum(axis=0, keepdims=True)
        theta = model.alpha + q.sum(axis=1)
        theta /= theta.sum()
    return theta


def measure_topic(model: TopicModel, text: str,
                  stop_words: frozenset[str] = DEFAULT_STOP_WORDS) -> int:
    """Dominant topic of the text; ties break to the lowest topic index.

    Returns the reserved level K for text with no in-vocabulary token.
    """
    theta = infer_proportions(model, text, stop_words)
    if theta is None:
        return model.no_content_level
    return int(np.argmax(theta))


def match_topics(model: TopicModel, reference_rows: Iterable[Sequence[float]]) -> list[tuple[int, float]]:
    """Greedy cosine matching of fitted topics to reference distributions.

    Reference rows must be aligned with model.vocab. For each row returns
    (best unclaimed fitted topic index, cosine); used to compare recovered
    topics with planted ones up to permutation.
    """
    phi = model.topic_word
    norms = np.linalg.norm(phi, axis=1)
    taken: set[int] = set()
    out = []
    for row in reference_rows:
        vec = np.asarray(row, dtype=float)
        if vec.shape != (phi.shape[1],):
            raise DataError(
                f"reference row has length {vec.shape}, expected ({phi.shape[1]},)"
            )
        sims = phi @ vec / (norms * (np.linalg.norm(vec) or 1.0))
        order = np.argsort(-sims)
        best = next(int(i) for i in order if int(i) not in taken)
        taken.add(best)
        out.append((best, float(sims[best])))
    return out
