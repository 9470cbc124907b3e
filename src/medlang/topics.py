"""Latent topic mediator: collapsed Gibbs LDA plus dominant-topic readout.

The Gibbs sweep is synchronous (AD-LDA: Newman et al., "Distributed
Algorithms for Topic Models", JMLR 2009). The model is fit on training text
only and frozen; held-out text is scored by a deterministic EM fold-in
against the fitted topic-word distributions, so measurement needs no
randomness at inference time. Documents with no in-vocabulary token map to
the reserved "no-content" level K.
"""

from __future__ import annotations

import functools
import math
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
        for name, table in (("topic-word", self.topic_word), ("document-topic", self.doc_topic)):
            if not np.isfinite(table).all() or (table < 0).any():
                raise DataError(f"{name} table has a negative or non-finite cell")
            if table.size and not np.allclose(table.sum(axis=1), 1.0, atol=1e-9):
                raise DataError(f"{name} rows do not sum to 1")


def check_priors(alpha: float, beta: float) -> None:
    """Raise ConfigError unless both Dirichlet priors are finite and > 0."""
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"topic {name} must be finite and > 0, got {value}")


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
    """Fit by synchronous collapsed Gibbs sampling, single chain, fixed seed.

    Each sweep resamples every token from the previous sweep's counts less
    its own assignment (AD-LDA, Newman et al. 2009, one token per processor),
    drawing one uniform per token. Topic-word and document-topic
    distributions average the per-sweep posterior estimates after burn-in.
    """
    if k < 2:
        raise ConfigError(f"topic count must be at least 2, got {k}")
    if not 0 <= burn_in < n_sweeps:
        raise ConfigError(f"burn_in must lie in [0, n_sweeps), got {burn_in}/{n_sweeps}")
    check_priors(alpha, beta)
    docs = [preprocess(text, stop_words) for text in corpus]
    vocab = tuple(sorted({tok for doc in docs for tok in doc}))
    if not vocab:
        raise DataError("vocabulary empty after preprocessing")
    vocab_index = {tok: i for i, tok in enumerate(vocab)}
    n_docs, n_words = len(docs), len(vocab)
    doc_len = np.array([len(doc) for doc in docs])
    doc_of = np.repeat(np.arange(n_docs), doc_len)
    word_of = np.array([vocab_index[tok] for doc in docs for tok in doc])

    rng = np.random.default_rng(seed)
    z = rng.integers(0, k, size=word_of.size)

    def counts(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        nkw = np.bincount(z * n_words + word_of, minlength=k * n_words).reshape(k, n_words)
        ndk = np.bincount(doc_of * k + z, minlength=n_docs * k).reshape(n_docs, k)
        return nkw, nkw.sum(axis=1), ndk

    nkw, nk, ndk = counts(z)
    beta_sum = beta * n_words
    phi_acc = np.zeros((k, n_words))
    theta_acc = np.zeros((n_docs, k))

    for sweep in range(n_sweeps):
        own = z[:, None] == np.arange(k)
        weights = nkw[:, word_of].T - own + beta
        weights /= nk - own + beta_sum
        weights *= ndk[doc_of] - own + alpha
        cumulative = np.cumsum(weights, axis=1, out=weights)
        threshold = rng.random(word_of.size) * cumulative[:, -1]
        # First topic whose cumulative weight reaches the threshold.
        z = (cumulative < threshold[:, None]).sum(axis=1)
        nkw, nk, ndk = counts(z)
        if sweep >= burn_in:
            phi_acc += (nkw + beta) / (nk[:, None] + beta_sum)
            theta_acc += (ndk + alpha) / (doc_len[:, None] + k * alpha)

    model = TopicModel(
        vocab=vocab,
        topic_word=phi_acc / phi_acc.sum(axis=1, keepdims=True),
        doc_topic=theta_acc / theta_acc.sum(axis=1, keepdims=True),
        assignments=z.astype(np.int64),
        n_topics=k,
        alpha=alpha,
        beta=beta,
        seed=seed,
    )
    model.validate()
    return model


def fold_in(model: TopicModel, texts: Sequence[str],
            stop_words: frozenset[str] = DEFAULT_STOP_WORDS) -> np.ndarray:
    """Deterministic EM fold-in: topic proportions of each text, one row each.

    Rows of text with no in-vocabulary token are NaN. Texts of one
    in-vocabulary length share a (texts, tokens, topics) array, summed over
    tokens in token order, so no row depends on the batch it came in.
    """
    index = model.vocab_index
    ids = [[index[tok] for tok in preprocess(text, stop_words) if tok in index] for text in texts]
    lengths = np.array([len(doc) for doc in ids], dtype=np.int64)
    k = model.n_topics
    out = np.full((len(texts), k), np.nan)
    for length in np.unique(lengths[lengths > 0]):
        rows = np.flatnonzero(lengths == length)
        cols = model.topic_word.T[np.array([ids[row] for row in rows])]
        theta = np.full((rows.size, 1, k), 1.0 / k)
        for _ in range(_FOLD_IN_ITERATIONS):
            q = theta * cols
            q /= q.sum(axis=2, keepdims=True)
            theta = model.alpha + q.sum(axis=1, keepdims=True)
            theta /= theta.sum(axis=2, keepdims=True)
        out[rows] = theta[:, 0]
    return out


def measure_topics(model: TopicModel, texts: Sequence[str],
                   stop_words: frozenset[str] = DEFAULT_STOP_WORDS) -> np.ndarray:
    """Dominant topic of each text, ties to the lowest index; level K if none is in vocabulary."""
    theta = fold_in(model, texts, stop_words)
    return np.where(np.isnan(theta[:, 0]), model.no_content_level, np.argmax(theta, axis=1))


def infer_proportions(model: TopicModel, text: str,
                      stop_words: frozenset[str] = DEFAULT_STOP_WORDS) -> np.ndarray | None:
    """Fold-in of one text; None when no token is in vocabulary."""
    theta = fold_in(model, [text], stop_words)[0]
    return None if np.isnan(theta[0]) else theta


def measure_topic(model: TopicModel, text: str,
                  stop_words: frozenset[str] = DEFAULT_STOP_WORDS) -> int:
    """Dominant topic of one text, as measure_topics."""
    return int(measure_topics(model, [text], stop_words)[0])


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
