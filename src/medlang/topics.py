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
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from .arrays import reduce_in_order
from .errors import ConfigError, DataError
from .textutil import tokenize

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


def preprocess(tokens: list[str]) -> list[str]:
    """The tokens kept for topic modeling: alphabetic content words only."""
    return [tok for tok in tokens
            if tok not in DEFAULT_STOP_WORDS and (tok.isalpha() or any(c.isalpha() for c in tok))]


@dataclass(frozen=True)
class TopicModel:
    """Fitted topic model; immutable after fitting.

    topic_word rows each sum to one. assignments is the final Gibbs state
    over the flattened training tokens, kept so that refits under the same
    seed can be compared exactly.
    """

    vocab: tuple[str, ...]
    topic_word: np.ndarray
    assignments: np.ndarray
    n_topics: int
    alpha: float
    beta: float
    seed: int

    @functools.cached_property
    def vocab_index(self) -> dict[str, int]:
        """Token -> vocabulary position of each word preprocess keeps, built once per model
        for fold-in. A fitted model's vocabulary holds only such words."""
        kept = set(preprocess(list(self.vocab)))
        return {tok: i for i, tok in enumerate(self.vocab) if tok in kept}

    @property
    def no_content_level(self) -> int:
        return self.n_topics

    def validate(self) -> None:
        table = self.topic_word
        if not np.isfinite(table).all() or (table < 0).any():
            raise DataError("topic-word table has a negative or non-finite cell")
        if table.size and not np.allclose(table.sum(axis=1), 1.0, atol=1e-9):
            raise DataError("topic-word rows do not sum to 1")


def check_priors(alpha: float, beta: float) -> None:
    """Raise ConfigError unless both Dirichlet priors are finite and > 0."""
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"topic {name} must be finite and > 0, got {value}")


def check_sweeps(n_sweeps: int, burn_in: int) -> None:
    """Raise ConfigError unless burn_in lies in [0, n_sweeps)."""
    if not 0 <= burn_in < n_sweeps:
        raise ConfigError(f"burn_in must lie in [0, n_sweeps), got {burn_in}/{n_sweeps}")


def fit_topic_model(
    corpus: Sequence[str],
    k: int,
    seed: int,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
    n_sweeps: int = DEFAULT_SWEEPS,
    burn_in: int = DEFAULT_BURN_IN,
) -> TopicModel:
    """Fit by synchronous collapsed Gibbs sampling, single chain, fixed seed.

    Each sweep resamples every token from the previous sweep's counts less
    its own assignment (AD-LDA, Newman et al. 2009, one token per processor),
    drawing one uniform per token. The topic-word distributions average the
    per-sweep posterior estimates after burn-in.
    """
    if k < 2:
        raise ConfigError(f"topic count must be at least 2, got {k}")
    check_sweeps(n_sweeps, burn_in)
    check_priors(alpha, beta)
    docs = [preprocess(tokenize(text)) for text in corpus]
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
    tokens = np.arange(word_of.size)

    def counts(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        nkw = np.bincount(z * n_words + word_of, minlength=k * n_words).reshape(k, n_words)
        ndk = np.bincount(doc_of * k + z, minlength=n_docs * k).reshape(n_docs, k)
        return nkw, nkw.sum(axis=1), ndk

    nkw, nk, ndk = counts(z)
    beta_sum = beta * n_words
    phi_acc = np.zeros((k, n_words))

    for sweep in range(n_sweeps):
        # Topic-major (k, tokens) weights, so each call runs along the token axis. A token's
        # own topic is then recomputed from its counts less its own assignment, subtracting
        # in integers before adding the prior.
        weights = np.take((nkw + beta) / (nk + beta_sum)[:, None], word_of, axis=1)
        weights *= np.repeat((ndk + alpha).T, doc_len, axis=1)
        own = np.take(nkw - 1 + beta, z * n_words + word_of)
        own /= np.take(nk - 1 + beta_sum, z)
        own *= np.take(ndk - 1 + alpha, doc_of * k + z)
        weights[z, tokens] = own
        for row in range(1, k):  # cumulative sum over topics, in topic order
            weights[row] += weights[row - 1]
        threshold = rng.random(word_of.size) * weights[-1]
        # The new topic is the number of cumulative weights below the threshold. The last
        # row, the total, never is: u * total <= total for u < 1.
        z = (weights[0] < threshold).astype(np.int64)
        for row in weights[1:-1]:
            z += row < threshold
        nkw, nk, ndk = counts(z)
        if sweep >= burn_in:
            phi_acc += (nkw + beta) / (nk[:, None] + beta_sum)

    model = TopicModel(
        vocab=vocab,
        topic_word=phi_acc / phi_acc.sum(axis=1, keepdims=True),
        assignments=z,
        n_topics=k,
        alpha=alpha,
        beta=beta,
        seed=seed,
    )
    model.validate()
    return model


def fold_in(model: TopicModel, docs: Sequence[list[str]]) -> np.ndarray:
    """Deterministic EM fold-in: topic proportions of each text, one row each.

    Each text is given as its tokenize() list. Rows of text with no
    in-vocabulary token are NaN. Texts are folded in together as a C-order
    (topics, tokens, texts) array with texts innermost, one per power-of-two
    class of in-vocabulary length so that padding stays under half of it. A
    padded token has topic-word weight 0 and a topic sum of 1, so it adds
    exactly 0.0 to the sum over tokens. Sums over tokens and over topics run
    in index order (reduce_in_order), so no row depends on the batch it came
    in. A text leaves its batch once an iteration returns its
    proportions bit for bit: each iteration is the same map of the previous
    proportions, so every later one would return them too. The others stop
    after _FOLD_IN_ITERATIONS.
    """
    # Every token's id, -1 off the vocabulary preprocess keeps, in one pass; then the kept ids
    # and the text of each, in text order.
    ids = np.fromiter(map(model.vocab_index.get, chain.from_iterable(docs), repeat(-1)), np.int64)
    doc_of = np.repeat(np.arange(len(docs)), list(map(len, docs)))[ids >= 0]
    ids = ids[ids >= 0]
    lengths = np.bincount(doc_of, minlength=len(docs))
    k, n_words = model.n_topics, len(model.vocab)
    table = np.concatenate([model.topic_word, np.zeros((k, 1))], axis=1)  # padding is n_words
    out = np.full((len(docs), k), np.nan)
    length_class = np.frexp(lengths)[1]  # e with 2**(e - 1) <= length < 2**e
    for cls in np.unique(length_class[lengths > 0]):
        rows = np.flatnonzero(length_class == cls)
        real = np.arange(lengths[rows].max())[:, None] < lengths[rows]  # (tokens, texts)
        word = np.full(real.shape, n_words)
        word.T[real.T] = ids[length_class[doc_of] == cls]  # text by text
        cols = np.take(table, word, axis=1)
        padding = (~real).astype(float)
        theta = np.full((k, rows.size), 1.0 / k)
        # Two buffers of the batch's size: one holds cols, the other each iteration's
        # product. Texts leave by copying the rest of cols into the product buffer;
        # the buffers then trade roles, so no iteration allocates a batch.
        held, spare = cols.reshape(-1), np.empty(cols.size)
        for _ in range(_FOLD_IN_ITERATIONS):
            q = spare[:cols.size].reshape(cols.shape)
            np.multiply(theta[:, None], cols, out=q)
            norm = reduce_in_order(np.add, q, 0)
            norm += padding
            q /= norm
            previous, theta = theta, reduce_in_order(np.add, q, 1)
            theta += model.alpha
            theta /= reduce_in_order(np.add, theta, 0)
            # Bits, not values: 0.0 == -0.0 though a later iteration may tell them apart.
            moving = (theta.view(np.int64) != previous.view(np.int64)).any(axis=0)
            if not moving.all():
                out[rows[~moving]] = theta[:, ~moving].T
                rows, theta = rows[moving], theta.compress(moving, axis=1)
                if not rows.size:
                    break
                shape = cols.shape[:2] + (rows.size,)
                held, spare = spare, held
                # mode="clip" writes straight into out; "raise" would go through a copy
                cols = np.take(cols, np.flatnonzero(moving), axis=2, mode="clip",
                               out=held[:math.prod(shape)].reshape(shape))
                padding = padding.compress(moving, axis=1)
        out[rows] = theta.T
    return out


def measure_topics(model: TopicModel, docs: Sequence[list[str]]) -> np.ndarray:
    """Dominant topic of each text's tokenize() list, ties to the lowest index; level K if
    none of its tokens is in vocabulary."""
    theta = fold_in(model, docs)
    return np.where(np.isnan(theta[:, 0]), model.no_content_level, np.argmax(theta, axis=1))


def measure_topic(model: TopicModel, text: str) -> int:
    """Dominant topic of one text, as measure_topics."""
    return int(measure_topics(model, [tokenize(text)])[0])


def match_topics(model: TopicModel, reference_rows: Iterable[Sequence[float]]) -> list[tuple[int, float]]:
    """Greedy cosine matching of fitted topics to reference distributions.

    Reference rows must be aligned with model.vocab, and there must be no
    more of them than fitted topics. For each row returns (best unclaimed
    fitted topic index, cosine); used to compare recovered topics with
    planted ones up to permutation.
    """
    phi = model.topic_word
    norms = np.linalg.norm(phi, axis=1)
    taken: set[int] = set()
    out = []
    for row in reference_rows:
        if len(taken) == model.n_topics:
            raise DataError(f"more reference rows than the {model.n_topics} fitted topics")
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
