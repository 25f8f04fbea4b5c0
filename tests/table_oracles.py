"""Hand-enumerable decode problems: log-prob tables keyed by token prefix.

Shared by the decoder unit tests and the acceptance checks. A table maps
each non-terminal prefix to a normalized log-prob vector over V tokens;
token EOS terminates a sequence, as it does every search.
"""

import itertools

import numpy as np

from outline2report.corpus import EOS


def random_table(seed):
    """Seeded random instance: (table, V, max_len), with V > EOS."""
    rng = np.random.default_rng(seed)
    V = int(rng.integers(EOS + 1, 6))
    max_len = int(rng.integers(1, 4))
    table = {}
    for length in range(max_len):
        for prefix in itertools.product(range(V), repeat=length):
            if EOS in prefix:
                continue
            x = rng.normal(size=V)
            table[prefix] = x - np.log(np.exp(x).sum())
    assert all((row <= 0).all() for row in table.values())  # beam_search's premise
    return table, V, max_len


# The search state for make_step: a one-array tuple holding each row's fed
# tokens, starting from one row with none.
ROOT = (np.zeros((1, 0), dtype=np.int64),)


def make_step(table):
    """step_fn over a prefix table. Each row of the state's array holds the
    tokens fed so far, BOS first, so the row's prefix skips its first column."""
    def step_fn(state, tokens):
        fed = np.column_stack([state[0], tokens])
        return np.stack([table[tuple(p[1:])] for p in fed.tolist()]), (fed,)
    return step_fn


def path_logprob(table, tokens):
    """The table's log-probs along `tokens`, added from 0.0 in emission order,
    as a search adds them."""
    total = 0.0
    for i, tok in enumerate(tokens):
        total += float(table[tuple(tokens[:i])][tok])
    return total


def mean_logp(seq):
    """Summed log-prob over length of a DecodedSequence: the beam ranking."""
    return seq.logprob / len(seq.tokens)


def exhaustive_best(table, V, max_len):
    """Brute-force argmax of sum(logp)/length over every decodable sequence.

    Ties break toward the lexicographically smaller token sequence, matching
    the beam contract.
    """
    best = None

    def walk(prefix, total):
        nonlocal best
        done = (prefix and prefix[-1] == EOS) or len(prefix) == max_len
        if done:
            score = total / len(prefix)
            key = (-score, prefix)
            if best is None or key < best[0]:
                best = (key, prefix, score)
            return
        logp = table[prefix]
        for tok in range(V):
            walk(prefix + (tok,), total + logp[tok])

    walk((), 0.0)
    return best[1], best[2]
