"""A stream prefix as whole arrays, for tests: the blocks of
`words.prefix_blocks`, concatenated."""

from types import SimpleNamespace

import numpy as np

from normfreq import words


def whole_prefix(engine, spec, num_digits, g=10, order=words.MSF):
    """The prefix's digits, lengths and values, `final_index` (the least n
    whose word reaches N), `consumed_of_final` (that word's digits inside
    the prefix), `final_length` (its whole length) and `flush` (the cut
    falls on a word end)."""
    blocks = list(words.prefix_blocks(engine, spec, num_digits, g, order))
    last = blocks[-1]
    consumed = int(last.lengths[-1])
    return SimpleNamespace(
        digits=np.concatenate([block.digits for block in blocks]),
        lengths=np.concatenate([block.lengths for block in blocks]),
        values=np.concatenate([block.values for block in blocks]),
        final_index=last.first + len(last.values) - 1,
        consumed_of_final=consumed,
        final_length=last.final_length,
        flush=consumed == last.final_length,
    )
