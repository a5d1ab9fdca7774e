"""Counter-based random stream derivation.

A single master seed fans out into named substreams keyed by
(domain, *indices).  Streams are derived through SeedSequence spawn keys
and backed by the Philox counter-based generator, so adding or reordering
parallel work never reshuffles anyone else's randomness.
"""

import numpy as np

# stream domains
TOPOLOGY = 0
DATA = 1
BATCH = 2
CHANNEL = 3
NOISE = 4
EVAL = 5


def substream(seed: int, *key: int) -> np.random.Generator:
    """Derive an independent generator for (seed, key...)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))

