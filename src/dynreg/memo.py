"""One bounded memo for per-semigroup precomputation.

Functions decorated with `memo` keep their last MEMO_SIZE results in an LRU
cache. Semigroups hash and compare by their table, so equal tables built
separately share one entry.
"""

from __future__ import annotations

from functools import lru_cache

MEMO_SIZE = 128

memo = lru_cache(maxsize=MEMO_SIZE)
