"""Trustwords rendering and the lazy-user partial-preimage cost estimator.

Trustwords map the XOR of two 160-bit fingerprints onto ten words from a
65536-entry dictionary (16 bits per word); showing only the first five
words means only the first 80 XOR bits get compared.

The estimator answers: if a user checks only ``u`` of the ``ell`` middle
bits (plus ``r`` bits at each boundary) of a ``b``-bit fingerprint, how
many brute-force attempts does an adversary need to land a partial
preimage with probability ``p``? The numerator of the no-preimage
probability is evaluated with exact big integers; only the final
logarithms go through floating point, via log1p to survive q being
extremely close to 1.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORDLIST_SIZE = 1 << 16


class AnalysisError(ValueError):
    pass


class NoFlippableBitsError(AnalysisError):
    """All middle bits are checked (t = 0): there is no attack surface."""


# ---------------------------------------------------------------------------
# Trustwords
# ---------------------------------------------------------------------------

_SYLLABLES = ["ba", "de", "fi", "go", "hu", "ka", "le", "mi",
              "no", "pu", "ra", "se", "ti", "vo", "wu", "za"]


_SYNTHETIC: dict[type, "Wordlist"] = {}
_SYNTHETIC_LOCK = threading.Lock()


class Wordlist:
    """Ordered dictionary of exactly 2^16 distinct words."""

    def __init__(self, words):
        self.words = tuple(words)
        if len(self.words) != WORDLIST_SIZE:
            raise AnalysisError(
                f"wordlist must have {WORDLIST_SIZE} entries, got {len(self.words)}")
        self._index = {w: i for i, w in enumerate(self.words)}
        if len(self._index) != WORDLIST_SIZE:
            raise AnalysisError("wordlist entries must be distinct")

    def __getitem__(self, index: int) -> str:
        return self.words[index]

    def index(self, word: str) -> int:
        return self._index[word]

    @classmethod
    def synthetic(cls) -> "Wordlist":
        """Deterministic built-in list: four syllables per word, one per nibble.

        Built once per process, by one thread; a Wordlist is immutable, so
        callers share it.
        """
        with _SYNTHETIC_LOCK:
            if cls not in _SYNTHETIC:
                _SYNTHETIC[cls] = cls("".join(syllables) for syllables
                                      in itertools.product(_SYLLABLES, repeat=4))
            return _SYNTHETIC[cls]

    @classmethod
    def from_file(cls, path) -> "Wordlist":
        """UTF-8 file, one word per line, exactly 65536 lines."""
        return cls(Path(path).read_text(encoding="utf-8").splitlines())


def trustwords(fpr_self, fpr_peer, wordlist: Wordlist, count: int = 5) -> list[str]:
    """Word rendering of fpr_self XOR fpr_peer; symmetric in its arguments."""
    if count not in (5, 10):
        raise AnalysisError(f"count must be 5 or 10, got {count}")
    xored = bytes(a ^ b for a, b in zip(fpr_self.bytes, fpr_peer.bytes))
    blocks = [int.from_bytes(xored[i:i + 2], "big") for i in range(0, 20, 2)]
    return [wordlist[block] for block in blocks[:count]]


# ---------------------------------------------------------------------------
# Partial-preimage cost model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackParams:
    """Fingerprint-checking pattern of a lazy user.

    b: fingerprint bits; r: consecutive bits checked at each boundary;
    u: middle bits checked out of the ell = b - 2r available.
    """

    b: int
    r: int
    u: int
    p: float = 0.5

    def __post_init__(self):
        if self.b <= 0 or self.r < 0:
            raise AnalysisError("b must be positive and r nonnegative")
        if self.ell < 0:
            raise AnalysisError(f"2*r = {2 * self.r} exceeds b = {self.b}")
        if not 0 <= self.u <= self.ell:
            raise AnalysisError(f"u must lie in [0, {self.ell}], got {self.u}")
        if not 0 < self.p < 1:
            raise AnalysisError(f"p must lie in (0, 1), got {self.p}")

    @property
    def ell(self) -> int:
        return self.b - 2 * self.r

    @property
    def t(self) -> int:
        """Middle bits the adversary may flip unnoticed."""
        return self.ell - self.u


def q_no_preimage(params: AttackParams) -> Fraction:
    """Exact probability that a random string is NOT a valid partial preimage.

    q = (2^b - sum_{k=1}^{t} C(ell, k)) / 2^b
    """
    flippable = sum(math.comb(params.ell, k) for k in range(1, params.t + 1))
    return Fraction((1 << params.b) - flippable, 1 << params.b)


def _ln_q(params: AttackParams) -> float:
    # 1 - q is exact as a Fraction; log1p avoids cancellation when it is
    # far below float epsilon relative to 1.
    return math.log1p(-float(1 - q_no_preimage(params)))


def effort(params: AttackParams) -> float:
    """log2 of the expected attempts e = log_q(1 - p)."""
    if params.t <= 0:
        raise NoFlippableBitsError("no flippable bits: every middle bit is checked")
    return math.log2(math.log1p(-params.p) / _ln_q(params))


def success_prob(params: AttackParams, attempts: int) -> float:
    """p = 1 - q^attempts for a given number of brute-force attempts."""
    if attempts < 0:
        raise AnalysisError("attempts must be nonnegative")
    if attempts == 0 or params.t <= 0:
        return 0.0
    return -math.expm1(attempts * _ln_q(params))


def published_cases() -> list[tuple[AttackParams, float]]:
    """The two published five-word lazy-user checking patterns.

    (i) first and last words plus two middle words checked: u = 32;
    (ii) first and last words plus one middle word: u = 16. Both over the
    80-bit five-word prefix with 16-bit boundary words, p = 0.5.
    """
    cases = [AttackParams(b=80, r=16, u=32), AttackParams(b=80, r=16, u=16)]
    return [(c, effort(c)) for c in cases]
