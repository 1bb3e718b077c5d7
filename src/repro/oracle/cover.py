"""``SeqCover`` — the cover oracle (Section 5.2).

Following the classical relational procedure (and the paper's SeqCover):
test ``Σ \\ {φ} ⊨ φ`` for one GFD after another, in
:func:`~repro.core.cover.scan_order`, through the closure
characterization, and drop each redundant GFD before the next test.  The
product cover is ``ParCover`` (:func:`repro.parallel.parallel_cover`),
which must keep the same rules.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Set

from ..core.cover import CoverResult, scan_order
from ..gfd.gfd import GFD
from ..gfd.implication import ImplicationChecker

__all__ = ["sequential_cover"]


def sequential_cover(sigma: Sequence[GFD]) -> CoverResult:
    """Compute a cover of ``Σ`` by leave-one-out implication testing.

    The procedure is sound for any order because implication is monotone in
    ``Σ``: once ``Σ' ⊨ φ`` with ``Σ' ⊆ Σ \\ {φ}``, removing other redundant
    GFDs later keeps a derivation as long as removal is always justified
    against the *current* remainder — which is what the loop tests.
    """
    started = time.perf_counter()
    sigma = list(sigma)
    # one checker over Σ serves every leave-one-out test: the dead rules and
    # the tested one are excluded per call, the rest chase in Σ order
    checker = ImplicationChecker(sigma)
    checker.instantiate(gfd.pattern for gfd in sigma)
    dead: Set[int] = set()
    removed: List[GFD] = []
    for index in scan_order(sigma):
        if checker.implies(sigma[index], exclude=dead | {index}):
            dead.add(index)
            removed.append(sigma[index])
    cover = [gfd for index, gfd in enumerate(sigma) if index not in dead]
    return CoverResult(
        cover=cover,
        removed=removed,
        implication_tests=len(sigma),
        elapsed_seconds=time.perf_counter() - started,
    )
