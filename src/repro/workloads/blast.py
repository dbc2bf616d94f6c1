"""Mini-BLAST: seed-and-extend local alignment over DNA.

A functional reimplementation of the BLASTN algorithm family used by the
paper's proof-of-concept (Section 4.4): exact-word seeding via a hashed
k-mer index, X-drop ungapped extension along diagonals, optional banded
Smith-Waterman gapped refinement, and per-diagonal hit culling.

Besides real alignments, every search reports its **work units** — the
count of elementary operations performed (index probes, extension steps,
DP cells).  Device models convert work units into reference-PC seconds
(:data:`REF_PC_OPS_PER_SECOND`), which is how the Table II/III timing
experiments derive input-dependent runtimes from genuine computation
rather than hard-coded constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError

__all__ = [
    "BlastParams",
    "HSP",
    "BlastDatabase",
    "BlastResult",
    "search",
    "smith_waterman",
    "REF_PC_OPS_PER_SECOND",
]

#: Calibration: elementary mini-BLAST operations the reference PC
#: (Pentium Dual Core 1.6 GHz) executes per second.  Chosen so the
#: Table II workload suite spans the same milliseconds-to-hours range as
#: the paper's measurements.
REF_PC_OPS_PER_SECOND = 5.0e6


@dataclass(frozen=True)
class BlastParams:
    """Scoring and search parameters (BLASTN-style defaults, scaled to
    the small synthetic databases used in simulation)."""

    word_size: int = 8
    match: int = 1
    mismatch: int = -3
    xdrop: int = 10
    min_score: int = 14
    gap_open: int = -5
    gap_extend: int = -2
    gapped: bool = False
    band: int = 8

    def __post_init__(self) -> None:
        if self.word_size < 2:
            raise WorkloadError(f"word_size must be >= 2, got {self.word_size}")
        if self.word_size > 15:
            raise WorkloadError("word_size > 15 overflows the k-mer packing")
        if self.match <= 0:
            raise WorkloadError("match score must be > 0")
        if self.mismatch >= 0:
            raise WorkloadError("mismatch score must be < 0")
        if self.xdrop <= 0:
            raise WorkloadError("xdrop must be > 0")
        if self.min_score <= 0:
            raise WorkloadError("min_score must be > 0")
        if self.gap_open >= 0 or self.gap_extend >= 0:
            raise WorkloadError("gap penalties must be < 0")
        if self.band < 1:
            raise WorkloadError("band must be >= 1")


@dataclass(frozen=True)
class HSP:
    """High-scoring segment pair: a local alignment hit.

    ``q_start/q_end`` and ``s_start/s_end`` are half-open ranges in the
    query and subject; ``score`` is the (un)gapped alignment score.
    """

    seq_index: int
    q_start: int
    q_end: int
    s_start: int
    s_end: int
    score: int
    gapped: bool = False
    strand: str = "+"

    def __post_init__(self) -> None:
        if self.q_end <= self.q_start or self.s_end <= self.s_start:
            raise WorkloadError("HSP ranges must be non-empty")

    @property
    def length(self) -> int:
        return self.q_end - self.q_start

    @property
    def diagonal(self) -> int:
        return self.s_start - self.q_start


@dataclass
class BlastResult:
    """Hits plus the operation count of the search."""

    hsps: List[HSP] = field(default_factory=list)
    work_units: int = 0
    seeds_examined: int = 0
    extensions_run: int = 0

    @property
    def best(self) -> Optional[HSP]:
        return max(self.hsps, key=lambda h: h.score) if self.hsps else None

    def ref_seconds(self) -> float:
        """Estimated runtime of this search on the reference PC."""
        return self.work_units / REF_PC_OPS_PER_SECOND


def _pack_words(codes: np.ndarray, k: int) -> np.ndarray:
    """All overlapping k-mers of ``codes`` packed into base-4 integers.

    Vectorised: a polynomial rolling evaluation over a sliding window
    view (no Python loop over positions).
    """
    n = codes.size - k + 1
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(
        codes.astype(np.int64), k)
    weights = 4 ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return windows @ weights


class BlastDatabase:
    """k-mer index over a set of subject sequences."""

    def __init__(self, sequences: Sequence[np.ndarray],
                 word_size: int = 8) -> None:
        if not sequences:
            raise WorkloadError("database needs at least one sequence")
        if word_size < 2 or word_size > 15:
            raise WorkloadError(f"bad word_size {word_size}")
        self.word_size = word_size
        self.sequences = [np.asarray(s, dtype=np.uint8) for s in sequences]
        for i, s in enumerate(self.sequences):
            if s.ndim != 1:
                raise WorkloadError(f"sequence {i} is not 1-D")
        #: word -> list of (seq_index, position)
        self._index: Dict[int, List[Tuple[int, int]]] = {}
        for seq_idx, seq in enumerate(self.sequences):
            words = _pack_words(seq, word_size)
            for pos, w in enumerate(words.tolist()):
                self._index.setdefault(w, []).append((seq_idx, pos))

    @property
    def total_bases(self) -> int:
        return sum(int(s.size) for s in self.sequences)

    def lookup(self, word: int) -> List[Tuple[int, int]]:
        return self._index.get(word, [])


def _ungapped_extend(
    query: np.ndarray,
    subject: np.ndarray,
    q_pos: int,
    s_pos: int,
    params: BlastParams,
) -> Tuple[int, int, int, int, int, int]:
    """X-drop ungapped extension from a seed at (q_pos, s_pos).

    Returns ``(q_start, q_end, s_start, s_end, score, steps)``.
    """
    k = params.word_size
    match, mismatch, xdrop = params.match, params.mismatch, params.xdrop
    # Seed itself is an exact match of k bases.
    score = k * match
    best = score
    steps = 0

    # Extend right.
    qi, si = q_pos + k, s_pos + k
    best_q_end, best_s_end = qi, si
    run = score
    while qi < query.size and si < subject.size:
        steps += 1
        run += match if query[qi] == subject[si] else mismatch
        qi += 1
        si += 1
        if run > best:
            best = run
            best_q_end, best_s_end = qi, si
        elif best - run > xdrop:
            break
    score_right = best

    # Extend left from the seed, starting from the best-so-far score.
    best = score_right
    run = score_right
    qi, si = q_pos - 1, s_pos - 1
    best_q_start, best_s_start = q_pos, s_pos
    while qi >= 0 and si >= 0:
        steps += 1
        run += match if query[qi] == subject[si] else mismatch
        if run > best:
            best = run
            best_q_start, best_s_start = qi, si
        elif best - run > xdrop:
            break
        qi -= 1
        si -= 1

    return (best_q_start, best_q_end, best_s_start, best_s_end, best, steps)


def smith_waterman(
    a: np.ndarray,
    b: np.ndarray,
    params: BlastParams,
) -> Tuple[int, int]:
    """Local alignment score of ``a`` vs ``b`` (affine-ish linear gaps).

    Uses a vectorised row-sweep DP (gap open+extend collapsed into a
    single per-gap-step penalty of ``gap_extend`` after ``gap_open`` on
    the first step, approximated as linear ``gap_open`` per step for
    simplicity — standard for mini implementations).  Returns
    ``(best_score, dp_cells)`` where ``dp_cells`` is the work performed.
    """
    a = np.asarray(a, dtype=np.int16)
    b = np.asarray(b, dtype=np.int16)
    if a.size == 0 or b.size == 0:
        raise WorkloadError("smith_waterman needs non-empty sequences")
    gap = params.gap_open  # linear gap model
    prev = np.zeros(b.size + 1, dtype=np.int32)
    best = 0
    for i in range(a.size):
        sub = np.where(b == a[i], params.match, params.mismatch).astype(
            np.int32)
        diag = prev[:-1] + sub
        cur = np.empty_like(prev)
        cur[0] = 0
        # up moves are vectorisable; left moves need the running max.
        up = prev[1:] + gap
        np.maximum(diag, up, out=diag)
        np.maximum(diag, 0, out=diag)
        running = 0
        for j in range(b.size):  # left-dependency scan
            running = max(diag[j], running + gap, 0)
            cur[j + 1] = running
        best = max(best, int(cur.max()))
        prev = cur
    return best, int(a.size) * int(b.size)


def search(
    db: BlastDatabase,
    query: np.ndarray,
    params: Optional[BlastParams] = None,
) -> BlastResult:
    """BLAST ``query`` against ``db``.

    Seeds every query k-mer against the index, runs X-drop ungapped
    extension on each novel (diagonal-culled) seed, optionally refines
    the best hits with banded Smith-Waterman, and returns HSPs scoring
    at least ``params.min_score``.
    """
    params = params or BlastParams(word_size=db.word_size)
    if params.word_size != db.word_size:
        raise WorkloadError(
            f"params.word_size ({params.word_size}) != database word size "
            f"({db.word_size})")
    query = np.asarray(query, dtype=np.uint8)
    if query.size < params.word_size:
        raise WorkloadError(
            f"query ({query.size}) shorter than word size "
            f"({params.word_size})")

    result = BlastResult()
    words = _pack_words(query, params.word_size)
    result.work_units += int(words.size)  # index probes

    # Per (seq, diagonal): rightmost query position already covered — the
    # classic culling that stops re-extending the same alignment.
    covered: Dict[Tuple[int, int], int] = {}
    best_per_diag: Dict[Tuple[int, int], HSP] = {}

    for q_pos, word in enumerate(words.tolist()):
        postings = db.lookup(word)
        result.seeds_examined += len(postings)
        result.work_units += 1 + len(postings)
        for seq_idx, s_pos in postings:
            diag = s_pos - q_pos
            key = (seq_idx, diag)
            if covered.get(key, -1) >= q_pos:
                continue  # inside an already-extended region
            subject = db.sequences[seq_idx]
            (q_start, q_end, s_start, s_end, score,
             steps) = _ungapped_extend(query, subject, q_pos, s_pos, params)
            result.extensions_run += 1
            result.work_units += steps + params.word_size
            covered[key] = q_end
            if score < params.min_score:
                continue
            hsp = HSP(seq_index=seq_idx, q_start=q_start, q_end=q_end,
                      s_start=s_start, s_end=s_end, score=score)
            prev = best_per_diag.get(key)
            if prev is None or hsp.score > prev.score:
                best_per_diag[key] = hsp

    hsps = sorted(best_per_diag.values(),
                  key=lambda h: (-h.score, h.seq_index, h.q_start))

    if params.gapped and hsps:
        refined: List[HSP] = []
        for hsp in hsps:
            subject = db.sequences[hsp.seq_index]
            pad = params.band
            qa = max(0, hsp.q_start - pad)
            qb = min(query.size, hsp.q_end + pad)
            sa = max(0, hsp.s_start - pad)
            sb = min(subject.size, hsp.s_end + pad)
            g_score, cells = smith_waterman(
                query[qa:qb], subject[sa:sb], params)
            result.work_units += cells
            refined.append(HSP(
                seq_index=hsp.seq_index, q_start=qa, q_end=qb,
                s_start=sa, s_end=sb, score=max(g_score, hsp.score),
                gapped=True))
        hsps = sorted(refined, key=lambda h: (-h.score, h.seq_index,
                                              h.q_start))

    result.hsps = hsps
    return result
