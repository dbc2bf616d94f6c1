"""Synthetic nucleotide sequences for the BLAST workload.

The paper's proof-of-concept runs NCBI BLAST over real databases; we
generate synthetic DNA with controllable homology instead: random
backgrounds, point-mutated copies (homologs), and databases with planted
matches — enough to exercise exactly the code paths a BLAST search uses
(seeding, extension, scoring) with known ground truth for tests.

Sequences are numpy ``uint8`` arrays with codes 0..3 = A, C, G, T.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import WorkloadError

__all__ = [
    "DNA_ALPHABET",
    "encode",
    "decode",
    "random_dna",
    "mutate",
    "random_database",
    "plant_homolog",
]

DNA_ALPHABET = "ACGT"
_CODE = {c: i for i, c in enumerate(DNA_ALPHABET)}


def encode(seq: str) -> np.ndarray:
    """String → uint8 code array; rejects non-ACGT characters."""
    try:
        return np.fromiter((_CODE[c] for c in seq.upper()), dtype=np.uint8,
                           count=len(seq))
    except KeyError as exc:
        raise WorkloadError(f"invalid nucleotide {exc.args[0]!r}") from None


def decode(codes: np.ndarray) -> str:
    """Code array → string."""
    codes = np.asarray(codes)
    if codes.size and (codes.max() > 3 or codes.min() < 0):
        raise WorkloadError("codes must be in 0..3")
    lookup = np.frombuffer(DNA_ALPHABET.encode(), dtype=np.uint8)
    return lookup[codes].tobytes().decode()


def random_dna(length: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random DNA of ``length`` bases."""
    if length <= 0:
        raise WorkloadError(f"length must be > 0, got {length}")
    return rng.integers(0, 4, size=length, dtype=np.uint8)


def mutate(seq: np.ndarray, rate: float,
           rng: np.random.Generator) -> np.ndarray:
    """Copy of ``seq`` with i.i.d. point substitutions at ``rate``.

    Substitutions always change the base (drawn from the 3 alternatives),
    so ``rate`` is the expected fraction of differing positions.
    """
    if not 0.0 <= rate <= 1.0:
        raise WorkloadError(f"rate must be in [0, 1], got {rate}")
    out = np.array(seq, dtype=np.uint8, copy=True)
    if rate == 0.0 or out.size == 0:
        return out
    mask = rng.random(out.size) < rate
    if mask.any():
        shifts = rng.integers(1, 4, size=int(mask.sum()), dtype=np.uint8)
        out[mask] = (out[mask] + shifts) % 4
    return out


def random_database(
    n_sequences: int,
    seq_length: int,
    rng: np.random.Generator,
) -> List[np.ndarray]:
    """``n_sequences`` independent random sequences of equal length."""
    if n_sequences <= 0:
        raise WorkloadError(f"n_sequences must be > 0, got {n_sequences}")
    return [random_dna(seq_length, rng) for _ in range(n_sequences)]


def plant_homolog(
    database: List[np.ndarray],
    query: np.ndarray,
    rng: np.random.Generator,
    *,
    seq_index: Optional[int] = None,
    position: Optional[int] = None,
    mutation_rate: float = 0.05,
) -> Tuple[int, int]:
    """Embed a mutated copy of ``query`` into one database sequence.

    Returns ``(seq_index, position)`` of the planted homolog.  The target
    sequence must be long enough to hold the query.
    """
    if not database:
        raise WorkloadError("database is empty")
    if seq_index is None:
        seq_index = int(rng.integers(0, len(database)))
    if not 0 <= seq_index < len(database):
        raise WorkloadError(f"seq_index {seq_index} out of range")
    target = database[seq_index]
    if target.size < query.size:
        raise WorkloadError(
            f"target sequence ({target.size}) shorter than query "
            f"({query.size})")
    if position is None:
        position = int(rng.integers(0, target.size - query.size + 1))
    if not 0 <= position <= target.size - query.size:
        raise WorkloadError(f"position {position} out of range")
    homolog = mutate(query, mutation_rate, rng)
    target[position:position + query.size] = homolog
    return seq_index, position
