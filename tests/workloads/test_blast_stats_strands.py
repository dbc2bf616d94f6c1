"""Tests for reverse complements and both-strand search."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads import (
    BlastDatabase,
    decode,
    encode,
    random_database,
    random_dna,
    search,
)
from repro.workloads.blast import BlastResult


def reverse_complement(codes: np.ndarray) -> np.ndarray:
    """Reverse complement: A<->T, C<->G, sequence reversed.

    With codes A=0, C=1, G=2, T=3 the complement is ``3 - code``.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size and codes.max() > 3:
        raise WorkloadError("codes must be in 0..3")
    return (3 - codes[::-1]).astype(np.uint8)


def search_both_strands(db, query, params=None):
    """BLASTN semantics: search the query and its reverse complement.

    Real nucleotide BLAST scans both strands because the homolog may lie
    on the opposite strand of the subject.  Minus-strand HSP coordinates
    refer to the reverse-complemented query; ``strand`` distinguishes
    them.  Work units accumulate across both passes.  (A test-only
    search: the programs search one strand.)
    """
    forward = search(db, query, params)
    reverse = search(db, reverse_complement(query), params)
    merged = BlastResult(
        hsps=sorted(
            list(forward.hsps)
            + [replace(h, strand="-") for h in reverse.hsps],
            key=lambda h: (-h.score, h.seq_index, h.q_start)),
        work_units=forward.work_units + reverse.work_units,
        seeds_examined=forward.seeds_examined + reverse.seeds_examined,
        extensions_run=forward.extensions_run + reverse.extensions_run,
    )
    return merged


# -- reverse complement ---------------------------------------------------------

def test_reverse_complement_known_sequence():
    assert decode(reverse_complement(encode("ACGT"))) == "ACGT"  # palindrome
    assert decode(reverse_complement(encode("AACC"))) == "GGTT"
    assert decode(reverse_complement(encode("A"))) == "T"


def test_reverse_complement_is_involution():
    rng = np.random.default_rng(0)
    seq = random_dna(500, rng)
    assert np.array_equal(reverse_complement(reverse_complement(seq)), seq)


def test_reverse_complement_validation():
    with pytest.raises(WorkloadError):
        reverse_complement(np.array([7], dtype=np.uint8))


@given(st.text(alphabet="ACGT", min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_property_revcomp_involution(s):
    codes = encode(s)
    assert decode(reverse_complement(reverse_complement(codes))) == s


# -- both strands -----------------------------------------------------------------------

def test_minus_strand_homolog_found_only_by_both_strand_search():
    rng = np.random.default_rng(7)
    db_seqs = random_database(3, 600, rng)
    query = random_dna(90, rng)
    # Plant the *reverse complement* of the query.
    planted = reverse_complement(query)
    idx = 1
    db_seqs[idx][200:290] = planted
    db = BlastDatabase(db_seqs, word_size=8)

    forward_only = search(db, query)
    both = search_both_strands(db, query)
    strong_forward = [h for h in forward_only.hsps if h.score >= 60]
    assert not strong_forward  # invisible on the plus strand
    best = both.best
    assert best is not None
    assert best.strand == "-"
    assert best.seq_index == idx
    assert best.score >= 80


def test_both_strand_search_accumulates_work():
    rng = np.random.default_rng(8)
    db = BlastDatabase(random_database(2, 300, rng), word_size=8)
    q = random_dna(50, rng)
    single = search(db, q)
    both = search_both_strands(db, q)
    assert both.work_units > single.work_units
    assert both.seeds_examined >= single.seeds_examined


def test_plus_strand_hits_keep_plus_label():
    rng = np.random.default_rng(9)
    db_seqs = random_database(2, 400, rng)
    query = db_seqs[0][100:170].copy()
    db = BlastDatabase(db_seqs, word_size=8)
    both = search_both_strands(db, query)
    assert both.best.strand == "+"
