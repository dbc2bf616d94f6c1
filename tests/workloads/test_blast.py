"""Tests for the mini-BLAST kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads import (
    BlastDatabase,
    BlastParams,
    BlastResult,
    encode,
    mutate,
    plant_homolog,
    random_database,
    random_dna,
    search,
    smith_waterman,
)
from repro.workloads.blast import _pack_words


# -- word packing -------------------------------------------------------------

def test_pack_words_values():
    # "ACGT" with k=2: AC=0*4+1=1, CG=1*4+2=6, GT=2*4+3=11
    codes = encode("ACGT")
    words = _pack_words(codes, 2)
    assert words.tolist() == [1, 6, 11]


def test_pack_words_short_sequence():
    assert _pack_words(encode("AC"), 3).size == 0


def test_pack_words_count():
    codes = encode("A" * 100)
    assert _pack_words(codes, 8).size == 93


# -- params / database validation --------------------------------------------

def test_params_validation():
    with pytest.raises(WorkloadError):
        BlastParams(word_size=1)
    with pytest.raises(WorkloadError):
        BlastParams(word_size=16)
    with pytest.raises(WorkloadError):
        BlastParams(match=0)
    with pytest.raises(WorkloadError):
        BlastParams(mismatch=1)
    with pytest.raises(WorkloadError):
        BlastParams(xdrop=0)
    with pytest.raises(WorkloadError):
        BlastParams(min_score=0)
    with pytest.raises(WorkloadError):
        BlastParams(gap_open=1)
    with pytest.raises(WorkloadError):
        BlastParams(band=0)


def test_database_validation():
    with pytest.raises(WorkloadError):
        BlastDatabase([])
    with pytest.raises(WorkloadError):
        BlastDatabase([np.zeros((2, 2), dtype=np.uint8)])
    rng = np.random.default_rng(0)
    db = BlastDatabase(random_database(3, 100, rng), word_size=8)
    assert sum(int(s.size) for s in db.sequences) == 300


def test_word_size_mismatch_rejected():
    rng = np.random.default_rng(0)
    db = BlastDatabase(random_database(1, 100, rng), word_size=8)
    with pytest.raises(WorkloadError):
        search(db, random_dna(50, rng), BlastParams(word_size=6))


def test_query_shorter_than_word_rejected():
    rng = np.random.default_rng(0)
    db = BlastDatabase(random_database(1, 100, rng), word_size=8)
    with pytest.raises(WorkloadError):
        search(db, random_dna(5, rng))


# -- exact and homologous matches -----------------------------------------------

def test_exact_substring_found_with_full_score():
    rng = np.random.default_rng(1)
    db_seqs = random_database(3, 400, rng)
    query = db_seqs[1][100:160].copy()  # exact substring
    db = BlastDatabase(db_seqs, word_size=8)
    result = search(db, query)
    assert result.hsps, "exact substring must be found"
    best = result.best
    assert best.seq_index == 1
    assert best.score >= 60  # 60 matching bases * match score 1
    assert best.s_start <= 100 and best.s_end >= 160 or (
        best.s_start >= 95 and best.s_end <= 165)


def test_planted_homolog_found():
    rng = np.random.default_rng(2)
    db_seqs = random_database(5, 600, rng)
    query = random_dna(100, rng)
    idx, pos = plant_homolog(db_seqs, query, rng, mutation_rate=0.03)
    db = BlastDatabase(db_seqs, word_size=8)
    result = search(db, query)
    assert result.best is not None
    assert result.best.seq_index == idx
    # Alignment must overlap the planted region.
    assert result.best.s_start < pos + 100 and result.best.s_end > pos


def test_unrelated_query_scores_low():
    rng = np.random.default_rng(3)
    db = BlastDatabase(random_database(3, 500, rng), word_size=10)
    query = random_dna(100, rng)
    result = search(db, query, BlastParams(word_size=10, min_score=25))
    # With word size 10 and random data, long high-scoring HSPs are
    # vanishingly unlikely.
    assert all(h.score < 40 for h in result.hsps)


def test_hsps_sorted_by_score_desc():
    rng = np.random.default_rng(4)
    db_seqs = random_database(4, 500, rng)
    query = random_dna(80, rng)
    plant_homolog(db_seqs, query, rng, seq_index=0, mutation_rate=0.02)
    plant_homolog(db_seqs, query, rng, seq_index=2, mutation_rate=0.15)
    db = BlastDatabase(db_seqs, word_size=8)
    result = search(db, query)
    scores = [h.score for h in result.hsps]
    assert scores == sorted(scores, reverse=True)
    assert result.best.seq_index == 0  # less-mutated copy wins


def test_work_units_grow_with_database_size():
    rng = np.random.default_rng(5)
    query = random_dna(60, rng)
    small = BlastDatabase(random_database(2, 300, rng), word_size=8)
    large = BlastDatabase(random_database(20, 3000, rng), word_size=8)
    w_small = search(small, query).work_units
    w_large = search(large, query).work_units
    assert w_large > w_small
    assert search(small, query).ref_seconds() > 0


def test_result_counters_populated():
    rng = np.random.default_rng(6)
    db_seqs = random_database(2, 400, rng)
    query = db_seqs[0][50:120].copy()
    db = BlastDatabase(db_seqs, word_size=8)
    result = search(db, query)
    assert result.seeds_examined >= 1
    assert result.extensions_run >= 1
    assert result.work_units > result.seeds_examined


def test_empty_result_best_is_none():
    r = BlastResult()
    assert r.best is None


# -- smith-waterman -----------------------------------------------------------

def test_sw_identical_sequences():
    params = BlastParams()
    seq = encode("ACGTACGTAC")
    score, cells = smith_waterman(seq, seq, params)
    assert score == 10 * params.match
    assert cells == 100


def test_sw_no_similarity_zero_floor():
    params = BlastParams()
    score, _ = smith_waterman(encode("AAAAAAAA"), encode("CCCCCCCC"), params)
    assert score == 0


def test_sw_local_alignment_ignores_flanks():
    params = BlastParams()
    a = encode("TTTT" + "ACGTACGT" + "TTTT")
    b = encode("GGGG" + "ACGTACGT" + "GGGG")
    score, _ = smith_waterman(a, b, params)
    assert score >= 8 * params.match


def test_sw_gap_bridging():
    """A single insertion should not break the alignment when gaps are
    cheaper than the flanking matches are valuable."""
    params = BlastParams(gap_open=-2, gap_extend=-1)
    a = encode("ACGTACGTACGT")
    b = encode("ACGTAACGTACGT")  # one inserted A
    score, _ = smith_waterman(a, b, params)
    assert score >= 12 * params.match + params.gap_open


def test_sw_empty_rejected():
    with pytest.raises(WorkloadError):
        smith_waterman(np.array([], dtype=np.uint8), encode("ACGT"),
                       BlastParams())


def test_gapped_search_refines_hsps():
    rng = np.random.default_rng(7)
    db_seqs = random_database(2, 400, rng)
    query = db_seqs[1][100:180].copy()
    db = BlastDatabase(db_seqs, word_size=8)
    ungapped = search(db, query, BlastParams(word_size=8))
    gapped = search(db, query, BlastParams(word_size=8, gapped=True))
    assert gapped.best is not None and gapped.best.gapped
    assert gapped.best.score >= ungapped.best.score
    assert gapped.work_units > ungapped.work_units


# -- properties ----------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_property_self_search_always_finds_self(seed):
    """A query cut from the database always finds itself with a score of
    at least its length (match=1)."""
    rng = np.random.default_rng(seed)
    db_seqs = random_database(2, 300, rng)
    start = int(rng.integers(0, 200))
    query = db_seqs[0][start:start + 60].copy()
    db = BlastDatabase(db_seqs, word_size=8)
    result = search(db, query)
    assert result.best is not None
    hit = next(h for h in result.hsps if h.seq_index == 0)
    assert hit.score >= 60  # full-length exact match


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_property_hsp_ranges_within_bounds(seed):
    rng = np.random.default_rng(seed)
    db_seqs = random_database(3, 250, rng)
    query = random_dna(70, rng)
    plant_homolog(db_seqs, query, rng, mutation_rate=0.1)
    db = BlastDatabase(db_seqs, word_size=7)
    result = search(db, query, BlastParams(word_size=7))
    for h in result.hsps:
        assert 0 <= h.q_start < h.q_end <= query.size
        subject = db.sequences[h.seq_index]
        assert 0 <= h.s_start < h.s_end <= subject.size
        assert h.length == h.q_end - h.q_start
        # Ungapped HSPs lie on a single diagonal.
        assert (h.s_end - h.s_start) == (h.q_end - h.q_start)
