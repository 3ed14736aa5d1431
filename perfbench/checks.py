"""Correctness checks on what the serving stack answered."""

from __future__ import annotations

import numpy as np

from loadgen import Phase


def well_formed(ids: np.ndarray, num_services: int) -> np.ndarray:
    """Mask of the rows that hold k distinct, in-range service ids."""
    in_range = ((ids >= 0) & (ids < num_services)).all(axis=1)
    distinct = (np.diff(np.sort(ids, axis=1), axis=1) != 0).all(axis=1)
    return in_range & distinct


def bad_answers(phase: Phase, num_services: int) -> int:
    """Answered requests whose ids are not k distinct, in-range service ids."""
    return int((~well_formed(phase.ids[phase.ok], num_services)).sum())


def exact_top_k(queries: np.ndarray, services: np.ndarray, k: int,
                block: int = 64) -> np.ndarray:
    """The bench's own numpy exact top-k ids (unordered within a row)."""
    rows = []
    for start in range(0, len(queries), block):
        scores = queries[start:start + block] @ services.T
        rows.append(np.argpartition(scores, -k, axis=1)[:, -k:])
    return np.concatenate(rows)


def exact_mismatches(served: np.ndarray, queries: np.ndarray,
                     services: np.ndarray, block: int = 64,
                     tol: float = 1e-9) -> int:
    """Rows of an exact index's answers that are not the exact top-k.

    Each served row must hold every id whose float64 score is above the
    k-th best score, ranked by descending score; the remaining places may
    hold any ids whose score ties the k-th best (within ``tol``: two BLAS
    kernels may round the same inner product differently).  ``served``
    rows must be well formed (see :func:`well_formed`).
    """
    k = served.shape[1]
    wrong = 0
    for start in range(0, len(queries), block):
        scores = queries[start:start + block] @ services.T
        cut = -np.partition(-scores, k - 1, axis=1)[:, k - 1]
        rows = served[start:start + block]
        got = np.take_along_axis(scores, rows, axis=1)
        above = (scores > cut[:, None] + tol).sum(axis=1)
        bad = ((got < cut[:, None] - tol).any(axis=1)
               | ((got > cut[:, None] + tol).sum(axis=1) != above)
               | (np.diff(got, axis=1) > tol).any(axis=1))
        wrong += int(bad.sum())
    return wrong


def recall(served: np.ndarray, exact: np.ndarray) -> float:
    """Mean share of each exact top-k row found in the served row."""
    k = exact.shape[1]
    hits = [len(np.intersect1d(row, truth)) for row, truth in zip(served, exact)]
    return float(np.mean(hits)) / k


def ranking_mismatches(served: np.ndarray, ids: np.ndarray,
                       scores: np.ndarray) -> tuple:
    """Compare served top-k rows with a reference's deeper ranking.

    Every id the reference ranks strictly above its k-th score must be
    served at the same rank.  The remaining ranks may hold any ids whose
    reference score equals the k-th score: which of several tied ids
    makes the cut is not defined by either index.  Returns
    ``(rows that differ, rows that differ only among ids tied at rank k)``.
    """
    k = served.shape[1]
    differing = tied = 0
    for row, ref_ids, ref_scores in zip(served, ids, scores):
        if np.array_equal(row, ref_ids[:k]):
            continue
        cut = ref_scores[k - 1]
        above = int((ref_scores[:k] > cut).sum())
        tie_group = set(ref_ids[ref_scores == cut].tolist())
        if (np.array_equal(row[:above], ref_ids[:above])
                and set(row[above:].tolist()) <= tie_group
                and len(set(row[above:].tolist())) == k - above):
            tied += 1
        else:
            differing += 1
    return differing, tied
