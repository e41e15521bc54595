"""Hard domain assignment, entropy diagnostics and the two-model
cross-agreement filter with histogram pruning. A document's MAP domain is
the index its frames carry into the classifier, where the network turns it
into the one-hot UBIC."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import formats
from .corpus import Bags
from .lda import LdaModel, infer_thetas

__all__ = ["DomainAssignment", "FilterResult", "assign",
           "average_domain_entropy", "cross_agreement_filter",
           "distribution_stats", "write_stats_csv"]


@dataclass(frozen=True)
class DomainAssignment:
    """MAP domain of one document plus its full posterior and a weight used
    for aggregation (token count, standing in for duration). It holds a
    read-only copy of the theta it is given."""

    doc_id: str
    theta: np.ndarray
    map_domain: int
    weight: float = 1.0

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        if theta.size and theta.min() < 0:
            raise ValueError(f"document {self.doc_id!r}: theta must not be negative")
        if abs(theta.sum() - 1.0) > 1e-9:
            raise ValueError(f"document {self.doc_id!r}: theta must sum to 1")
        if self.map_domain != int(np.argmax(theta)):
            raise ValueError(
                f"document {self.doc_id!r}: map_domain is not argmax(theta)"
            )
        if self.weight < 0:
            raise ValueError(f"document {self.doc_id!r}: negative weight")

    @property
    def num_domains(self) -> int:
        return self.theta.shape[0]


def assign(model: LdaModel, corpus: Bags) -> list[DomainAssignment]:
    """Infer theta for every document and take the MAP domain.

    np.argmax breaks exact ties toward the lowest index, matching the stated
    tie rule. The weight is the document's token count.
    """
    if not len(corpus):
        raise ValueError("corpus is empty")
    thetas = infer_thetas(model, corpus)
    return [
        DomainAssignment(doc_id=doc_id, theta=theta, map_domain=int(np.argmax(theta)),
                         weight=float(total))
        for doc_id, theta, total in zip(corpus.ids, thetas, corpus.counts.sum(axis=1))
    ]


def average_domain_entropy(
    assignments: Sequence[DomainAssignment], unit: str = "bits"
) -> float:
    """Mean posterior entropy over documents, in bits (default) or nats."""
    if not assignments:
        raise ValueError("no assignments")
    if unit not in ("bits", "nats"):
        raise ValueError(f"unknown entropy unit {unit!r}")
    total = 0.0
    for a in assignments:
        theta = a.theta
        nz = theta[theta > 0]
        total += float(-(nz * np.log(nz)).sum())
    mean_nats = total / len(assignments)
    return mean_nats / np.log(2.0) if unit == "bits" else mean_nats


@dataclass(frozen=True)
class FilterResult:
    kept_ids: list          # document ids surviving the pruning, input order
    tuple_histogram: dict   # (domain_a, domain_b) -> total weight, all tuples seen
    cutoff: tuple           # last kept tuple and its normalized weight
    kept_weight: float
    total_weight: float


def cross_agreement_filter(
    assign_a: Sequence[DomainAssignment],
    assign_b: Sequence[DomainAssignment],
    target_weight: float,
) -> FilterResult:
    """Histogram pruning over the Cartesian product of two domain mappings.

    Each document contributes its weight to the (model-A MAP domain, model-B
    MAP domain) tuple. Tuples are ranked by weight descending (ties by tuple
    index ascending) and documents are kept from the top tuples until the
    cumulative kept weight first reaches ``target_weight``.
    """
    if not assign_a or not assign_b:
        raise ValueError("no assignments to filter")
    if not target_weight > 0:
        raise ValueError("target_weight must be positive")
    if not target_weight < np.inf:
        raise ValueError("target_weight must be finite")
    by_id_b = {a.doc_id: a for a in assign_b}
    ids_a = [a.doc_id for a in assign_a]
    if set(ids_a) != set(by_id_b) or len(ids_a) != len(assign_b):
        raise ValueError("assignment lists cover different document sets")

    k_b = assign_b[0].num_domains
    pair_of = {}
    weights = {}
    total_weight = 0.0
    for a in assign_a:
        b = by_id_b[a.doc_id]
        pair = (a.map_domain, b.map_domain)
        pair_of[a.doc_id] = pair
        weights[pair] = weights.get(pair, 0.0) + a.weight
        total_weight += a.weight
    if target_weight > total_weight + 1e-12:
        raise ValueError("target_weight exceeds the total corpus weight")

    # rank by weight descending, ties by flat tuple index ascending
    ranked = sorted(weights, key=lambda p: (-weights[p], p[0] * k_b + p[1]))
    kept_tuples = set()
    kept_weight = 0.0
    cutoff = None
    for pair in ranked:
        kept_tuples.add(pair)
        kept_weight += weights[pair]
        cutoff = (pair, weights[pair] / total_weight)
        if kept_weight >= target_weight:
            break

    kept_ids = [doc_id for doc_id in ids_a if pair_of[doc_id] in kept_tuples]
    return FilterResult(
        kept_ids=kept_ids,
        tuple_histogram=dict(weights),
        cutoff=cutoff,
        kept_weight=kept_weight,
        total_weight=total_weight,
    )


def distribution_stats(
    assignments: Sequence[DomainAssignment],
    group_of: Mapping[str, str],
    top_n: int,
) -> list[tuple[str, str, float]]:
    """Per-group weight of the top-N domains, remaining domains as "other".

    Domains are ranked by total weight across all groups; rows come out
    grouped by group name, top domains first in rank order, then "other".
    ``top_n`` 0 puts every domain in "other".
    """
    if top_n < 0:
        raise ValueError("top_n must be >= 0")
    totals: dict[int, float] = {}
    table: dict[tuple[str, int], float] = {}
    for a in assignments:
        if a.doc_id not in group_of:
            raise KeyError(f"document {a.doc_id!r} has no group mapping")
        group = group_of[a.doc_id]
        totals[a.map_domain] = totals.get(a.map_domain, 0.0) + a.weight
        key = (group, a.map_domain)
        table[key] = table.get(key, 0.0) + a.weight

    ranked = sorted(totals, key=lambda d: (-totals[d], d))
    top = ranked[:top_n]
    rank_of = {d: i for i, d in enumerate(top)}
    groups = sorted({g for g, _ in table})

    rows: list[tuple[str, str, float]] = []
    for group in groups:
        top_weights = {d: 0.0 for d in top}
        other = 0.0
        for (g, d), w in table.items():
            if g != group:
                continue
            if d in rank_of:
                top_weights[d] += w
            else:
                other += w
        for d in top:
            if top_weights[d] > 0:
                rows.append((group, str(d), top_weights[d]))
        if other > 0:
            rows.append((group, "other", other))
    return rows


def write_stats_csv(path, rows: Sequence[tuple[str, str, float]]) -> None:
    formats.write_csv(path, ["group", "domain", "weight"],
                      ([group, domain, repr(float(weight))]
                       for group, domain, weight in rows))
