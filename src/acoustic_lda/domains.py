"""Hard domain assignment, entropy diagnostics and the two-model
cross-agreement filter with histogram pruning, on one record per corpus,
``Assignments``, as bags are one ``corpus.Bags``. A document's MAP domain is
the index its frames carry into the classifier, where the network turns it
into the one-hot UBIC. An assignments file is jsonl under the rules of
:mod:`.formats`: a ``_meta`` seed line, then {"id", "theta", "map_domain",
"weight"} per document, with unique ids and one K (theta length) per file.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import formats
from .corpus import Bags, _Rows, read_only
from .lda import LdaModel, infer_thetas

__all__ = ["Assignments", "load_assignments", "save_assignments", "FilterResult",
           "assign", "average_domain_entropy", "cross_agreement_filter",
           "distribution_stats", "write_stats_csv"]


@dataclass(frozen=True)
class Assignments:
    """A corpus's domain assignments: document i is ``ids[i]``, unique, with
    its posterior over K domains in row i of the (M, K) ``thetas``, finite,
    >= 0 and summing to 1, and the weight ``weights[i]``, finite and >= 0, used
    for aggregation (its token count, standing in for duration). ``map_domains``
    (M,) is each row's argmax, so an exact tie goes to the lowest index. The
    arrays are read-only (``read_only``). ``len()`` is the document count M."""

    ids: tuple
    thetas: np.ndarray
    weights: np.ndarray
    map_domains: np.ndarray = field(init=False)

    def __post_init__(self):
        ids = tuple(self.ids)
        thetas, weights = read_only(self.thetas, float), read_only(self.weights, float)
        if not (thetas.ndim == 2 and len(thetas) == len(ids) and weights.shape == (len(ids),)):
            raise ValueError(f"thetas {thetas.shape} and weights {weights.shape} "
                             f"must be M x K and M, for M ids")
        _check_posteriors(ids, thetas, weights)
        formats.check_unique_ids(ids, set())
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "map_domains",
                           read_only(thetas.argmax(axis=1) if len(ids) else [], np.int64))

    def __len__(self) -> int:
        return self.thetas.shape[0]

    @property
    def num_domains(self) -> int:
        return self.thetas.shape[1]

    @property
    def total_weight(self) -> float:
        """The sum of the weights; np.bincount adds them one at a time, in order."""
        return float(np.bincount(np.zeros(len(self), np.int64), self.weights, 1)[0])


def _check_posteriors(ids, thetas, weights) -> None:
    """Raise ValueError naming the first document whose theta is not finite,
    is negative or does not sum to 1, or whose weight is not finite or is
    negative."""
    for bad, message in ((~np.isfinite(thetas).all(axis=1), "theta must be finite"),
                         ((thetas < 0).any(axis=1), "theta must not be negative"),
                         (abs(thetas.sum(axis=1) - 1.0) > 1e-9, "theta must sum to 1"),
                         (~np.isfinite(weights), "weight must be finite"),
                         (weights < 0, "negative weight")):
        if bad.any():
            raise ValueError(f"document {ids[np.argmax(bad)]!r}: {message}")


def load_assignments(path) -> Assignments:
    """An assignments file as one ``Assignments`` record. Each line's theta
    and weight are checked as the record checks them, and for its
    ``map_domain`` and the earlier lines' K; its faults are raised naming its
    ``file:line``."""
    thetas, weights = _Rows(2, float), _Rows(1, float)

    def build(obj):
        theta = formats.numbers(obj.get("theta"), "'theta'", (None,))
        map_domain, weight = obj.get("map_domain"), obj.get("weight", 1.0)
        if not theta.size:
            raise ValueError("'theta' must not be empty")
        if type(map_domain) is not int:
            raise ValueError("'map_domain' must be an integer")
        # a json number; an integer beyond the float range has no float value
        if not (type(weight) is float
                or type(weight) is int and abs(weight) <= sys.float_info.max):
            raise ValueError("'weight' must be a number within the float range")
        weight = np.array([weight], dtype=float)
        _check_posteriors([obj["id"]], theta[None], weight)
        if map_domain != int(theta.argmax()):
            raise ValueError(f"document {obj['id']!r}: map_domain is not argmax(theta)")
        if thetas.width is not None and theta.size != thetas.width:
            raise ValueError(f"'theta' has {theta.size} domains, earlier lines {thetas.width}")
        thetas.append(theta[None])
        weights.append(weight)
        return obj["id"]

    ids = formats.read_jsonl(path, build, unique=True)
    return Assignments(ids=ids, thetas=thetas.frozen(), weights=weights.frozen())


def save_assignments(path, assignments: Assignments, seed) -> None:
    formats.write_jsonl(path, (
        {"id": doc_id, "theta": theta, "map_domain": map_domain, "weight": weight}
        for doc_id, theta, map_domain, weight
        in zip(assignments.ids, assignments.thetas.tolist(),
               assignments.map_domains.tolist(), assignments.weights.tolist())),
        meta={"seed": seed})


def assign(model: LdaModel, corpus: Bags) -> Assignments:
    """Infer theta for every document and take the MAP domain. The weight is
    the document's token count."""
    if not len(corpus):
        raise ValueError("corpus is empty")
    return Assignments(ids=corpus.ids, thetas=infer_thetas(model, corpus),
                       weights=corpus.counts.sum(axis=1))


def average_domain_entropy(assignments: Assignments, unit: str = "bits") -> float:
    """Mean posterior entropy over documents, in bits (default) or nats."""
    if not len(assignments):
        raise ValueError("no assignments")
    if unit not in ("bits", "nats"):
        raise ValueError(f"unknown entropy unit {unit!r}")
    total = 0.0
    for theta in assignments.thetas:
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


def cross_agreement_filter(assign_a: Assignments, assign_b: Assignments,
                           target_weight: float) -> FilterResult:
    """Histogram pruning over the Cartesian product of two domain mappings.

    Each document contributes its weight to the (model-A MAP domain, model-B
    MAP domain) tuple. Tuples are ranked by weight descending (ties by tuple
    index ascending) and documents are kept from the top tuples until the
    cumulative kept weight first reaches ``target_weight``.
    """
    if not len(assign_a) or not len(assign_b):
        raise ValueError("no assignments to filter")
    total_weight = assign_a.total_weight
    if not total_weight > 0:
        raise ValueError("the total corpus weight is 0: no document has weight to keep")
    if not target_weight > 0:
        raise ValueError("target_weight must be positive")
    if not target_weight < np.inf:
        raise ValueError("target_weight must be finite")
    row_b = {doc_id: i for i, doc_id in enumerate(assign_b.ids)}
    if set(assign_a.ids) != set(row_b):
        raise ValueError("assignment lists cover different document sets")

    # each document's flat tuple index, domain_a * K_b + domain_b, in a's order
    k_b = assign_b.num_domains
    pairs = (assign_a.map_domains * k_b
             + assign_b.map_domains[[row_b[doc_id] for doc_id in assign_a.ids]])
    # np.bincount adds the weights one at a time, in input order
    weights = np.bincount(pairs, assign_a.weights).tolist()
    if target_weight > total_weight + 1e-12:
        raise ValueError("target_weight exceeds the total corpus weight")

    seen = np.unique(pairs).tolist()
    # rank by weight descending, ties by flat tuple index ascending
    ranked = sorted(seen, key=lambda p: (-weights[p], p))
    kept_tuples = set()
    kept_weight = 0.0
    for pair in ranked:
        kept_tuples.add(pair)
        kept_weight += weights[pair]
        if kept_weight >= target_weight:
            break

    return FilterResult(
        kept_ids=[doc_id for doc_id, p in zip(assign_a.ids, pairs.tolist())
                  if p in kept_tuples],
        tuple_histogram={divmod(p, k_b): weights[p] for p in seen},
        cutoff=(divmod(pair, k_b), weights[pair] / total_weight),
        kept_weight=kept_weight,
        total_weight=total_weight,
    )


def distribution_stats(assignments: Assignments, group_of: Mapping[str, str],
                       top_n: int) -> list[tuple[str, str, float]]:
    """Per-group weight of the top-N domains, remaining domains as "other".

    Domains are ranked by total weight across all groups; rows come out
    grouped by group name, top domains first in rank order, then "other".
    ``top_n`` 0 puts every domain in "other".
    """
    if top_n < 0:
        raise ValueError("top_n must be >= 0")
    for doc_id in assignments.ids:
        if doc_id not in group_of:
            raise ValueError(f"document {doc_id!r} has no group mapping")
    groups = sorted({group_of[doc_id] for doc_id in assignments.ids})
    k, row = assignments.num_domains, {group: i for i, group in enumerate(groups)}
    # each document's flat (group, domain) cell, group * K + domain
    cells = (np.array([row[group_of[doc_id]] for doc_id in assignments.ids], dtype=np.int64)
             * k + assignments.map_domains)
    # np.bincount adds the weights one at a time, in input order
    totals = np.bincount(assignments.map_domains, assignments.weights, minlength=k)
    table = np.bincount(cells, assignments.weights, minlength=len(groups) * k)
    # ranked by total weight descending, ties by domain ascending
    top = np.argsort(-totals, kind="stable")[:top_n].tolist()
    # a group's "other" adds its cells outside the top in the order they first appear
    seen, first = np.unique(cells, return_index=True)
    others = seen[np.argsort(first)]
    others = others[~np.isin(others % k, top)]
    other = np.bincount(others // k, table[others], minlength=len(groups)).tolist()
    table = table.tolist()

    rows: list[tuple[str, str, float]] = []
    for i, group in enumerate(groups):
        rows += [(group, str(d), table[i * k + d]) for d in top if table[i * k + d] > 0]
        if other[i] > 0:
            rows.append((group, "other", other[i]))
    return rows


def write_stats_csv(path, rows: Sequence[tuple[str, str, float]]) -> None:
    formats.write_csv(path, ["group", "domain", "weight"],
                      ([group, domain, repr(float(weight))]
                       for group, domain, weight in rows))
