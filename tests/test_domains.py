import numpy as np
import pytest

from acoustic_lda.corpus import generate_synthetic_lda_corpus, to_bag
from acoustic_lda.domains import (
    DomainAssignment,
    UbicVector,
    assign,
    average_domain_entropy,
    cross_agreement_filter,
    distribution_stats,
    ubic_encode,
    write_stats_csv,
)
from acoustic_lda.lda import LdaModel, e_step_document, fit
from oracles import prefix_filter_oracle


def da(doc_id, theta, weight=1.0):
    theta = np.asarray(theta, dtype=float)
    return DomainAssignment(doc_id=doc_id, theta=theta,
                            map_domain=int(np.argmax(theta)), weight=weight)


def random_assignment_pair(rng, k_a, k_b, n_docs):
    out_a, out_b = [], []
    for i in range(n_docs):
        w = float(rng.uniform(0.5, 3.0))
        ta = rng.dirichlet(np.ones(k_a))
        tb = rng.dirichlet(np.ones(k_b))
        out_a.append(da(f"d{i}", ta, w))
        out_b.append(da(f"d{i}", tb, w))
    return out_a, out_b


class TestAssign:
    def test_argmax(self):
        a = da("x", [0.7, 0.2, 0.1])
        assert a.map_domain == 0

    def test_exact_tie_takes_lowest(self):
        a = da("x", [0.5, 0.5])
        assert a.map_domain == 0

    def test_synthetic_corpus_matches_generating_topic(self):
        rng = np.random.default_rng(0)
        beta = np.array([
            [0.4, 0.3, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.1, 0.2, 0.3, 0.4],
        ])
        docs, thetas = generate_synthetic_lda_corpus(
            0.05, beta, 200, 40, seed=1, return_thetas=True)
        bags = [to_bag(d, 8) for d in docs]
        model = fit(bags, 2)
        assignments = assign(model, bags)
        gen = thetas.argmax(axis=1)
        agree = np.mean([a.map_domain == g for a, g in zip(assignments, gen)])
        # fitted topic labels may be swapped relative to the generator
        assert max(agree, 1.0 - agree) >= 0.95

    def test_weight_is_token_count(self):
        model = LdaModel(alpha=np.array([1.0]),
                         log_beta=np.log(np.array([[0.5, 0.5]])))
        bags = [to_bag_counts("d", [3, 4])]
        out = assign(model, bags)
        assert out[0].weight == 7.0

    def test_batched_matches_single_document(self):
        rng = np.random.default_rng(11)
        beta = rng.dirichlet(np.ones(6), size=3)
        model = LdaModel(alpha=np.array([0.2, 0.5, 0.9]), log_beta=np.log(beta))
        counts = [[4, 0, 0, 0, 0, 0], [2, 1, 0, 3, 0, 5], [0, 0, 0, 0, 0, 0],
                  [0, 7, 1, 0, 0, 0], [1, 1, 1, 1, 1, 1]]
        bags = [to_bag_counts(f"d{i}", c) for i, c in enumerate(counts)]
        with pytest.warns(UserWarning, match="'d2'"):
            out = assign(model, bags)
        np.testing.assert_array_equal(out[2].theta, np.full(3, 1.0 / 3))
        for i in (0, 1, 3, 4):
            gamma = e_step_document(model, bags[i]).gamma
            np.testing.assert_allclose(out[i].theta, gamma / gamma.sum(),
                                       atol=1e-12, rtol=0)
            assert out[i].map_domain == int(np.argmax(gamma))

    def test_empty_corpus(self):
        model = LdaModel(alpha=np.array([1.0]),
                         log_beta=np.log(np.array([[0.5, 0.5]])))
        with pytest.raises(ValueError):
            assign(model, [])


def to_bag_counts(doc_id, counts):
    from acoustic_lda.corpus import BagOfSounds
    return BagOfSounds(id=doc_id, counts=np.asarray(counts, dtype=np.int64))


class TestUbic:
    def test_one_hot(self):
        code = ubic_encode(da("x", [0.1, 0.1, 0.7, 0.1]))
        np.testing.assert_array_equal(code.code, [0, 0, 1, 0])
        assert code.domain == 2

    def test_k1(self):
        code = ubic_encode(da("x", [1.0]))
        np.testing.assert_array_equal(code.code, [1.0])

    def test_k64_width(self):
        theta = np.zeros(64)
        theta[5] = 1.0
        code = ubic_encode(da("x", theta))
        assert code.num_domains == 64
        # augmenting a 440-dim feature vector gives a 504-wide input
        assert 440 + code.num_domains == 504

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            UbicVector(code=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            UbicVector(code=np.array([0.0, 0.5]))


class TestEntropy:
    def test_one_hot_zero(self):
        assignments = [da("a", [1.0, 0.0]), da("b", [0.0, 1.0])]
        assert average_domain_entropy(assignments) == 0.0

    def test_uniform_16_is_4_bits(self):
        assignments = [da("a", np.full(16, 1 / 16))]
        assert abs(average_domain_entropy(assignments) - 4.0) < 1e-12

    def test_nats_unit(self):
        assignments = [da("a", [0.5, 0.5])]
        assert abs(average_domain_entropy(assignments, unit="nats")
                   - np.log(2)) < 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(1)
        k = 8
        assignments = [da(f"d{i}", rng.dirichlet(np.ones(k))) for i in range(50)]
        h = average_domain_entropy(assignments)
        assert 0.0 <= h <= np.log2(k)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_domain_entropy([])


class TestCrossAgreementFilter:
    def test_simple_counting(self):
        a = [da("1", [0.9, 0.1]), da("2", [0.8, 0.2]),
             da("3", [0.7, 0.3]), da("4", [0.2, 0.8])]
        b = [da("1", [0.9, 0.1]), da("2", [0.8, 0.2]),
             da("3", [0.1, 0.9]), da("4", [0.3, 0.7])]
        result = cross_agreement_filter(a, b, target_weight=2.0)
        assert sorted(result.kept_ids) == ["1", "2"]
        assert result.cutoff[0] == (0, 0)
        assert result.kept_weight == 2.0

    def test_target_equals_total_keeps_all(self):
        rng = np.random.default_rng(2)
        a, b = random_assignment_pair(rng, 3, 4, 30)
        total = sum(x.weight for x in a)
        result = cross_agreement_filter(a, b, total)
        assert sorted(result.kept_ids) == sorted(x.doc_id for x in a)

    def test_matches_prefix_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k_a, k_b = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            a, b = random_assignment_pair(rng, k_a, k_b, 40)
            total = sum(x.weight for x in a)
            target = 0.6 * total
            result = cross_agreement_filter(a, b, target)
            pairs = [((x.map_domain, y.map_domain), x.weight)
                     for x, y in zip(a, b)]
            kept_tuples = prefix_filter_oracle(pairs, k_b, target)
            want = {x.doc_id for x, y in zip(a, b)
                    if (x.map_domain, y.map_domain) in kept_tuples}
            assert set(result.kept_ids) == want
            assert result.kept_weight >= target

    def test_minimality(self):
        rng = np.random.default_rng(4)
        a, b = random_assignment_pair(rng, 3, 3, 50)
        total = sum(x.weight for x in a)
        target = 0.5 * total
        result = cross_agreement_filter(a, b, target)
        cutoff_weight = result.tuple_histogram[result.cutoff[0]]
        assert result.kept_weight >= target
        assert result.kept_weight - cutoff_weight < target

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a, b = random_assignment_pair(rng, 4, 4, 40)
        r1 = cross_agreement_filter(a, b, 10.0)
        r2 = cross_agreement_filter(a, b, 10.0)
        assert r1.kept_ids == r2.kept_ids

    def test_mismatched_ids(self):
        a = [da("1", [1.0])]
        b = [da("2", [1.0])]
        with pytest.raises(ValueError, match="different document sets"):
            cross_agreement_filter(a, b, 1.0)

    def test_nonpositive_target(self):
        a = [da("1", [1.0])]
        with pytest.raises(ValueError):
            cross_agreement_filter(a, a, 0.0)


class TestDistributionStats:
    def test_single_group_single_domain(self):
        rows = distribution_stats([da("a", [1.0], weight=5.0)], {"a": "news"}, 4)
        assert rows == [("news", "0", 5.0)]

    def test_top_n_plus_other(self):
        rng = np.random.default_rng(6)
        assignments = []
        for i in range(400):
            theta = np.zeros(64)
            theta[rng.integers(0, 64)] = 1.0
            assignments.append(da(f"d{i}", theta))
        rows = distribution_stats(assignments, {a.doc_id: "g" for a in assignments}, 16)
        domains_shown = {d for _, d, _ in rows}
        assert len(domains_shown) == 17 and "other" in domains_shown
        total = sum(w for _, _, w in rows)
        assert abs(total - 400.0) < 1e-9

    def test_identical_groups_identical_rows(self):
        a1 = [da(f"a{i}", [0.8, 0.2], weight=2.0) for i in range(5)]
        a2 = [da(f"b{i}", [0.8, 0.2], weight=2.0) for i in range(5)]
        group_of = {**{x.doc_id: "g1" for x in a1}, **{x.doc_id: "g2" for x in a2}}
        rows = distribution_stats(a1 + a2, group_of, 2)
        g1 = [(d, w) for g, d, w in rows if g == "g1"]
        g2 = [(d, w) for g, d, w in rows if g == "g2"]
        assert g1 == g2

    def test_missing_group(self):
        with pytest.raises(KeyError):
            distribution_stats([da("a", [1.0])], {}, 2)

    def test_csv_output(self, tmp_path):
        rows = [("news", "0", 3.5), ("news", "other", 1.5)]
        path = tmp_path / "stats.csv"
        write_stats_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "group,domain,weight"
        assert lines[1] == "news,0,3.5"
