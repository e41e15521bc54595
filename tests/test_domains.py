import numpy as np
import pytest

from acoustic_lda.corpus import to_bag
from acoustic_lda.domains import (
    Assignments,
    assign,
    average_domain_entropy,
    cross_agreement_filter,
    distribution_stats,
    write_stats_csv,
)
from acoustic_lda.lda import LdaModel, fit, infer_thetas
from acoustic_lda.network import NetworkConfig, _inputs, init_network
from oracles import prefix_filter_oracle
from synthetic import (assignments_record, bag_record, generate_synthetic_lda_corpus,
                       labelled_frames)


def da(doc_id, theta, weight=1.0):
    return assignments_record(theta, weights=[weight], ids=[doc_id])


def random_assignment_pair(rng, k_a, k_b, n_docs):
    weights, thetas_a, thetas_b = [], [], []
    for i in range(n_docs):
        weights.append(float(rng.uniform(0.5, 3.0)))
        thetas_a.append(rng.dirichlet(np.ones(k_a)))
        thetas_b.append(rng.dirichlet(np.ones(k_b)))
    return (assignments_record(*thetas_a, weights=weights),
            assignments_record(*thetas_b, weights=weights))


@pytest.mark.parametrize("changes, message", [
    pytest.param({"thetas": [0.5, 0.5]}, "M x K", id="one-d-thetas"),
    pytest.param({"thetas": [[0.5, 0.5]]}, "M x K", id="thetas-rows"),
    pytest.param({"weights": [1.0]}, "M x K", id="weights-length"),
    pytest.param({"ids": ["a"]}, "M x K", id="ids-length"),
    pytest.param({"thetas": [[1.5, -0.5], [0.3, 0.7]]},
                 "document 'a': theta must not be negative", id="negative-theta"),
    pytest.param({"thetas": [[0.5, 0.5], [0.3, 0.6]]},
                 "document 'b': theta must sum to 1", id="row-sum"),
    pytest.param({"weights": [1.0, -2.0]}, "document 'b': negative weight",
                 id="negative-weight"),
    pytest.param({"ids": ["a", "a"]}, "duplicate document id 'a'", id="repeated-id"),
])
def test_assignments_record_checks_its_layout(changes, message):
    fields = {"ids": ["a", "b"], "thetas": [[0.5, 0.5], [0.3, 0.7]], "weights": [1.0, 2.0]}
    record = Assignments(**fields)
    assert len(record) == 2 and record.num_domains == 2
    np.testing.assert_array_equal(record.map_domains, [0, 1])
    assert not record.map_domains.flags.writeable
    with pytest.raises(ValueError, match=message):
        Assignments(**{**fields, **changes})


def test_empty_assignments_record():
    record = Assignments(ids=[], thetas=np.empty((0, 0)), weights=[])
    assert len(record) == 0 and record.map_domains.shape == (0,)


class TestAssign:
    def test_argmax(self):
        a = da("x", [0.7, 0.2, 0.1])
        assert a.map_domains[0] == 0

    def test_exact_tie_takes_lowest(self):
        a = da("x", [0.5, 0.5])
        assert a.map_domains[0] == 0

    def test_synthetic_corpus_matches_generating_topic(self):
        rng = np.random.default_rng(0)
        beta = np.array([
            [0.4, 0.3, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.1, 0.2, 0.3, 0.4],
        ])
        docs, thetas = generate_synthetic_lda_corpus(
            0.05, beta, 200, 40, seed=1, return_thetas=True)
        bags = to_bag(docs, 8)
        model = fit(bags, 2)
        assignments = assign(model, bags)
        gen = thetas.argmax(axis=1)
        agree = np.mean(assignments.map_domains == gen)
        # fitted topic labels may be swapped relative to the generator
        assert max(agree, 1.0 - agree) >= 0.95

    def test_weight_is_token_count(self):
        model = LdaModel(alpha=np.array([1.0]),
                         log_beta=np.log(np.array([[0.5, 0.5]])))
        bags = bag_record([3, 4])
        out = assign(model, bags)
        assert out.weights[0] == 7.0

    def test_batched_matches_single_document(self):
        rng = np.random.default_rng(11)
        beta = rng.dirichlet(np.ones(6), size=3)
        model = LdaModel(alpha=np.array([0.2, 0.5, 0.9]), log_beta=np.log(beta))
        counts = [[4, 0, 0, 0, 0, 0], [2, 1, 0, 3, 0, 5], [0, 0, 0, 0, 0, 0],
                  [0, 7, 1, 0, 0, 0], [1, 1, 1, 1, 1, 1]]
        bags = bag_record(*counts)
        out = assign(model, bags)
        np.testing.assert_array_equal(out.thetas[2], np.full(3, 1.0 / 3))
        for i in (0, 1, 3, 4):
            theta = infer_thetas(model, bag_record(counts[i], ids=[f"d{i}"]))[0]
            np.testing.assert_allclose(out.thetas[i], theta, atol=1e-12, rtol=0)
            assert out.map_domains[i] == int(np.argmax(theta))

    def test_empty_corpus(self):
        model = LdaModel(alpha=np.array([1.0]),
                         log_beta=np.log(np.array([[0.5, 0.5]])))
        with pytest.raises(ValueError):
            assign(model, bag_record())


def ubic(assignment, input_dim=1):
    """The one-hot UBIC the network appends to a frame of the document of
    the one-document record ``assignment``: the domain columns of the row
    ``network._inputs`` builds for its MAP domain."""
    net = init_network(NetworkConfig(input_dim=input_dim, output_dim=1,
                                     domain_dim=assignment.num_domains))
    row = _inputs(net, labelled_frames(np.zeros((1, input_dim)), [0]),
                  assignment.map_domains)[0]
    return row[input_dim:]


class TestUbic:
    def test_one_hot(self):
        code = ubic(da("x", [0.1, 0.1, 0.7, 0.1]))
        np.testing.assert_array_equal(code, [0, 0, 1, 0])
        assert int(np.argmax(code)) == 2

    def test_k1(self):
        code = ubic(da("x", [1.0]))
        np.testing.assert_array_equal(code, [1.0])

    def test_k64_width(self):
        theta = np.zeros(64)
        theta[5] = 1.0
        code = ubic(da("x", theta), input_dim=440)
        assert code.shape == (64,)
        # augmenting a 440-dim feature vector gives a 504-wide input
        assert 440 + code.size == 504

    def test_rejects_malformed(self):
        net = init_network(NetworkConfig(input_dim=1, output_dim=1, domain_dim=2))
        with pytest.raises(ValueError, match="out of range"):
            _inputs(net, labelled_frames(np.zeros((1, 1)), [0]), [2])
        with pytest.raises(ValueError, match=">= 0"):
            _inputs(net, labelled_frames(np.zeros((1, 1)), [0]), [-1])


class TestEntropy:
    def test_one_hot_zero(self):
        assignments = assignments_record([1.0, 0.0], [0.0, 1.0])
        assert average_domain_entropy(assignments) == 0.0

    def test_uniform_16_is_4_bits(self):
        assignments = da("a", np.full(16, 1 / 16))
        assert abs(average_domain_entropy(assignments) - 4.0) < 1e-12

    def test_nats_unit(self):
        assignments = da("a", [0.5, 0.5])
        assert abs(average_domain_entropy(assignments, unit="nats")
                   - np.log(2)) < 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(1)
        k = 8
        assignments = assignments_record(*[rng.dirichlet(np.ones(k)) for i in range(50)])
        h = average_domain_entropy(assignments)
        assert 0.0 <= h <= np.log2(k)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_domain_entropy(assignments_record())


class TestCrossAgreementFilter:
    def test_simple_counting(self):
        ids = ["1", "2", "3", "4"]
        a = assignments_record([0.9, 0.1], [0.8, 0.2], [0.7, 0.3], [0.2, 0.8], ids=ids)
        b = assignments_record([0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.3, 0.7], ids=ids)
        result = cross_agreement_filter(a, b, target_weight=2.0)
        assert sorted(result.kept_ids) == ["1", "2"]
        assert result.cutoff[0] == (0, 0)
        assert result.kept_weight == 2.0

    def test_target_equals_total_keeps_all(self):
        rng = np.random.default_rng(2)
        a, b = random_assignment_pair(rng, 3, 4, 30)
        total = sum(a.weights.tolist())
        result = cross_agreement_filter(a, b, total)
        assert sorted(result.kept_ids) == sorted(a.ids)

    def test_matches_prefix_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k_a, k_b = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            a, b = random_assignment_pair(rng, k_a, k_b, 40)
            total = sum(a.weights.tolist())
            target = 0.6 * total
            result = cross_agreement_filter(a, b, target)
            pairs = list(zip(zip(a.map_domains.tolist(), b.map_domains.tolist()),
                             a.weights.tolist()))
            kept_tuples = prefix_filter_oracle(pairs, k_b, target)
            want = {doc_id for doc_id, (pair, _) in zip(a.ids, pairs)
                    if pair in kept_tuples}
            assert set(result.kept_ids) == want
            assert result.kept_weight >= target

    def test_minimality(self):
        rng = np.random.default_rng(4)
        a, b = random_assignment_pair(rng, 3, 3, 50)
        total = sum(a.weights.tolist())
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
        a = da("1", [1.0])
        b = da("2", [1.0])
        with pytest.raises(ValueError, match="different document sets"):
            cross_agreement_filter(a, b, 1.0)

    @pytest.mark.parametrize("target", [1.0, 0.0])
    def test_empty_lists_rejected(self, target):
        with pytest.raises(ValueError, match="no assignments"):
            cross_agreement_filter(assignments_record(), assignments_record(), target)

    def test_nonpositive_target(self):
        a = da("1", [1.0])
        with pytest.raises(ValueError):
            cross_agreement_filter(a, a, 0.0)


class TestDistributionStats:
    def test_single_group_single_domain(self):
        rows = distribution_stats(da("a", [1.0], weight=5.0), {"a": "news"}, 4)
        assert rows == [("news", "0", 5.0)]

    def test_top_n_plus_other(self):
        rng = np.random.default_rng(6)
        thetas = np.zeros((400, 64))
        for theta in thetas:
            theta[rng.integers(0, 64)] = 1.0
        assignments = assignments_record(*thetas)
        rows = distribution_stats(assignments, {doc_id: "g" for doc_id in assignments.ids}, 16)
        domains_shown = {d for _, d, _ in rows}
        assert len(domains_shown) == 17 and "other" in domains_shown
        total = sum(w for _, _, w in rows)
        assert abs(total - 400.0) < 1e-9

    def test_identical_groups_identical_rows(self):
        ids = [f"a{i}" for i in range(5)] + [f"b{i}" for i in range(5)]
        assignments = assignments_record(*[[0.8, 0.2]] * 10, weights=[2.0] * 10, ids=ids)
        group_of = {doc_id: "g1" if doc_id[0] == "a" else "g2" for doc_id in ids}
        rows = distribution_stats(assignments, group_of, 2)
        g1 = [(d, w) for g, d, w in rows if g == "g1"]
        g2 = [(d, w) for g, d, w in rows if g == "g2"]
        assert g1 == g2

    def test_missing_group(self):
        with pytest.raises(KeyError):
            distribution_stats(da("a", [1.0]), {}, 2)

    def test_csv_output(self, tmp_path):
        rows = [("news", "0", 3.5), ("news", "other", 1.5)]
        path = tmp_path / "stats.csv"
        write_stats_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "group,domain,weight"
        assert lines[1] == "news,0,3.5"
