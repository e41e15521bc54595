import tracemalloc
import warnings

import numpy as np
import pytest

from acoustic_lda import lda
from acoustic_lda.corpus import to_bag
from acoustic_lda.lda import LdaConfig, LdaModel, fit, infer_thetas, load_lda, save_lda
from oracles import (
    brute_log_evidence,
    greedy_row_match,
    grid_posterior_mean_theta0,
    lda_e_step,
    lda_e_step_batch,
    lda_phi_elbo,
)
from synthetic import bag_record, generate_synthetic_lda_corpus


def bag(counts, doc_id="d"):
    """A ``Bags`` record of one document."""
    return bag_record(counts, ids=[doc_id])


def joined(docs):
    """One ``Bags`` record of the documents of the one-document records ``docs``."""
    return bag_record(*(doc.counts[0] for doc in docs), ids=[doc.ids[0] for doc in docs])


def posterior(model, docs):
    """gamma (M, K) of the E-step ``infer_thetas`` runs, on the documents of
    the record ``docs``."""
    eb, _ = lda._scaled_beta(model.log_beta)
    return lda._e_step(model.log_beta, eb, model.alpha, docs.counts.astype(float))[0]


def make_model(beta, alpha):
    beta = np.asarray(beta, dtype=float)
    alpha = np.full(beta.shape[0], alpha) if np.isscalar(alpha) else np.asarray(alpha)
    return LdaModel(alpha=alpha, log_beta=np.log(beta))


def em_terms(model, doc):
    """The bound and expected counts ``fit`` takes from one document: its
    E-step on a corpus of one."""
    bounds, stats = lda._em_terms(model.log_beta, model.alpha,
                                  doc.counts.astype(float))
    return bounds[0], stats


def random_instance(rng, max_k=3, max_v=4, max_len=4):
    k = int(rng.integers(1, max_k + 1))
    v = int(rng.integers(2, max_v + 1))
    n = int(rng.integers(1, max_len + 1))
    beta = rng.dirichlet(np.ones(v), size=k)
    alpha = rng.uniform(0.1, 2.0, size=k)
    symbols = rng.integers(0, v, size=n)
    return make_model(beta, alpha), symbols, beta, alpha, v


class TestEStep:
    def test_k1_degenerate(self):
        model = make_model([[0.2, 0.3, 0.5]], 0.7)
        doc = bag([2, 1, 3])
        np.testing.assert_allclose(posterior(model, doc)[0], [0.7 + 6], atol=1e-12)
        # every phi row is (1,): the expected counts are the counts
        np.testing.assert_allclose(em_terms(model, doc)[1], [[2, 1, 3]], atol=1e-12)

    def test_disjoint_support_vs_grid_oracle(self):
        beta = np.array([
            [0.4, 0.6, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
        ])
        # smoothing-free model rows with genuine zeros; doc inside row 0 support
        model = make_model(beta + 1e-300, 0.1)
        symbols = [0, 1, 1, 0, 0, 1] * 4   # long enough to swamp the alpha mass
        doc = bag(np.bincount(symbols, minlength=4))
        gamma = posterior(model, doc)[0]
        frac = gamma[0] / gamma.sum()
        assert frac > 0.99
        oracle = grid_posterior_mean_theta0(0.1, beta, symbols)
        assert abs(frac - oracle) < 0.01

    def test_symmetric_model_gives_equal_gamma(self):
        row = [0.1, 0.2, 0.3, 0.4]
        model = make_model([row, row, row], 0.5)
        gamma = posterior(model, bag([1, 0, 2, 1]))[0]
        assert np.max(np.abs(gamma - gamma[0])) < 1e-9

    def test_phi_rows_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            model, symbols, *_ , v = random_instance(rng)
            doc = bag(np.bincount(symbols, minlength=v))
            # each symbol's phi row sums to 1: its expected counts sum to its count
            np.testing.assert_allclose(em_terms(model, doc)[1].sum(axis=0), doc.counts[0],
                                       atol=1e-9)
            assert np.all(posterior(model, doc)[0] > 0)

    def test_inner_elbo_monotone(self, monkeypatch):
        # the bound after i coordinate-ascent sweeps, for i = 1..30
        rng = np.random.default_rng(1)
        for _ in range(20):
            model, symbols, *_ , v = random_instance(rng, max_len=6)
            doc = bag(np.bincount(symbols, minlength=v))
            history = []
            for i in range(1, 31):
                monkeypatch.setattr(lda, "_MAX_E_ITERS", i)
                history.append(em_terms(model, doc)[0])
            diffs = np.diff(history)
            assert (diffs >= -1e-10).all()

    def test_zero_mass_symbol_signalled(self):
        # symbol 1 has exactly zero mass in every topic: non-finite signal
        log_beta = np.array([[0.0, -np.inf], [0.0, -np.inf]])
        model = LdaModel(alpha=np.array([1.0, 1.0]), log_beta=log_beta)
        with pytest.raises(FloatingPointError):
            infer_thetas(model, bag([2, 3]))

    def test_zero_mass_symbol_names_document(self):
        log_beta = np.array([[0.0, -np.inf, -np.inf], [-np.inf, -np.inf, 0.0]])
        model = LdaModel(alpha=np.array([1.0, 1.0]), log_beta=log_beta)
        docs = bag_record([2, 0, 1], [1, 4, 0], [0, 0, 3], ids=["a", "b", "c"])
        with pytest.raises(FloatingPointError, match="'b'"):
            infer_thetas(model, docs)


def underflow_case():
    """log_beta, alpha and bags where one document's norm underflows.

    Symbol 1 has mass only in topic 1. With K=1000 and alpha_1 = 1e-6, a
    one-token document starts from gamma_1 = 0.001001, whose el is
    exp(digamma(0.001001) - digamma(1.001)) = exp(-999) = 0: its norm
    underflows at symbol 1. Documents "a" and "c" hold only symbol 0."""
    k = 1000
    log_beta = np.full((k, 2), [0.0, -np.inf])
    log_beta[1] = [-np.inf, 0.0]
    alpha = np.full(k, 1e-6)
    alpha[0] = 1.0
    return log_beta, alpha, bag_record([2, 0], [0, 1], [1, 0], ids=["a", "b", "c"])


class TestPhiFreeEStep:
    """The batched E-step works on the dense counts without phi; these check
    it against the log-domain oracle, one document at a time."""

    @staticmethod
    def mixed_corpus(rng, v, m):
        """m documents whose supports range from one symbol to all of V."""
        docs = []
        for i in range(m):
            ids = rng.choice(v, size=int(rng.integers(1, v + 1)), replace=False)
            counts = np.zeros(v, dtype=np.int64)
            counts[ids] = rng.integers(1, 30, size=ids.size)
            docs.append(bag(counts, f"d{i}"))
        return joined(docs)

    @staticmethod
    def e_step(log_beta, alpha, docs):
        """gamma (M, K) of the E-step on ``docs``, and digamma(gamma) at the
        start of each document's last sweep."""
        c = docs.counts.astype(float)
        return lda._e_step(log_beta, lda._scaled_beta(log_beta)[0], alpha, c)

    def test_gamma_matches_log_domain_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            k, v = int(rng.integers(1, 9)), int(rng.integers(2, 41))
            model = make_model(rng.dirichlet(np.full(v, 0.5), size=k),
                               rng.uniform(0.05, 2.0, size=k))
            docs = self.mixed_corpus(rng, v, 25)
            gamma, _ = self.e_step(model.log_beta, model.alpha, docs)
            for counts, g in zip(docs.counts, gamma):
                want, _ = lda_e_step(model.alpha, model.log_beta, counts,
                                     lda._GAMMA_TOL, lda._MAX_E_ITERS)
                np.testing.assert_allclose(g, want, rtol=1e-12, atol=0)

    def test_underflowing_norm_reruns_in_log_domain(self, monkeypatch):
        log_beta, alpha, docs = underflow_case()
        model = LdaModel(alpha=alpha, log_beta=log_beta)
        reruns = []
        rerun = lda._log_domain_e_step

        def counted(lb, counts, *args):
            reruns.append(counts.tolist())
            return rerun(lb, counts, *args)

        monkeypatch.setattr(lda, "_log_domain_e_step", counted)
        gamma, _ = self.e_step(log_beta, alpha, docs)
        assert reruns == [[1.0]]
        for counts, g in zip(docs.counts, gamma):
            want, _ = lda_e_step(alpha, log_beta, counts,
                                 lda._GAMMA_TOL, lda._MAX_E_ITERS)
            np.testing.assert_allclose(g, want, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(posterior(model, docs), gamma)

    def test_norm_underflowing_at_the_last_sweep_takes_the_log_domain_terms(self):
        # Topic 0 emits only symbol 0 and topics 1-1000 only symbol 1. In
        # document 0, symbol 1's one token is spread over 1000 topics of
        # gamma near 0.001, whose el underflows at every sweep, the last one
        # too; its bound and expected counts come from logsumexp.
        k = 1001
        log_beta = np.full((k, 2), [-np.inf, 0.0])
        log_beta[0] = [0.0, -np.inf]
        alpha = np.full(k, 1e-6)
        alpha[0] = 1.0
        docs = bag_record([5, 1], [3, 0], ids=["a", "b"])
        c = docs.counts.astype(float)
        eb = lda._scaled_beta(log_beta)[0]
        _, dig = lda._e_step(log_beta, eb, alpha, c)
        np.testing.assert_array_equal(lda._scaled_norm(dig, eb, c)[2], [0])
        bounds, stats = lda._em_terms(log_beta, alpha, c)
        want_stats = np.zeros((k, 2))
        for counts in docs.counts:
            gamma, phi = lda_e_step(alpha, log_beta, counts,
                                    lda._GAMMA_TOL, lda._MAX_E_ITERS)
            ids = np.flatnonzero(counts)
            want_stats[:, ids] += (counts[ids, None] * phi).T
            if counts[1]:
                want = lda_phi_elbo(alpha, log_beta, counts, gamma, phi)
                assert abs(bounds[0] - want) <= 1e-10 * abs(want)
        np.testing.assert_allclose(stats, want_stats, rtol=0, atol=1e-12)

    def test_every_document_rerun_gives_the_same_fit(self, monkeypatch):
        # an infinite floor sends every document through the log-domain
        # sweep, whose bound and expected counts come from phi
        rng = np.random.default_rng(31)
        beta = rng.dirichlet(np.ones(12), size=3)
        docs = generate_synthetic_lda_corpus(0.3, beta, 30, 25, seed=4)
        bags = to_bag(docs, 12)
        config = LdaConfig(seed=2)
        base = fit(bags, 3, config)
        monkeypatch.setattr(lda, "_NORM_FLOOR", np.inf)
        rerun = fit(bags, 3, config)
        assert len(rerun.elbo_history) == len(base.elbo_history)
        np.testing.assert_allclose(rerun.elbo_history, base.elbo_history,
                                   rtol=1e-10, atol=0)
        np.testing.assert_allclose(rerun.log_beta, base.log_beta, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("sweeps", [1, 3, 50])
    def test_phi_free_terms_match_phi_form(self, monkeypatch, sweeps):
        rng = np.random.default_rng(32)
        monkeypatch.setattr(lda, "_MAX_E_ITERS", sweeps)
        monkeypatch.setattr(lda, "_GAMMA_TOL", 0.0)
        for _ in range(10):
            k, v = int(rng.integers(1, 7)), int(rng.integers(2, 31))
            model = make_model(rng.dirichlet(np.ones(v), size=k),
                               rng.uniform(0.1, 2.0, size=k))
            docs = self.mixed_corpus(rng, v, 20)
            c = docs.counts.astype(float)
            bounds, stats = lda._em_terms(model.log_beta, model.alpha, c)
            want_stats = np.zeros((k, v))
            for counts, bound in zip(docs.counts, bounds):
                gamma, phi = lda_e_step(model.alpha, model.log_beta, counts,
                                        lda._GAMMA_TOL, lda._MAX_E_ITERS)
                want = lda_phi_elbo(model.alpha, model.log_beta, counts, gamma, phi)
                assert abs(bound - want) <= 1e-10 * abs(want)
                ids = np.flatnonzero(counts)
                want_stats[:, ids] += (counts[ids, None] * phi).T
            np.testing.assert_allclose(stats, want_stats, rtol=1e-12, atol=1e-12)

    def test_memory_does_not_grow_with_the_widest_document(self):
        # 400 five-symbol documents, with and without one that holds all
        # 256 symbols: padding every document to the widest one would
        # multiply the peak by about 40
        rng = np.random.default_rng(33)
        v, k = 256, 16
        model = make_model(rng.dirichlet(np.ones(v), size=k), 1.0 / k)
        narrow = []
        for i in range(400):
            counts = np.zeros(v, dtype=np.int64)
            counts[rng.choice(v, size=5, replace=False)] = rng.integers(1, 20, size=5)
            narrow.append(bag(counts, f"n{i}"))
        wide = bag(rng.integers(1, 5, size=v), "wide")

        def peak(docs):
            tracemalloc.start()
            try:
                infer_thetas(model, docs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(joined(narrow + [wide])) <= 2 * peak(joined(narrow))


class TestEStepBitReference:
    """``_e_step`` sweeps compact rows of the documents still updating, and
    keeps the bits of ``oracles.lda_e_step_batch``, the loop that gathers and
    scatters the full gamma at every sweep: each product runs over the same
    rows in both."""

    @staticmethod
    def live_per_sweep(monkeypatch):
        """A list to which every later sweep of ``_e_step`` appends the
        number of documents it runs on."""
        sizes, scaled_norm = [], lda._scaled_norm
        monkeypatch.setattr(lda, "_scaled_norm",
                            lambda dig, eb, c: sizes.append(len(c)) or scaled_norm(dig, eb, c))
        return sizes

    @staticmethod
    def assert_bitwise(log_beta, alpha, docs):
        c = docs.counts.astype(float)
        eb = lda._scaled_beta(log_beta)[0]
        gamma, dig = lda._e_step(log_beta, eb, alpha, c)
        want_gamma, want_dig = lda_e_step_batch(log_beta, eb, alpha, c)
        assert np.array_equal(gamma, want_gamma) and np.array_equal(dig, want_dig)

    @staticmethod
    def corpus(rng, k, v, m):
        beta = rng.dirichlet(np.full(v, 0.3), size=k)
        counts = [rng.multinomial(int(rng.integers(1, 400)), rng.dirichlet(np.full(v, 0.5)))
                  for _ in range(m)]
        return np.log(beta), rng.uniform(0.05, 1.0, size=k), bag_record(*counts)

    def test_documents_stopping_at_different_sweeps(self, monkeypatch):
        rng = np.random.default_rng(40)
        sizes = self.live_per_sweep(monkeypatch)
        for k, v, m in [(8, 32, 120), (16, 32, 120), (3, 7, 40)]:
            sizes.clear()
            self.assert_bitwise(*self.corpus(rng, k, v, m))
            assert sizes[0] == m and len(set(sizes)) > 3, sizes
            assert sizes == sorted(sizes, reverse=True)

    def test_documents_at_the_cap(self, monkeypatch):
        rng = np.random.default_rng(41)
        monkeypatch.setattr(lda, "_MAX_E_ITERS", 4)
        sizes = self.live_per_sweep(monkeypatch)
        self.assert_bitwise(*self.corpus(rng, 8, 32, 50))
        assert len(sizes) == 4 and sizes[-1] > 0

    def test_a_document_in_the_log_domain(self, monkeypatch):
        reruns, rerun = [], lda._log_domain_e_step
        monkeypatch.setattr(lda, "_log_domain_e_step",
                            lambda lb, counts, *args: reruns.append(1) or rerun(lb, counts, *args))
        self.assert_bitwise(*underflow_case())
        assert len(reruns) == 2    # document "b", once in each of the two loops

    def test_one_document(self):
        log_beta, alpha, docs = self.corpus(np.random.default_rng(42), 8, 32, 1)
        self.assert_bitwise(log_beta, alpha, docs)

    def test_one_topic(self):
        log_beta, alpha, docs = self.corpus(np.random.default_rng(43), 1, 32, 30)
        self.assert_bitwise(log_beta, alpha, docs)


class TestElbo:
    """The bound ``fit`` maximises, of one document."""

    def test_k1_equals_exact_log_likelihood(self):
        beta = np.array([[0.2, 0.3, 0.5]])
        model = make_model(beta, 0.7)
        doc = bag([1, 2, 0])
        exact = 1 * np.log(0.2) + 2 * np.log(0.3)
        assert abs(em_terms(model, doc)[0] - exact) < 1e-9

    def test_bounded_by_brute_force_evidence(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            model, symbols, beta, alpha, v = random_instance(rng)
            doc = bag(np.bincount(symbols, minlength=v))
            bound = em_terms(model, doc)[0]
            evidence = brute_log_evidence(alpha, beta, symbols)
            assert bound <= evidence + 1e-6

    def test_converged_beats_perturbed(self):
        rng = np.random.default_rng(3)
        model, symbols, *_ , v = random_instance(rng, max_k=3, max_len=4)
        if model.num_domains == 1:
            model, symbols, *_ , v = random_instance(rng, max_k=3, max_len=4)
        doc = bag(np.bincount(symbols, minlength=v))
        gamma, phi = lda_e_step(model.alpha, model.log_beta, doc.counts[0],
                                lda._GAMMA_TOL, lda._MAX_E_ITERS)
        worse = lda_phi_elbo(model.alpha, model.log_beta, doc.counts[0], gamma * 1.1, phi)
        assert em_terms(model, doc)[0] > worse

    def test_vocabulary_permutation_invariance(self):
        rng = np.random.default_rng(4)
        beta = rng.dirichlet(np.ones(5), size=2)
        model = make_model(beta, 0.4)
        symbols = np.array([0, 2, 4, 2])
        doc = bag(np.bincount(symbols, minlength=5))
        base = em_terms(model, doc)[0]

        perm = np.array([3, 0, 4, 1, 2])   # new id of each old symbol
        model_p = make_model(beta[:, np.argsort(perm)], 0.4)
        doc_p = bag(np.bincount(perm[symbols], minlength=5))
        assert abs(em_terms(model_p, doc_p)[0] - base) < 1e-10


class TestFit:
    def test_recovers_generating_topics(self):
        rng = np.random.default_rng(42)
        beta = rng.dirichlet(np.full(30, 0.2), size=3)
        docs = generate_synthetic_lda_corpus(0.1, beta, 300, 150, seed=7)
        bags = to_bag(docs, 30)
        model = fit(bags, 3)
        tvs, _ = greedy_row_match(beta, np.exp(model.log_beta))
        assert tvs.max() < 0.1

    def test_k1_closed_form(self, monkeypatch):
        bags = bag_record([3, 0, 1], [0, 2, 2])
        monkeypatch.setattr(lda, "_SMOOTHING", 0.5)
        model = fit(bags, 1)
        counts = np.array([3.0, 2.0, 3.0]) + 0.5
        np.testing.assert_allclose(np.exp(model.log_beta[0]),
                                   counts / counts.sum(), atol=1e-9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        beta = rng.dirichlet(np.ones(10), size=2)
        docs = generate_synthetic_lda_corpus(0.3, beta, 30, 20, seed=1)
        bags = to_bag(docs, 10)
        a = fit(bags, 2, LdaConfig(seed=9))
        b = fit(bags, 2, LdaConfig(seed=9))
        np.testing.assert_array_equal(a.log_beta, b.log_beta)

    def test_corpus_elbo_monotone(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            k, v = int(rng.integers(2, 4)), int(rng.integers(5, 12))
            beta = rng.dirichlet(np.ones(v), size=k)
            docs = generate_synthetic_lda_corpus(
                0.5, beta, 25, 15, seed=100 + trial)
            model = fit(to_bag(docs, v), k,
                        LdaConfig(seed=trial))
            diffs = np.diff(model.elbo_history)
            assert (diffs >= -1e-6 * np.abs(model.elbo_history[:-1])).all()

    def test_beta_rows_normalized(self):
        rng = np.random.default_rng(7)
        beta = rng.dirichlet(np.ones(8), size=2)
        docs = generate_synthetic_lda_corpus(0.5, beta, 20, 10, seed=2)
        model = fit(to_bag(docs, 8), 4)
        np.testing.assert_allclose(np.exp(model.log_beta).sum(axis=1), 1.0,
                                   atol=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf])
    def test_config_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite and > 0"):
            LdaConfig(alpha=alpha)

    def test_rejects_bad_corpus(self):
        with pytest.raises(ValueError):
            fit(bag_record(), 2)
        with pytest.raises(ValueError):
            fit(bag([1, 1]), 0)
        with pytest.raises(ValueError, match="empty"):
            fit(bag([0, 0]), 2)


class TestInferTheta:
    def test_k1(self):
        model = make_model([[0.5, 0.5]], 1.0)
        np.testing.assert_allclose(infer_thetas(model, bag([2, 1]))[0], [1.0])

    def test_disjoint_support(self):
        beta = np.array([
            [0.4, 0.6, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
        ])
        model = make_model(beta + 1e-300, 0.1)
        theta = infer_thetas(model, bag([8, 8, 0, 0]))[0]
        assert theta[0] > 0.99 and theta[1] < 0.01

    def test_symmetric_uniform(self):
        row = [0.25, 0.25, 0.25, 0.25]
        model = make_model([row, row], 0.5)
        theta = infer_thetas(model, bag([1, 1, 0, 2]))[0]
        np.testing.assert_allclose(theta, [0.5, 0.5], atol=1e-9)

    def test_sums_to_one(self):
        rng = np.random.default_rng(8)
        model, symbols, *_ , v = random_instance(rng)
        theta = infer_thetas(model, bag(np.bincount(symbols, minlength=v)))[0]
        assert abs(theta.sum() - 1.0) < 1e-9

    def test_empty_document_uniform_without_warning(self):
        # 1/K exactly, not the prior mean alpha / sum(alpha); the E-step runs
        # on the other rows alone, and is skipped when every row is empty
        model = make_model([[0.5, 0.2, 0.3], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]],
                           [0.2, 0.5, 1.5])
        docs = bag_record([0, 0, 0], [2, 0, 1], [0, 0, 0], ids=["a", "b", "c"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            thetas = infer_thetas(model, docs)
            all_empty = infer_thetas(model, bag_record([0, 0, 0], [0, 0, 0]))
        np.testing.assert_array_equal(thetas[[0, 2]], np.full((2, 3), 1.0 / 3))
        np.testing.assert_allclose(thetas[1], infer_thetas(model, bag([2, 0, 1]))[0],
                                   atol=1e-12, rtol=0)
        np.testing.assert_array_equal(all_empty, np.full((2, 3), 1.0 / 3))

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        beta = rng.dirichlet(np.ones(6), size=3)
        alpha = np.array([0.3, 0.5, 0.9])
        doc = bag([2, 0, 1, 3, 0, 1])
        base = infer_thetas(make_model(beta, alpha), doc)[0]
        perm = np.array([2, 0, 1])
        permuted = infer_thetas(make_model(beta[perm], alpha[perm]), doc)[0]
        np.testing.assert_allclose(permuted, base[perm], atol=1e-9)


@pytest.mark.parametrize("changes, message", [
    pytest.param({"alpha": [np.nan, 0.5]}, "alpha must be finite", id="nan-alpha"),
    pytest.param({"alpha": [np.inf, 0.5]}, "alpha must be finite", id="inf-alpha"),
    pytest.param({"log_beta": [[np.nan, 0.0], np.log([0.2, 0.8])]},
                 "log_beta must be finite or -inf", id="nan-log-beta"),
    pytest.param({"log_beta": [[np.inf, -np.inf], np.log([0.2, 0.8])]},
                 "log_beta must be finite or -inf", id="inf-log-beta"),
])
def test_model_checks_its_values(changes, message):
    """alpha is finite; log_beta is finite or -inf (a symbol a topic never
    emits)."""
    fields = {"alpha": [0.5, 0.5], "log_beta": [[0.0, -np.inf], np.log([0.2, 0.8])]}
    LdaModel(**fields)
    with pytest.raises(ValueError, match=f"^{message}$"):
        LdaModel(**{**fields, **changes})


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        beta = rng.dirichlet(np.ones(7), size=3)
        model = make_model(beta, 0.25)
        path = tmp_path / "lda.json"
        save_lda(path, model, seed=1)
        back = load_lda(path)
        np.testing.assert_allclose(back.log_beta, model.log_beta, atol=1e-12)
        np.testing.assert_allclose(back.alpha, model.alpha, atol=1e-12)
