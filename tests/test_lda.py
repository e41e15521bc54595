import tracemalloc

import numpy as np
import pytest
import scipy.special

from acoustic_lda import lda
from acoustic_lda.corpus import BagOfSounds, generate_synthetic_lda_corpus, to_bag
from acoustic_lda.lda import (
    LdaConfig,
    LdaModel,
    VariationalState,
    digamma,
    e_step_document,
    elbo,
    fit,
    infer_theta,
    infer_thetas,
    load_lda,
    save_lda,
)
from oracles import (
    brute_log_evidence,
    greedy_row_match,
    grid_posterior_mean_theta0,
    lda_e_step_gamma,
)


def bag(counts, doc_id="d"):
    return BagOfSounds(id=doc_id, counts=np.asarray(counts, dtype=np.int64))


def make_model(beta, alpha):
    beta = np.asarray(beta, dtype=float)
    alpha = np.full(beta.shape[0], alpha) if np.isscalar(alpha) else np.asarray(alpha)
    return LdaModel(alpha=alpha, log_beta=np.log(beta))


def random_instance(rng, max_k=3, max_v=4, max_len=4):
    k = int(rng.integers(1, max_k + 1))
    v = int(rng.integers(2, max_v + 1))
    n = int(rng.integers(1, max_len + 1))
    beta = rng.dirichlet(np.ones(v), size=k)
    alpha = rng.uniform(0.1, 2.0, size=k)
    symbols = rng.integers(0, v, size=n)
    return make_model(beta, alpha), symbols, beta, alpha, v


class TestDigamma:
    def test_matches_scipy(self):
        x = np.concatenate([
            np.geomspace(1e-3, 5.9, 200),
            np.geomspace(6.0, 1e6, 200),
        ])
        np.testing.assert_allclose(digamma(x), scipy.special.digamma(x),
                                   atol=1e-11, rtol=0)

    def test_scalar_and_positivity(self):
        assert abs(digamma(1.0) - scipy.special.digamma(1.0)) < 1e-12
        with pytest.raises(ValueError):
            digamma(np.array([1.0, -0.5]))


class TestEStep:
    def test_k1_degenerate(self):
        model = make_model([[0.2, 0.3, 0.5]], 0.7)
        doc = bag([2, 1, 3])
        state = e_step_document(model, doc)
        np.testing.assert_allclose(state.gamma, [0.7 + 6], atol=1e-12)
        np.testing.assert_allclose(state.phi, np.ones((3, 1)), atol=1e-12)

    def test_disjoint_support_vs_grid_oracle(self):
        beta = np.array([
            [0.4, 0.6, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
        ])
        # smoothing-free model rows with genuine zeros; doc inside row 0 support
        model = make_model(beta + 1e-300, 0.1)
        symbols = [0, 1, 1, 0, 0, 1] * 4   # long enough to swamp the alpha mass
        doc = bag(np.bincount(symbols, minlength=4))
        state = e_step_document(model, doc)
        frac = state.gamma[0] / state.gamma.sum()
        assert frac > 0.99
        oracle = grid_posterior_mean_theta0(0.1, beta, symbols)
        assert abs(frac - oracle) < 0.01

    def test_symmetric_model_gives_equal_gamma(self):
        row = [0.1, 0.2, 0.3, 0.4]
        model = make_model([row, row, row], 0.5)
        state = e_step_document(model, bag([1, 0, 2, 1]))
        assert np.max(np.abs(state.gamma - state.gamma[0])) < 1e-9

    def test_phi_rows_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            model, symbols, *_ , v = random_instance(rng)
            state = e_step_document(model, bag(np.bincount(symbols, minlength=v)))
            np.testing.assert_allclose(state.phi.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(state.gamma > 0)

    def test_inner_elbo_monotone(self):
        # the bound after i coordinate-ascent sweeps, for i = 1..30
        rng = np.random.default_rng(1)
        for _ in range(20):
            model, symbols, *_ , v = random_instance(rng, max_len=6)
            doc = bag(np.bincount(symbols, minlength=v))
            history = [elbo(model, doc, e_step_document(
                model, doc, LdaConfig(max_e_iters=i))) for i in range(1, 31)]
            diffs = np.diff(history)
            assert (diffs >= -1e-10).all()

    def test_empty_document_rejected(self):
        model = make_model([[0.5, 0.5]], 1.0)
        with pytest.raises(ValueError, match="empty"):
            e_step_document(model, bag([0, 0]))

    def test_zero_mass_symbol_signalled(self):
        # symbol 1 has exactly zero mass in every topic: non-finite signal
        log_beta = np.array([[0.0, -np.inf], [0.0, -np.inf]])
        model = LdaModel(alpha=np.array([1.0, 1.0]), log_beta=log_beta)
        with pytest.raises(FloatingPointError):
            e_step_document(model, bag([2, 3]))

    def test_zero_mass_symbol_names_document(self):
        log_beta = np.array([[0.0, -np.inf, -np.inf], [-np.inf, -np.inf, 0.0]])
        model = LdaModel(alpha=np.array([1.0, 1.0]), log_beta=log_beta)
        docs = [bag([2, 0, 1], "a"), bag([1, 4, 0], "b"), bag([0, 0, 3], "c")]
        with pytest.raises(FloatingPointError, match="'b'"):
            infer_thetas(model, docs)


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
        return docs

    def test_gamma_matches_log_domain_oracle(self):
        rng = np.random.default_rng(30)
        config = LdaConfig()
        for _ in range(10):
            k, v = int(rng.integers(1, 9)), int(rng.integers(2, 41))
            model = make_model(rng.dirichlet(np.full(v, 0.5), size=k),
                               rng.uniform(0.05, 2.0, size=k))
            docs = self.mixed_corpus(rng, v, 25)
            _, _, gamma, _, fallback = lda._posterior(model, docs, config)
            assert not fallback
            for doc, g in zip(docs, gamma):
                want = lda_e_step_gamma(model.alpha, model.log_beta, doc.counts,
                                        config.gamma_tol, config.max_e_iters)
                np.testing.assert_allclose(g, want, rtol=1e-12, atol=0)

    def test_underflowing_norm_reruns_in_log_domain(self, monkeypatch):
        # Symbol 1 has mass only in topic 1. With K=1000 and alpha_1 = 1e-6,
        # a one-token document starts from gamma_1 = 0.001001, whose el is
        # exp(digamma(0.001001) - digamma(1.001)) = exp(-999) = 0: its norm
        # underflows at symbol 1.
        k = 1000
        log_beta = np.full((k, 2), [0.0, -np.inf])
        log_beta[1] = [-np.inf, 0.0]
        alpha = np.full(k, 1e-6)
        alpha[0] = 1.0
        model = LdaModel(alpha=alpha, log_beta=log_beta)
        docs = [bag([2, 0], "a"), bag([0, 1], "b"), bag([1, 0], "c")]
        reruns = []
        rerun = lda._log_domain_e_step

        def counted(lb, counts, *args):
            reruns.append(counts.tolist())
            return rerun(lb, counts, *args)

        monkeypatch.setattr(lda, "_log_domain_e_step", counted)
        config = LdaConfig()
        _, _, gamma, _, fallback = lda._posterior(model, docs, config)
        assert reruns == [[1.0]] and list(fallback) == [1]
        for doc, g in zip(docs, gamma):
            want = lda_e_step_gamma(alpha, log_beta, doc.counts,
                                    config.gamma_tol, config.max_e_iters)
            np.testing.assert_allclose(g, want, rtol=1e-12, atol=0)
        state = e_step_document(model, docs[1])
        np.testing.assert_allclose(state.phi[0], np.eye(k)[1], atol=1e-12)

    def test_every_document_rerun_gives_the_same_fit(self, monkeypatch):
        # an infinite floor sends every document through the log-domain
        # sweep, whose bound and expected counts come from phi
        rng = np.random.default_rng(31)
        beta = rng.dirichlet(np.ones(12), size=3)
        docs = generate_synthetic_lda_corpus(0.3, beta, 30, 25, seed=4)
        bags = [to_bag(d, 12) for d in docs]
        config = LdaConfig(seed=2)
        base = fit(bags, 3, config)
        monkeypatch.setattr(lda, "_NORM_FLOOR", np.inf)
        rerun = fit(bags, 3, config)
        assert len(rerun.elbo_history) == len(base.elbo_history)
        np.testing.assert_allclose(rerun.elbo_history, base.elbo_history,
                                   rtol=1e-10, atol=0)
        np.testing.assert_allclose(rerun.log_beta, base.log_beta, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("sweeps", [1, 3, 50])
    def test_phi_free_terms_match_phi_form(self, sweeps):
        rng = np.random.default_rng(32)
        config = LdaConfig(max_e_iters=sweeps, gamma_tol=0.0)
        for _ in range(10):
            k, v = int(rng.integers(1, 7)), int(rng.integers(2, 31))
            model = make_model(rng.dirichlet(np.ones(v), size=k),
                               rng.uniform(0.1, 2.0, size=k))
            docs = self.mixed_corpus(rng, v, 20)
            c = np.array([doc.counts for doc in docs], dtype=float)
            bounds, stats = lda._em_terms(model.log_beta, model.alpha, c, config)
            want_stats = np.zeros((k, v))
            for doc, bound in zip(docs, bounds):
                state = e_step_document(model, doc, config)
                want = elbo(model, doc, state)
                assert abs(bound - want) <= 1e-10 * abs(want)
                want_stats[:, state.word_ids] += (state.counts[:, None] * state.phi).T
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

        assert peak(narrow + [wide]) <= 2 * peak(narrow)


class TestElbo:
    def test_k1_equals_exact_log_likelihood(self):
        beta = np.array([[0.2, 0.3, 0.5]])
        model = make_model(beta, 0.7)
        doc = bag([1, 2, 0])
        state = e_step_document(model, doc)
        exact = 1 * np.log(0.2) + 2 * np.log(0.3)
        assert abs(elbo(model, doc, state) - exact) < 1e-9

    def test_bounded_by_brute_force_evidence(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            model, symbols, beta, alpha, v = random_instance(rng)
            doc = bag(np.bincount(symbols, minlength=v))
            state = e_step_document(model, doc)
            bound = elbo(model, doc, state)
            evidence = brute_log_evidence(alpha, beta, symbols)
            assert bound <= evidence + 1e-6

    def test_converged_beats_perturbed(self):
        rng = np.random.default_rng(3)
        model, symbols, *_ , v = random_instance(rng, max_k=3, max_len=4)
        if model.num_domains == 1:
            model, symbols, *_ , v = random_instance(rng, max_k=3, max_len=4)
        doc = bag(np.bincount(symbols, minlength=v))
        state = e_step_document(model, doc)
        worse = VariationalState(gamma=state.gamma * 1.1, phi=state.phi,
                                 word_ids=state.word_ids, counts=state.counts)
        assert elbo(model, doc, state) > elbo(model, doc, worse)

    def test_vocabulary_permutation_invariance(self):
        rng = np.random.default_rng(4)
        beta = rng.dirichlet(np.ones(5), size=2)
        model = make_model(beta, 0.4)
        symbols = np.array([0, 2, 4, 2])
        doc = bag(np.bincount(symbols, minlength=5))
        state = e_step_document(model, doc)
        base = elbo(model, doc, state)

        perm = np.array([3, 0, 4, 1, 2])   # new id of each old symbol
        model_p = make_model(beta[:, np.argsort(perm)], 0.4)
        doc_p = bag(np.bincount(perm[symbols], minlength=5))
        state_p = e_step_document(model_p, doc_p)
        assert abs(elbo(model_p, doc_p, state_p) - base) < 1e-10


    def test_rejects_state_of_another_document(self):
        model = make_model([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]], 0.5)
        a, b = bag([2, 1, 0], "a"), bag([0, 1, 2], "b")
        state = e_step_document(model, a)
        assert np.isfinite(elbo(model, a, state))
        with pytest.raises(ValueError, match="'b'"):
            elbo(model, b, state)                  # other symbols
        with pytest.raises(ValueError, match="'c'"):
            elbo(model, bag([1, 2, 0], "c"), state)   # same symbols, other counts


class TestFit:
    def test_recovers_generating_topics(self):
        rng = np.random.default_rng(42)
        beta = rng.dirichlet(np.full(30, 0.2), size=3)
        docs = generate_synthetic_lda_corpus(0.1, beta, 300, 150, seed=7)
        bags = [to_bag(d, 30) for d in docs]
        model = fit(bags, 3)
        tvs, _ = greedy_row_match(beta, np.exp(model.log_beta))
        assert tvs.max() < 0.1

    def test_k1_closed_form(self):
        bags = [bag([3, 0, 1]), bag([0, 2, 2])]
        config = LdaConfig(smoothing=0.5)
        model = fit(bags, 1, config)
        counts = np.array([3.0, 2.0, 3.0]) + 0.5
        np.testing.assert_allclose(np.exp(model.log_beta[0]),
                                   counts / counts.sum(), atol=1e-9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        beta = rng.dirichlet(np.ones(10), size=2)
        docs = generate_synthetic_lda_corpus(0.3, beta, 30, 20, seed=1)
        bags = [to_bag(d, 10) for d in docs]
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
            model = fit([to_bag(d, v) for d in docs], k,
                        LdaConfig(seed=trial))
            diffs = np.diff(model.elbo_history)
            assert (diffs >= -1e-6 * np.abs(model.elbo_history[:-1])).all()

    def test_beta_rows_normalized(self):
        rng = np.random.default_rng(7)
        beta = rng.dirichlet(np.ones(8), size=2)
        docs = generate_synthetic_lda_corpus(0.5, beta, 20, 10, seed=2)
        model = fit([to_bag(d, 8) for d in docs], 4)
        np.testing.assert_allclose(np.exp(model.log_beta).sum(axis=1), 1.0,
                                   atol=1e-9)

    def test_rejects_bad_corpus(self):
        with pytest.raises(ValueError):
            fit([], 2)
        with pytest.raises(ValueError):
            fit([bag([1, 1])], 0)
        with pytest.raises(ValueError, match="empty"):
            fit([bag([0, 0])], 2)


class TestInferTheta:
    def test_k1(self):
        model = make_model([[0.5, 0.5]], 1.0)
        np.testing.assert_allclose(infer_theta(model, bag([2, 1])), [1.0])

    def test_disjoint_support(self):
        beta = np.array([
            [0.4, 0.6, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
        ])
        model = make_model(beta + 1e-300, 0.1)
        theta = infer_theta(model, bag([8, 8, 0, 0]))
        assert theta[0] > 0.99 and theta[1] < 0.01

    def test_symmetric_uniform(self):
        row = [0.25, 0.25, 0.25, 0.25]
        model = make_model([row, row], 0.5)
        theta = infer_theta(model, bag([1, 1, 0, 2]))
        np.testing.assert_allclose(theta, [0.5, 0.5], atol=1e-9)

    def test_sums_to_one(self):
        rng = np.random.default_rng(8)
        model, symbols, *_ , v = random_instance(rng)
        theta = infer_theta(model, bag(np.bincount(symbols, minlength=v)))
        assert abs(theta.sum() - 1.0) < 1e-9

    def test_subtract_prior_option(self):
        rng = np.random.default_rng(20)
        beta = rng.dirichlet(np.ones(5), size=2)
        model = make_model(beta, 0.4)
        doc = bag([2, 1, 0, 3, 1])
        state = e_step_document(model, doc)
        theta = infer_theta(model, doc, LdaConfig(subtract_prior=True))
        want = (state.gamma - model.alpha) / (state.gamma - model.alpha).sum()
        np.testing.assert_allclose(theta, want, atol=1e-12)

    def test_empty_document_warns_uniform(self):
        model = make_model([[0.5, 0.5], [0.5, 0.5]], 1.0)
        with pytest.warns(UserWarning):
            theta = infer_theta(model, bag([0, 0]))
        np.testing.assert_allclose(theta, [0.5, 0.5])

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        beta = rng.dirichlet(np.ones(6), size=3)
        alpha = np.array([0.3, 0.5, 0.9])
        doc = bag([2, 0, 1, 3, 0, 1])
        base = infer_theta(make_model(beta, alpha), doc)
        perm = np.array([2, 0, 1])
        permuted = infer_theta(make_model(beta[perm], alpha[perm]), doc)
        np.testing.assert_allclose(permuted, base[perm], atol=1e-9)


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
