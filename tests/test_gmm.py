import numpy as np
import pytest

from acoustic_lda import gmm
from acoustic_lda.corpus import FeatureDocument
from acoustic_lda.gmm import GmmModel, load_gmm, quantize, save_gmm, train_gmm
from oracles import (
    gaussian_log_joint,
    gaussian_responsibilities,
    gmm_em_statistics,
    gmm_stages,
)


def random_model(rng, v, d):
    w = rng.dirichlet(np.ones(v))
    return GmmModel(
        weights=w,
        means=rng.normal(size=(v, d)),
        variances=rng.uniform(0.2, 2.0, size=(v, d)),
    )


def responsibilities(model, frame):
    """Posterior over components of one frame, from the log joint whose
    argmax ``quantize`` takes."""
    lj = gmm._log_joint(model._terms, frame[None, :] - model._terms.centre)[0]
    post = np.exp(lj - lj.max())
    return post / post.sum()


class TestResponsibilities:
    def test_single_component(self):
        model = GmmModel(weights=np.array([1.0]), means=np.zeros((1, 2)),
                         variances=np.ones((1, 2)))
        np.testing.assert_allclose(responsibilities(model, np.array([3.0, -1.0])),
                                   [1.0])

    def test_symmetric_pair(self):
        model = GmmModel(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-2.0], [2.0]]),
            variances=np.array([[1.0], [1.0]]),
        )
        r = responsibilities(model, np.array([0.0]))
        np.testing.assert_allclose(r, [0.5, 0.5], atol=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 3, 2)
        for _ in range(20):
            frame = rng.normal(size=2)
            got = responsibilities(model, frame)
            want = gaussian_responsibilities(
                model.weights, model.means, model.variances, frame)
            np.testing.assert_allclose(got, want, atol=1e-10)
            assert abs(got.sum() - 1.0) < 1e-9

    def test_dimension_mismatch(self):
        model = GmmModel(weights=np.array([1.0]), means=np.zeros((1, 2)),
                         variances=np.ones((1, 2)))
        with pytest.raises(ValueError, match="dim 3, model dim is 2"):
            quantize(model, FeatureDocument(id="d", frames=np.zeros((1, 3))))


class TestQuantize:
    def test_frames_at_means(self):
        means = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        model = GmmModel(weights=np.full(3, 1 / 3), means=means,
                         variances=np.ones((3, 2)))
        doc = FeatureDocument(id="d", frames=means[[2, 0, 1]])
        out = quantize(model, doc)
        np.testing.assert_array_equal(out.symbols, [2, 0, 1])
        assert out.id == "d" and len(out) == 3

    def test_tie_breaks_to_lowest_index(self):
        # components 1 and 4 identical; 0 is far away with tiny weight
        means = np.array([[50.0], [0.0], [20.0], [30.0], [0.0]])
        weights = np.array([0.1, 0.3, 0.1, 0.2, 0.3])
        model = GmmModel(weights=weights / weights.sum(), means=means,
                         variances=np.ones((5, 1)))
        out = quantize(model, FeatureDocument(id="d", frames=np.array([[0.0]])))
        assert out.symbols[0] == 1

    def test_matches_responsibility_argmax(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, 5, 3)
        doc = FeatureDocument(id="d", frames=rng.normal(size=(40, 3)))
        out = quantize(model, doc)
        for t, frame in enumerate(doc.frames):
            want = int(np.argmax(gaussian_responsibilities(
                model.weights, model.means, model.variances, frame)))
            assert out.symbols[t] == want

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 4, 2)
        perm = np.array([2, 0, 3, 1])
        permuted = GmmModel(weights=model.weights[perm], means=model.means[perm],
                            variances=model.variances[perm])
        doc = FeatureDocument(id="d", frames=rng.normal(size=(30, 2)))
        base = quantize(model, doc).symbols
        inverse = np.argsort(perm)
        np.testing.assert_array_equal(quantize(permuted, doc).symbols,
                                      inverse[base])


class TestDensityPath:
    """The two-matrix-product log joint, its frame blocks and its near-tie
    re-score, against the direct log-domain oracle."""

    def test_near_tie_far_from_centre_matches_oracle(self):
        rng = np.random.default_rng(21)
        v, d = 10, 4
        means = rng.normal(scale=5.0, size=(v, d))
        variances = 10.0 ** rng.uniform(-6, 1, size=(v, d))
        # components 3 and 7: a near-tie pair 1e4 away from the others
        means[7] = 1e4 + rng.normal(size=d)
        means[3] = means[7] + rng.normal(scale=1e-2, size=d)
        variances[3] = variances[7] = rng.uniform(0.5, 2.0, size=d)
        model = GmmModel(weights=np.full(v, 1.0 / v), means=means,
                         variances=variances)
        midpoint = (means[3] + means[7]) / 2
        frames = np.concatenate([
            midpoint + rng.normal(scale=1e-4, size=(400, d)),
            rng.normal(scale=5.0, size=(400, d)),
        ])
        oracle = gaussian_log_joint(model.weights, means, variances, frames)
        top2 = np.sort(oracle, axis=1)[:, -2:]
        assert (top2[:, 1] - top2[:, 0] > 1e-9).all()   # the oracle is decisive
        symbols = quantize(model, FeatureDocument(id="d", frames=frames)).symbols
        np.testing.assert_array_equal(symbols, oracle.argmax(axis=1))
        assert {3, 7} <= set(symbols[:400].tolist())

    @pytest.mark.parametrize("offset", [1e4, -1e4])
    def test_identical_components_far_away_tie_to_lowest_index(self, offset):
        rng = np.random.default_rng(22)
        d = 3
        far = offset + rng.normal(size=d)
        means = np.vstack([rng.normal(size=(2, d)), far, rng.normal(size=(1, d)),
                           far, far])
        variances = rng.uniform(0.5, 2.0, size=(6, d))
        variances[[4, 5]] = variances[2]
        model = GmmModel(weights=np.full(6, 1.0 / 6), means=means,
                         variances=variances)
        frames = far + rng.normal(scale=0.5, size=(300, d))
        symbols = quantize(model, FeatureDocument(id="d", frames=frames)).symbols
        assert (symbols == 2).all()

    def test_common_offset_needs_no_rescore(self, monkeypatch):
        # centring on the mean of the means keeps the rounding bound small
        rng = np.random.default_rng(24)
        model = random_model(rng, 6, 3)
        model = GmmModel(weights=model.weights, means=model.means + 1e7,
                         variances=model.variances)
        frames = 1e7 + rng.normal(scale=1.5, size=(2000, 3))
        direct, rescored = gmm._log_joint_direct, []
        monkeypatch.setattr(gmm, "_log_joint_direct",
                            lambda *a: rescored.append(len(a[-1])) or direct(*a))
        symbols = quantize(model, FeatureDocument(id="d", frames=frames)).symbols
        oracle = gaussian_log_joint(model.weights, model.means, model.variances,
                                    frames)
        np.testing.assert_array_equal(symbols, oracle.argmax(axis=1))
        assert sum(rescored) == 0

    def test_small_blocks_match_one_block(self, monkeypatch):
        rng = np.random.default_rng(23)
        frames = np.concatenate([rng.normal(c, 1.0, size=(200, 3))
                                 for c in (-6.0, 0.0, 6.0)])
        doc = FeatureDocument(id="d", frames=frames)
        assert frames.shape[0] <= gmm._BLOCK_FRAMES
        one_block = train_gmm(frames, 5)
        symbols = quantize(one_block, doc).symbols

        monkeypatch.setattr(gmm, "_BLOCK_FRAMES", 7)
        blocked = train_gmm(frames, 5)
        np.testing.assert_array_equal(quantize(one_block, doc).symbols, symbols)
        np.testing.assert_array_equal(quantize(blocked, doc).symbols, symbols)
        for name in ("weights", "means", "variances"):
            np.testing.assert_allclose(getattr(blocked, name),
                                       getattr(one_block, name), rtol=0, atol=1e-10)


class TestModelTerms:
    """``quantize`` and the posterior take each model's log-joint and
    tie-margin terms from the model, where they are built once."""

    def test_interleaved_models_match_oracle_and_build_terms_once(self, monkeypatch):
        rng = np.random.default_rng(25)
        d = 3
        plain = random_model(rng, 6, d)
        # a near-tie pair (components 1 and 2) 1e4 away from the other two
        means = rng.normal(size=(4, d))
        means[1] = 1e4 + rng.normal(size=d)
        means[2] = means[1] + rng.normal(scale=1e-2, size=d)
        variances = 10.0 ** rng.uniform(-6, 1, size=(4, d))
        variances[1] = variances[2] = rng.uniform(0.5, 2.0, size=d)
        near_tie = GmmModel(weights=np.full(4, 0.25), means=means, variances=variances)
        midpoint = (means[1] + means[2]) / 2
        docs = [FeatureDocument(id=f"d{i}", frames=frames) for i, frames in enumerate([
            rng.normal(size=(1, d)),
            np.concatenate([midpoint + rng.normal(scale=1e-4, size=(30, d)),
                            rng.normal(scale=20.0, size=(30, d))]),
            rng.normal(loc=20.0, scale=20.0, size=(25, d))])]
        built, build = [], gmm._model_terms
        monkeypatch.setattr(gmm, "_model_terms",
                            lambda model: built.append(model) or build(model))
        rescored, direct = [], gmm._log_joint_direct
        monkeypatch.setattr(gmm, "_log_joint_direct",
                            lambda *a: rescored.append(len(a[-1])) or direct(*a))
        monkeypatch.setattr(gmm, "_BLOCK_FRAMES", 7)
        for doc in docs:
            for model in (plain, near_tie, plain):
                oracle = gaussian_log_joint(model.weights, model.means, model.variances,
                                            doc.frames)
                top2 = np.sort(oracle, axis=1)[:, -2:]
                assert (top2[:, 1] - top2[:, 0] > 1e-9).all()   # the oracle is decisive
                np.testing.assert_array_equal(quantize(model, doc).symbols,
                                              oracle.argmax(axis=1))
                assert responsibilities(model, doc.frames[0]).argmax() == oracle[0].argmax()
        assert len(built) == 2 and built[0] is plain and built[1] is near_tie
        assert sum(rescored) > 0

    def test_model_owns_its_arrays(self):
        # a view of the caller's array cannot change the model behind its terms
        means = np.array([[0.0], [1.0]])
        view = means[:]
        model = GmmModel(weights=np.array([0.5, 0.5]), means=means,
                         variances=np.ones((2, 1)))
        doc = FeatureDocument(id="d", frames=np.array([[0.9]]))
        assert quantize(model, doc).symbols[0] == 1
        view[1, 0] = -5.0
        assert means.flags.writeable and not model.means.flags.writeable
        assert model.means[1, 0] == 1.0 and quantize(model, doc).symbols[0] == 1


class TestEmPath:
    """EM on the per-fit design matrix, against the direct log-domain
    E-step of the oracle."""

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_statistics_match_oracle(self, monkeypatch, offset, block):
        rng = np.random.default_rng(25)
        v, d = 6, 3
        frames = offset + np.concatenate([rng.normal(c, 1.0, size=(100, d))
                                          for c in (-3.0, 0.0, 3.0)])
        model = random_model(rng, v, d)
        means = offset + 2.0 * model.means
        if block is not None:
            monkeypatch.setattr(gmm, "_BLOCK_FRAMES", block)
        g, z = gmm._design_matrix(frames)
        ll, mass, acc = gmm._em_statistics(model.weights, means, model.variances,
                                           g, z)
        want_ll, want_mass, want_first, want_second = gmm_em_statistics(
            model.weights, means, model.variances, frames, g)
        np.testing.assert_allclose(ll, want_ll, rtol=1e-9, atol=0)
        np.testing.assert_allclose(mass, want_mass, rtol=1e-9, atol=0)
        np.testing.assert_allclose(acc[:, d:], want_first, rtol=1e-9, atol=0)
        np.testing.assert_allclose(acc[:, :d], want_second, rtol=1e-9, atol=0)

    def test_common_offset_shifts_the_fit(self):
        rng = np.random.default_rng(26)
        frames = np.concatenate([rng.normal(c, 1.0, size=(300, 2))
                                 for c in ([-4.0, 0.0], [0.0, 3.0], [4.0, 0.0])])
        base, base_history = gmm_stages(frames, 6)
        far, far_history = gmm_stages(frames + 1e4, 6)
        assert ([len(lls) for _, lls in far_history]
                == [len(lls) for _, lls in base_history])
        np.testing.assert_array_equal(
            quantize(far, FeatureDocument(id="d", frames=frames + 1e4)).symbols,
            quantize(base, FeatureDocument(id="d", frames=frames)).symbols)
        np.testing.assert_allclose(far.means, base.means + 1e4, rtol=0, atol=1e-9)
        np.testing.assert_allclose(far.variances, base.variances, rtol=1e-9)
        np.testing.assert_allclose(far.weights, base.weights, rtol=1e-9)

    def test_reseed_on_a_stages_last_pass_is_refitted(self, monkeypatch):
        # 14 frames at 2 and 10 at 1: at V=5 the last pass after the last
        # split finds a component with no mass
        frames = np.repeat([[2.0], [1.0]], [14, 10], axis=0)
        reseeded, split = [], gmm._split

        def recorded(weights, means, variances, src, dst):
            # a mix-up split fills an appended zero-weight slot; a re-seed
            # splits into a component that had weight
            reseed = weights[dst] > 0
            split(weights, means, variances, src, dst)
            if reseed:
                reseeded.append((weights.copy(), means.copy(), variances.copy()))

        monkeypatch.setattr(gmm, "_split", recorded)
        monkeypatch.setattr(gmm, "_MAX_FINAL_ITERS", 0)
        model, history = gmm_stages(frames, 5)
        assert [len(lls) for _, lls in history] == [4, 4, 4, 5, 0]
        assert len(reseeded) == 1

        weights, means, variances = reseeded[0]
        _, mass, first, second = gmm_em_statistics(weights, means, variances,
                                                   frames, 0.0)
        want_means = first / mass[:, None]
        floor = np.maximum(1e-4 * frames.var(axis=0), 1e-12)
        want_variances = np.maximum(second / mass[:, None] - want_means ** 2, floor)
        np.testing.assert_allclose(model.weights, mass / mass.sum(), rtol=1e-9)
        np.testing.assert_allclose(model.means, want_means, rtol=1e-9)
        np.testing.assert_allclose(model.variances, want_variances, rtol=1e-9)


class TestTrainGmm:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(0)
        frames = rng.normal(loc=[1.0, -2.0], scale=[0.5, 2.0], size=(500, 2))
        model = train_gmm(frames, 1)
        np.testing.assert_allclose(model.weights, [1.0])
        np.testing.assert_allclose(model.means[0], frames.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(model.variances[0], frames.var(axis=0),
                                   atol=1e-9)

    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(1)
        centers = np.array([[0.0, 0.0], [12.0, 0.0], [0.0, 12.0]])
        frames = np.concatenate(
            [rng.normal(c, 1.0, size=(1500, 2)) for c in centers])
        model = train_gmm(frames, 3)
        available = set(range(3))
        for c in centers:
            j = min(available, key=lambda j: np.abs(model.means[j] - c).max())
            available.discard(j)
            assert np.abs(model.means[j] - c).max() < 0.1

    def test_too_few_frames(self):
        with pytest.raises(ValueError, match="at least"):
            train_gmm(np.zeros((2, 1)) + [[0.0], [1.0]], 3)

    def test_monotone_log_likelihood(self):
        rng = np.random.default_rng(2)
        frames = np.concatenate([
            rng.normal(0.0, 1.0, size=(150, 2)),
            rng.normal(4.0, 1.5, size=(150, 2)),
        ])
        _, history = gmm_stages(frames, 4)
        for _, lls in history:
            diffs = np.diff(lls)
            assert (diffs >= -1e-8).all()

    def test_variance_floor(self, monkeypatch):
        rng = np.random.default_rng(3)
        frames = rng.normal(size=(200, 3))
        monkeypatch.setattr(gmm, "_VARIANCE_FLOOR", 1e-2)
        model = train_gmm(frames, 4)
        floor = 1e-2 * frames.var(axis=0)
        assert np.all(model.variances >= floor[None, :] - 1e-15)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(4)
        frames = rng.normal(size=(300, 2))
        model = train_gmm(frames, 8)
        assert abs(model.weights.sum() - 1.0) < 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        frames = rng.normal(size=(200, 2))
        a = train_gmm(frames, 4)
        b = train_gmm(frames, 4)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.weights, b.weights)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        model = random_model(rng, 3, 2)
        path = tmp_path / "gmm.json"
        save_gmm(path, model, seed=7)
        back = load_gmm(path)
        np.testing.assert_allclose(back.weights, model.weights, atol=1e-12)
        np.testing.assert_allclose(back.means, model.means, atol=1e-12)
        np.testing.assert_allclose(back.variances, model.variances, atol=1e-12)
