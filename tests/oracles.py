"""Independent reference implementations used as test oracles.

These deliberately avoid the library's own code paths: direct density
formulas, exhaustive enumeration, grid quadrature, and the plain
per-array loops that the library's in-place forms must match bit for bit.
``gradient_check`` is an exception: it holds the network's own step to
central differences of its own loss. ``gmm_stages`` is another: it records
the average log-likelihood of each of ``train_gmm``'s own EM passes.
``lda_e_step_batch`` re-runs an underflowing document with the package's own
log-domain E-step.
"""

from itertools import product

import numpy as np
from scipy.special import digamma, expit, gammaln, logsumexp

from acoustic_lda import gmm, lda
from acoustic_lda.formats import FormatError
from acoustic_lda.network import _Step


def gaussian_responsibilities(weights, means, variances, frame):
    """Direct density-ratio posterior w_i N(x; mu_i, var_i) / sum_j (...)."""
    dens = []
    for w, mu, var in zip(weights, means, variances):
        d = w * np.prod(
            np.exp(-0.5 * (frame - mu) ** 2 / var) / np.sqrt(2 * np.pi * var)
        )
        dens.append(d)
    dens = np.asarray(dens)
    return dens / dens.sum()


def gaussian_log_joint(weights, means, variances, frames):
    """Direct log-domain log(w_i N(x; mu_i, var_i)) for each row of
    ``frames`` and each component, (N, V), one component at a time."""
    frames = np.atleast_2d(np.asarray(frames, dtype=float))
    out = np.empty((frames.shape[0], len(weights)))
    for i, (w, mu, var) in enumerate(zip(weights, means, variances)):
        out[:, i] = np.log(w) - 0.5 * (
            np.log(2 * np.pi * var).sum() + ((frames - mu) ** 2 / var).sum(axis=1))
    return out


def gmm_stages(frames, target_components):
    """``gmm.train_gmm(frames, target_components)`` and its EM stages: one
    (component count, [average log-likelihood of each pass]) per call of
    ``gmm._em_iterations``, from the totals ``gmm._em_statistics`` returns."""
    stages = []
    em_iterations, em_statistics = gmm._em_iterations, gmm._em_statistics

    def iterations(weights, *args):
        stages.append((weights.shape[0], []))
        return em_iterations(weights, *args)

    def statistics(*args):
        total, mass, acc = em_statistics(*args)
        stages[-1][1].append(total / args[-1].shape[1])
        return total, mass, acc

    gmm._em_iterations, gmm._em_statistics = iterations, statistics
    try:
        return gmm.train_gmm(frames, target_components), stages
    finally:
        gmm._em_iterations, gmm._em_statistics = em_iterations, em_statistics


def gmm_em_statistics(weights, means, variances, frames, centre):
    """One direct log-domain EM E-step from ``gaussian_log_joint``: the total
    log-likelihood, and per component the posterior mass, sum r * (x - centre)
    and sum r * (x - centre)^2."""
    log_joint = gaussian_log_joint(weights, means, variances, frames)
    log_norm = logsumexp(log_joint, axis=1, keepdims=True)
    resp = np.exp(log_joint - log_norm)
    x = np.asarray(frames, dtype=float) - centre
    return float(log_norm.sum()), resp.sum(axis=0), resp.T @ x, resp.T @ (x * x)


def brute_log_evidence(alpha, beta, symbols):
    """Exact log p(w | alpha, beta) for tiny instances.

    Enumerates all K^N latent assignments; the Dirichlet integral over theta
    is the closed-form moment E[prod theta_k^{n_k}].
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    k = beta.shape[0]
    n = len(symbols)
    a0 = alpha.sum()
    total = -np.inf
    for z in product(range(k), repeat=n):
        nk = np.bincount(np.asarray(z), minlength=k)
        lp = sum(np.log(beta[z[i], symbols[i]]) for i in range(n))
        lp += gammaln(a0) - gammaln(a0 + n)
        lp += (gammaln(alpha + nk) - gammaln(alpha)).sum()
        total = np.logaddexp(total, lp)
    return float(total)


def lda_e_step(alpha, log_beta, counts, gamma_tol, max_iters):
    """gamma and phi of one document by the (phi, gamma) coordinate ascent
    in the log domain: from gamma = alpha + N/K, phi_w = softmax_k(log_beta_kw
    + digamma(gamma_k)) and gamma = alpha + sum_w n_w phi_w, until the largest
    relative change of gamma falls below ``gamma_tol``. phi (U, K) is that of
    the last sweep, the one that gave gamma, with a row per symbol present in
    ``counts``, in symbol order."""
    alpha = np.asarray(alpha, dtype=float)
    log_beta = np.asarray(log_beta, dtype=float)
    counts = np.asarray(counts, dtype=float)
    ids = np.flatnonzero(counts)
    gamma = alpha + counts.sum() / log_beta.shape[0]
    for _ in range(max_iters):
        log_phi = log_beta[:, ids].T + digamma(gamma)
        phi = np.exp(log_phi - logsumexp(log_phi, axis=1, keepdims=True))
        new = alpha + counts[ids] @ phi
        done = np.max(np.abs(new - gamma) / gamma) < gamma_tol
        gamma = new
        if done:
            break
    return gamma, phi


def lda_e_step_batch(log_beta, eb, alpha, c):
    """gamma and digamma(gamma) of ``lda._e_step`` by the batch loop it
    replaced, which at every sweep gathers the live documents' gamma from the
    full (M, K) array, writes gamma and digamma back, and takes row maxima
    with ``max(axis=1)``. The sweep cap, tolerance and floor are read from
    ``lda`` at the call, and a document whose norm underflows is re-run by
    ``lda._log_domain_e_step``, so this differs from ``_e_step`` only in the
    form of its loop, and ``_e_step`` must match it bit for bit."""
    def scaled_norm(dig, eb, c):
        el = np.exp(dig - dig.max(axis=1, keepdims=True))
        norm = el @ eb
        under = np.zeros(c.shape[0], dtype=bool)
        if norm.min() < lda._NORM_FLOOR:
            small = norm < lda._NORM_FLOOR
            under = (small & (c > 0)).any(axis=1)
            norm[small] = 1.0
        return el, norm, under

    gamma = alpha + c.sum(axis=1, keepdims=True) / eb.shape[0]
    dig = np.empty_like(gamma)
    under = np.zeros(c.shape[0], dtype=bool)
    live, c_live = np.arange(c.shape[0]), c
    for _ in range(lda._MAX_E_ITERS):
        old = gamma[live]
        d = digamma(old)
        el, norm, low = scaled_norm(d, eb, c_live)
        new_gamma = alpha + el * ((c_live / norm) @ eb.T)
        gamma[live] = new_gamma
        dig[live] = d
        under[live[low]] = True
        keep = (np.max(np.abs(new_gamma - old) / old, axis=1) >= lda._GAMMA_TOL) & ~low
        live, c_live = live[keep], c_live[keep]
        if live.size == 0:
            break
    for i in np.flatnonzero(under):
        ids = np.flatnonzero(c[i])
        gamma[i], dig[i] = lda._log_domain_e_step(log_beta.T[ids], c[i, ids], alpha)
    return gamma, dig


def lda_phi_elbo(alpha, log_beta, counts, gamma, phi):
    """The evidence lower bound of one document in the phi form of Blei, Ng
    & Jordan (2003), one term at a time, for ``phi`` (U, K) with a row per
    symbol present in ``counts``:

        E[log p(theta | alpha)] + sum_w n_w E[log p(z_w | theta)]
        + sum_w n_w E[log p(w | z_w, beta)] - E[log q(theta)]
        - sum_w n_w E[log q(z_w)].
    """
    alpha, gamma = np.asarray(alpha, dtype=float), np.asarray(gamma, dtype=float)
    counts = np.asarray(counts, dtype=float)
    ids = np.flatnonzero(counts)
    n, lb = counts[ids], np.asarray(log_beta, dtype=float)[:, ids].T
    e_log_theta = digamma(gamma) - digamma(gamma.sum())
    log_p_theta = (gammaln(alpha.sum()) - gammaln(alpha).sum()
                   + ((alpha - 1.0) * e_log_theta).sum())
    log_q_theta = (gammaln(gamma.sum()) - gammaln(gamma).sum()
                   + ((gamma - 1.0) * e_log_theta).sum())
    log_p_z = n @ (phi @ e_log_theta)
    with np.errstate(divide="ignore", invalid="ignore"):   # 0 * log 0 is 0
        log_p_w = n @ np.where(phi > 0, phi * lb, 0.0).sum(axis=1)
        log_q_z = n @ np.where(phi > 0, phi * np.log(phi), 0.0).sum(axis=1)
    return float(log_p_theta + log_p_z + log_p_w - log_q_theta - log_q_z)


def grid_posterior_mean_theta0(alpha, beta, symbols, grid_points=10_000):
    """Posterior mean of theta_0 for K=2, by quadrature on a theta grid."""
    beta = np.asarray(beta, dtype=float)
    assert beta.shape[0] == 2
    t = (np.arange(grid_points) + 0.5) / grid_points
    log_prior = (alpha - 1.0) * (np.log(t) + np.log(1.0 - t))
    log_like = np.zeros_like(t)
    for s in symbols:
        log_like += np.log(t * beta[0, s] + (1.0 - t) * beta[1, s])
    log_post = log_prior + log_like
    post = np.exp(log_post - log_post.max())
    return float((t * post).sum() / post.sum())


def greedy_row_match(reference, candidate):
    """Greedily match candidate rows to reference rows by total-variation
    distance; returns the per-reference-row TV after matching."""
    reference = np.asarray(reference)
    candidate = np.asarray(candidate)
    available = set(range(candidate.shape[0]))
    tvs, perm = [], []
    for row in reference:
        best, best_tv = None, np.inf
        for j in available:
            tv = 0.5 * np.abs(candidate[j] - row).sum()
            if tv < best_tv:
                best, best_tv = j, tv
        available.discard(best)
        perm.append(best)
        tvs.append(best_tv)
    return np.asarray(tvs), perm


def prefix_filter_oracle(pairs_with_weights, k_b, target):
    """Independent re-implementation of the tuple-prefix pruning rule.

    ``pairs_with_weights``: list of ((a, b), doc_weight) per document.
    Returns the set of kept tuples.
    """
    hist = {}
    for pair, w in pairs_with_weights:
        hist[pair] = hist.get(pair, 0.0) + w
    order = sorted(hist, key=lambda p: (-hist[p], p[0] * k_b + p[1]))
    kept, acc = set(), 0.0
    for pair in order:
        kept.add(pair)
        acc += hist[pair]
        if acc >= target:
            break
    return kept


def network_forward(net, inputs):
    """Output probabilities of ``net`` for rows ``inputs``, with every
    layer's (pre-activation, activation) pair kept, as new arrays per layer."""
    h = inputs
    cache = [(None, h)]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w.T + b
        if i < len(net.weights) - 1:
            h = expit(z) if net.activation == "sigmoid" else np.maximum(z, 0.0)
        else:
            z = z - z.max(axis=-1, keepdims=True)
            e = np.exp(z)
            h = e / e.sum(axis=-1, keepdims=True)
        cache.append((z, h))
    return h, cache


def network_backprop(net, inputs, labels):
    """Mean cross-entropy loss and per-layer weight and bias gradients for
    one batch, each gradient a new array."""
    probs, cache = network_forward(net, inputs)
    n = probs.shape[0]
    loss = -float(np.log(probs[np.arange(n), labels] + 1e-12).mean())
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grads_w, grads_b = [], []
    for i in range(len(net.weights) - 1, -1, -1):
        h_prev = cache[i][1]
        grads_w.append(delta.T @ h_prev)
        grads_b.append(delta.sum(axis=0))
        if i > 0:
            back = delta @ net.weights[i]
            if net.activation == "sigmoid":
                delta = back * h_prev * (1.0 - h_prev)
            else:
                delta = back * (cache[i][0] > 0)
    return loss, grads_w[::-1], grads_b[::-1]


def network_inputs(net, dataset, domains=None):
    """The whole input matrix of the labelled frames ``dataset``: a
    document's domain enters as a row of ``np.eye(K)``, appended to each of
    its frames."""
    if domains is None:
        return dataset.frames
    frame_domains = np.repeat(domains, np.diff(dataset.offsets))
    return np.concatenate([dataset.frames, np.eye(net.domain_dim)[frame_domains]], axis=1)


def network_accuracy(net, inputs, labels):
    """The share of the rows ``inputs`` whose most probable class under
    ``net`` is their label, from one forward pass over all of them."""
    probs, _ = network_forward(net, inputs)
    return float((probs.argmax(axis=1) == labels).mean())


@np.errstate(over="raise", invalid="raise")
def network_train(net, dataset, config, domains=None):
    """Minibatch SGD on cross-entropy, one batch at a time: per-batch row
    gathers, ``network_backprop``, a per-array ``w -= lr * g`` on
    ``net.weights`` and ``net.biases``, and the per-batch mean loss added to
    the epoch's total. Same seeded draws and metric dicts as
    ``network.train``; the held-out accuracy is ``network_accuracy`` on the
    held-out rows of ``network_inputs``."""
    inputs = network_inputs(net, dataset, domains)
    labels, n = dataset.labels, len(dataset)
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(n)
    n_cv = int(round(config.cv_fraction * n))
    cv_idx, tr_idx = perm[:n_cv], perm[n_cv:]
    lr = config.learning_rate
    metrics = []
    for epoch in range(config.epochs):
        order = tr_idx[rng.permutation(tr_idx.size)]
        epoch_loss = 0.0
        for start in range(0, order.size, config.batch_size):
            batch = order[start:start + config.batch_size]
            loss, gw, gb = network_backprop(net, inputs[batch], labels[batch])
            epoch_loss += loss * batch.size
            for w, g in zip(net.weights, gw):
                w -= lr * g
            for b, g in zip(net.biases, gb):
                b -= lr * g
        cv_accuracy = None
        if n_cv:
            cv_accuracy = network_accuracy(net, inputs[cv_idx], labels[cv_idx])
        metrics.append({"epoch": epoch, "train_loss": epoch_loss / order.size,
                        "cv_accuracy": cv_accuracy})
    return metrics


def gradient_check(net, inputs, label, epsilon=1e-5):
    """Max relative error between the gradient ``network._Step`` writes for
    the single input row ``inputs`` (1, D + K) with ``label`` and central
    differences of the loss from ``net._forward``, over every parameter,
    W_d columns included."""
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError("epsilon must lie in [1e-7, 1e-3]")
    grad = np.empty_like(net.params)
    _Step(net, 1, grad)(inputs, np.asarray([label], dtype=np.int64))

    def loss_at():
        return -float(np.log(net._forward(inputs)[0, label] + 1e-12))

    max_err = 0.0
    flat = net.params
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + epsilon
        hi = loss_at()
        flat[i] = orig - epsilon
        lo = loss_at()
        flat[i] = orig
        numeric = (hi - lo) / (2.0 * epsilon)
        denom = max(abs(numeric) + abs(grad[i]), 1e-8)
        max_err = max(max_err, abs(numeric - grad[i]) / denom)
    return max_err


def json_numbers(value, name, shape):
    """``formats.numbers`` as an exact type scan of every entry: np.asarray
    with a float dtype, then the set of the entries' types, which must hold
    only int and float. Faults raise ``formats.FormatError`` with the same
    words."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.ndim != len(shape) or not (
            {type(v) for v in value} if arr.ndim == 1
            else {type(v) for row in value for v in row}) <= {int, float}:
        raise FormatError(f"{name} must be a regular array of numbers: {len(shape)}-d "
                          f"nested lists of numbers, no strings or booleans")
    if any(n is not None and n != m for n, m in zip(shape, arr.shape)):
        raise FormatError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr
