"""Seeded synthetic acoustic world and the input files built from it.

A world is a set of D-dimensional Gaussian acoustic units (D=39, the usual
MFCC + delta + delta-delta size) and a set of latent domains. Each domain has
its own mixture over the units and a channel offset added to every frame.
Unit means lie near a ladder along one direction and each domain's offset
moves along the same ladder, so a frame of unit c in domain g looks like unit
c + g in domain 0: the offset confounds the unit class, and only the domain
resolves it. Everything here is deterministic for a fixed seed (PCG64).

The program under test sees only the files written here; the generating
domain of each document stays with the benchmark.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

DIM = 39
LADDER_STEP = 1.5      # distance between adjacent units along the ladder
UNIT_SIGNATURE = 0.25  # per-dimension spread of each unit's own mean offset
CHANNEL_SPREAD = 0.1   # per-dimension spread of a domain offset off the ladder
DOMAIN_MIX_ALPHA = 0.5  # Dirichlet concentration of each domain's unit mixture
MAX_SEGMENT = 4        # a unit holds for 1..MAX_SEGMENT consecutive frames


@dataclass(frozen=True)
class World:
    unit_means: np.ndarray      # (U, D)
    unit_vars: np.ndarray       # (U, D)
    domain_mix: np.ndarray      # (G, U)
    domain_offset: np.ndarray   # (G, D)

    @property
    def num_units(self) -> int:
        return self.unit_means.shape[0]

    @property
    def num_domains(self) -> int:
        return self.domain_mix.shape[0]


@dataclass(frozen=True)
class Utterance:
    id: str
    domain: int
    frames: np.ndarray   # (T, D)
    units: np.ndarray    # (T,) generating unit class of every frame


def make_world(seed: int, num_units: int = 8, num_domains: int = 4) -> World:
    rng = np.random.default_rng([seed, 0])
    direction = rng.normal(size=DIM)
    direction /= np.linalg.norm(direction)
    ladder = np.arange(max(num_units, num_domains))[:, None] * LADDER_STEP * direction
    unit_means = ladder[:num_units] + UNIT_SIGNATURE * rng.normal(size=(num_units, DIM))
    unit_vars = rng.uniform(0.5, 1.5, size=(num_units, DIM))
    domain_mix = rng.dirichlet(np.full(num_units, DOMAIN_MIX_ALPHA), size=num_domains)
    domain_offset = ladder[:num_domains] + CHANNEL_SPREAD * rng.normal(
        size=(num_domains, DIM))
    return World(unit_means, unit_vars, domain_mix, domain_offset)


def utterances(world: World, seed: int, stream: int, num_docs: int,
               num_frames: int, prefix: str) -> list[Utterance]:
    """``num_docs`` utterances of ``num_frames`` frames; domains rotate so
    every domain gets the same number of documents."""
    rng = np.random.default_rng([seed, stream])
    width = len(str(num_docs - 1))
    out = []
    for i in range(num_docs):
        g = i % world.num_domains
        segments = rng.choice(world.num_units, size=num_frames, p=world.domain_mix[g])
        lengths = rng.integers(1, MAX_SEGMENT + 1, size=num_frames)
        units = np.repeat(segments, lengths)[:num_frames]
        noise = rng.normal(size=(num_frames, DIM)) * np.sqrt(world.unit_vars[units])
        frames = world.unit_means[units] + world.domain_offset[g] + noise
        out.append(Utterance(f"{prefix}{i:0{width}d}", g, frames, units))
    return out


def _frames_json(frames: np.ndarray) -> list:
    # five decimals keep the files small; the value written is the value read
    return np.round(frames, 5).tolist()


def write_features(path, utts: list[Utterance]) -> None:
    with open(path, "w") as fh:
        for u in utts:
            fh.write(json.dumps({"id": u.id, "group": f"g{u.domain}",
                                 "frames": _frames_json(u.frames)}) + "\n")


def write_labeled(path, utts: list[Utterance]) -> None:
    with open(path, "w") as fh:
        for u in utts:
            fh.write(json.dumps({"id": u.id, "group": f"g{u.domain}",
                                 "frames": _frames_json(u.frames),
                                 "labels": u.units.tolist()}) + "\n")


def write_assignments(path, utts: list[Utterance], num_domains: int,
                      seed: int, stream: int) -> None:
    """Domain posteriors concentrated on the generating domain, as a domain
    model with some confusion would infer them; MAP is their argmax."""
    rng = np.random.default_rng([seed, stream])
    with open(path, "w") as fh:
        for u in utts:
            conc = np.full(num_domains, 0.5)
            conc[u.domain] = 4.0
            theta = rng.dirichlet(conc)
            fh.write(json.dumps({"id": u.id, "theta": theta.tolist(),
                                 "map_domain": int(np.argmax(theta)),
                                 "weight": float(len(u.units))}) + "\n")


def write_codebook_gmm(path, utts: list[Utterance], num_components: int,
                       seed: int, stream: int) -> None:
    """A quantizer GMM made without EM: means are distinct frames drawn from
    the pooled corpus, every component gets the pooled per-dimension variance
    and equal weight. It stands in for a trained GMM where training is not the
    work being measured."""
    rng = np.random.default_rng([seed, stream])
    pooled = np.concatenate([u.frames for u in utts])
    picks = rng.choice(pooled.shape[0], size=num_components, replace=False)
    means = np.round(pooled[picks], 5)
    variances = np.tile(pooled.var(axis=0), (num_components, 1))
    with open(path, "w") as fh:
        json.dump({"D": DIM, "V": num_components,
                   "weights": [1.0 / num_components] * num_components,
                   "means": means.tolist(), "variances": variances.tolist()}, fh)
        fh.write("\n")
