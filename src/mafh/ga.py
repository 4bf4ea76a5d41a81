"""Real-coded genetic algorithm baseline over the spacing polytope.

Chromosome = spacing vector.  Tournament selection (size 2), blend
crossover (per-gene uniform mix), additive Gaussian mutation, elitism of one,
and a repair step that first clamps genes to the half-wavelength floor and
then scales the excess above the floor down until the aperture budget holds.
Everything is driven by one seeded generator, so results are deterministic
in (params, evaluator, weights).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AntennaLayout, ValidationError
from .objective import ObjectiveEvaluator, _check_alpha
from .rgpm import FeasiblePolytope


@dataclass(frozen=True)
class GaParams:
    generations: int = 100
    population: int = 16
    p_cross: float = 0.9
    p_mut: float = 0.2        # per-gene mutation probability
    sigma_mut: float = 0.1    # mutation spread (wavelengths)
    seed: int = 0

    def __post_init__(self):
        if self.generations < 1:
            raise ValidationError(f"generations: expected >= 1, got {self.generations}")
        if self.population < 2:
            raise ValidationError(f"population: expected >= 2, got {self.population}")
        for name in ("p_cross", "p_mut"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"{name}: expected a probability, got {p}")
        if not self.sigma_mut > 0:
            raise ValidationError(f"sigma_mut: expected > 0, got {self.sigma_mut}")


@dataclass(frozen=True, eq=False)
class GaResult:
    layout: AntennaLayout
    best_trace: tuple   # best objective per generation (monotone via elitism)
    f_final: float


def _repair(d: np.ndarray, L: float) -> np.ndarray:
    """Clamp to the lambda/2 floor, then shrink the excess to fit the budget."""
    n = d.size
    d = np.maximum(d, 0.5)
    total = d.sum()
    if total > L:
        floor = 0.5 * n
        excess = d - 0.5
        d = 0.5 + excess * ((L - floor) / (total - floor))
    return d


def _random_population(rng, n_genes: int, L: float, size: int) -> np.ndarray:
    slack = L - 0.5 * n_genes
    pop = np.empty((size, n_genes))
    for i in range(size):
        z = np.sort(rng.uniform(0.0, 1.0, size=n_genes))
        pop[i] = 0.5 + slack * np.diff(np.concatenate(([0.0], z)))
    return pop


def ga_optimize(poly: FeasiblePolytope, ev: ObjectiveEvaluator, alpha,
                params: GaParams | None = None) -> GaResult:
    """Minimize ``ev.f_weighted`` at weights ``alpha``; deterministic in the seed."""
    alpha = _check_alpha(alpha)
    params = params or GaParams()
    n = poly.A.shape[1]
    L = -float(poly.b[-1])
    if L < 0.5 * n - 1e-9:
        raise ValidationError(f"L: aperture {L} infeasible for {n} spacings")

    rng = np.random.default_rng(params.seed)

    pop = _random_population(rng, n, L, params.population)
    fit = np.array([ev.f_weighted(ind, alpha) for ind in pop])
    trace = [float(fit.min())]

    for _ in range(params.generations):
        order = np.argsort(fit, kind="stable")
        elite = pop[order[0]].copy()
        elite_fit = float(fit[order[0]])

        children = [elite]
        while len(children) < params.population:
            # tournament of two per parent
            i, j = rng.integers(0, params.population, size=2)
            p1 = pop[i] if fit[i] <= fit[j] else pop[j]
            i, j = rng.integers(0, params.population, size=2)
            p2 = pop[i] if fit[i] <= fit[j] else pop[j]
            child = p1.copy()
            if rng.uniform() < params.p_cross:
                mix = rng.uniform(size=n)
                child = mix * p1 + (1.0 - mix) * p2
            mutate = rng.uniform(size=n) < params.p_mut
            if mutate.any():
                child = child + mutate * rng.normal(0.0, params.sigma_mut, size=n)
            children.append(_repair(child, L))
        pop = np.asarray(children)
        fit = np.array([ev.f_weighted(ind, alpha) for ind in pop])
        fit[0] = elite_fit  # elite re-enters unchanged
        trace.append(float(fit.min()))

    best = int(np.argmin(fit))
    layout = AntennaLayout(d=pop[best], L=L)
    return GaResult(layout=layout, best_trace=tuple(trace), f_final=float(fit[best]))
