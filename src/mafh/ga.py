"""Real-coded genetic algorithm baseline over the spacing polytope.

Chromosome = spacing vector.  Tournament selection (size 2), blend
crossover (per-gene uniform mix), additive Gaussian mutation, elitism of one,
and a repair step that first clamps genes to the half-wavelength floor and
then scales the excess above the floor down until the aperture budget holds.
Each generation is scored in one ``ObjectiveEvaluator.f_weighted`` call on
the stack of its layouts (the initial population, then the children; the
elite keeps its known fitness).  Everything is driven by one seeded
generator, so results are deterministic in (params, evaluator, weights).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (AntennaLayout, ValidationError, _check_integer, _check_seed,
                    random_feasible_layout)
from .objective import ObjectiveEvaluator, _check_alpha
from .rgpm import FeasiblePolytope

P_CROSS = 0.9     # crossover probability
P_MUT = 0.2       # per-gene mutation probability
SIGMA_MUT = 0.1   # mutation spread (wavelengths)


@dataclass(frozen=True)
class GaParams:
    generations: int = 100
    population: int = 16
    seed: int = 0

    def __post_init__(self):
        for name in ("generations", "population"):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name)))
        object.__setattr__(self, "seed", _check_seed("seed", self.seed))
        if self.generations < 1:
            raise ValidationError(f"generations: expected >= 1, got {self.generations}")
        if self.population < 2:
            raise ValidationError(f"population: expected >= 2, got {self.population}")


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


def ga_optimize(poly: FeasiblePolytope, ev: ObjectiveEvaluator, alpha,
                params: GaParams | None = None) -> GaResult:
    """Minimize ``ev.f_weighted`` at weights ``alpha``; deterministic in the seed."""
    alpha = _check_alpha(alpha)
    params = params or GaParams()
    n, L = poly.n, poly.L
    rng = np.random.default_rng(params.seed)

    pop = np.array([random_feasible_layout(n + 1, L, rng).d
                    for _ in range(params.population)])
    fit = ev.f_weighted(pop, alpha)
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
            if rng.uniform() < P_CROSS:
                mix = rng.uniform(size=n)
                child = mix * p1 + (1.0 - mix) * p2
            mutate = rng.uniform(size=n) < P_MUT
            if mutate.any():
                child = child + mutate * rng.normal(0.0, SIGMA_MUT, size=n)
            children.append(_repair(child, L))
        pop = np.asarray(children)
        # the elite re-enters unchanged, so its fitness is not recomputed
        fit = np.concatenate(([elite_fit], ev.f_weighted(pop[1:], alpha)))
        trace.append(float(fit.min()))

    best = int(np.argmin(fit))
    layout = AntennaLayout(d=pop[best], L=L)
    return GaResult(layout=layout, best_trace=tuple(trace), f_final=float(fit[best]))
