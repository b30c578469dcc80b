"""Declarative solver registry with capability tags.

Each solver is described once by a :class:`SolverSpec` — its kind
(single/multi-task), whether it certifies optimality, its cost model,
and free-form capability tags — and every consumer (the portfolio, the
CLI, the batch engine, benchmarks) selects by name or declared
capability instead of by import.

All registered entry points are module-level functions, so specs
pickle by reference and travel to :mod:`multiprocessing` workers
unchanged.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.context import RequirementSequence
from repro.core.machine import MachineModel
from repro.core.task import TaskSystem
from repro.solvers.base import MTSolveResult, SolveResult

__all__ = [
    "SolverSpec",
    "SolverRegistry",
    "default_registry",
    "TAG_EXACT",
    "TAG_HEURISTIC",
    "TAG_STOCHASTIC",
    "TAG_META",
    "TAG_TINY_ONLY",
    "TAG_PACKED",
]

#: Capability tags with agreed meaning across consumers.
TAG_EXACT = "exact"
TAG_HEURISTIC = "heuristic"
TAG_STOCHASTIC = "stochastic"  # result depends on a seed parameter
TAG_META = "meta"  # dispatches to other registered solvers
TAG_TINY_ONLY = "tiny-only"  # exponential; refuses big instances
TAG_PACKED = "packed"  # accepts a precompiled PackedProblem (packed=)


@dataclass(frozen=True)
class SolverSpec:
    """One solver as seen by the engine.

    Attributes
    ----------
    name:
        Unique registry name; also the ``solver`` field of requests.
    kind:
        ``"single"`` (``fn(seq, w, **params)``) or ``"multi"``
        (``fn(system, seqs, model, **params)``).
    fn:
        Entry point with the normalized signature above.  Must be a
        module-level callable so batch workers can unpickle it.
    exact:
        True when the solver proves optimality on every instance it
        accepts.
    cost_model:
        Objective family (``"switch"``, ``"changeover"``, …); consumers
        must not mix results across cost models.
    tags:
        Free-form capability tags (see the ``TAG_*`` constants).
    description:
        One-line summary for listings.
    """

    name: str
    kind: str
    fn: Callable
    exact: bool
    cost_model: str = "switch"
    tags: frozenset = field(default_factory=frozenset)
    description: str = ""

    def __post_init__(self):
        if self.kind not in ("single", "multi"):
            raise ValueError(f"kind must be 'single' or 'multi': {self.kind!r}")
        if not self.name:
            raise ValueError("solver name must be non-empty")

    def solve(self, *args, **kwargs):
        return self.fn(*args, **kwargs)


class SolverRegistry:
    """Name → :class:`SolverSpec` mapping with capability queries."""

    def __init__(self):
        self._specs: dict[str, SolverSpec] = {}
        self._lock = threading.Lock()

    # Registries travel to multiprocessing workers inside batch
    # payloads; locks don't pickle, so ship the specs and rebuild.
    def __getstate__(self):
        return {"specs": dict(self._specs)}

    def __setstate__(self, state):
        self._specs = state["specs"]
        self._lock = threading.Lock()

    def register(self, spec: SolverSpec, *, replace: bool = False) -> SolverSpec:
        with self._lock:
            if spec.name in self._specs and not replace:
                raise ValueError(f"solver {spec.name!r} already registered")
            self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> SolverSpec:
        try:
            return self._specs[name]
        except KeyError:
            known = ", ".join(sorted(self._specs)) or "<empty registry>"
            raise KeyError(
                f"unknown solver {name!r}; registered: {known}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def names(self, kind: str | None = None) -> tuple[str, ...]:
        """Registered solver names, **sorted by name**.

        Ordering guarantee: every enumeration this registry exposes —
        :meth:`names`, :meth:`select`, :meth:`describe` — is sorted by
        solver name, never by registration order.  Consumers that
        tie-break between equivalent solvers (the portfolio's
        deterministic rankings) rely on this being stable across
        processes and registration histories.
        """
        return tuple(
            sorted(
                name
                for name, spec in self._specs.items()
                if kind is None or spec.kind == kind
            )
        )

    def select(
        self,
        *,
        kind: str | None = None,
        exact: bool | None = None,
        tags: Iterable[str] = (),
        without_tags: Iterable[str] = (),
    ) -> list[SolverSpec]:
        """All specs matching every given constraint, **sorted by name**
        (the same ordering guarantee as :meth:`names` — registration
        order is never observable)."""
        tags = frozenset(tags)
        without = frozenset(without_tags)
        out = [
            spec
            for spec in self._specs.values()
            if (kind is None or spec.kind == kind)
            and (exact is None or spec.exact == exact)
            and tags <= spec.tags
            and not (without & spec.tags)
        ]
        return sorted(out, key=lambda s: s.name)

    def _meta_params(self, spec: SolverSpec, params: dict) -> dict:
        """Meta solvers draw their candidates from the registry that
        invoked them — inject it so overridden solvers are honored."""
        if TAG_META in spec.tags:
            params.setdefault("registry", self)
        return params

    def solve_single(
        self, name: str, seq: RequirementSequence, w: float, **params
    ) -> SolveResult:
        spec = self.get(name)
        if spec.kind != "single":
            raise ValueError(f"solver {name!r} is not a single-task solver")
        return spec.fn(seq, w, **self._meta_params(spec, params))

    def solve_multi(
        self,
        name: str,
        system: TaskSystem,
        seqs: Sequence[RequirementSequence],
        model: MachineModel | None = None,
        *,
        packed=None,
        **params,
    ) -> MTSolveResult:
        """Dispatch a multi-task solve.

        ``packed`` optionally carries a precompiled
        :class:`~repro.core.packed.PackedProblem` for the instance; it
        is forwarded only to solvers tagged :data:`TAG_PACKED` (others
        never see the keyword), so the batch engine can pass it
        unconditionally.
        """
        spec = self.get(name)
        if spec.kind != "multi":
            raise ValueError(f"solver {name!r} is not a multi-task solver")
        params = self._meta_params(spec, params)
        if packed is not None and TAG_PACKED in spec.tags:
            params.setdefault("packed", packed)
        return spec.fn(system, seqs, model, **params)

    def describe(self) -> list[list]:
        """Rows (name, kind, exact, cost model, tags) for listings."""
        return [
            [
                spec.name,
                spec.kind,
                "yes" if spec.exact else "no",
                spec.cost_model,
                ",".join(sorted(spec.tags)),
            ]
            for spec in (self._specs[n] for n in self.names())
        ]


# -- default registry ---------------------------------------------------------
#
# Adapters normalize the zoo's native signatures to the registry
# conventions.  They are module-level on purpose: multiprocessing
# workers resolve them by qualified name.


def _single_dp(seq, w, **params):
    from repro.solvers.single_dp import solve_single_switch

    return solve_single_switch(seq, w, **params)


def _single_exhaustive(seq, w, **params):
    from repro.solvers.exhaustive import solve_single_exhaustive

    return solve_single_exhaustive(seq, w, **params)


def _mt_exhaustive(system, seqs, model=None, **params):
    from repro.solvers.exhaustive import solve_mt_exhaustive

    return solve_mt_exhaustive(system, seqs, model, **params)


def _mt_exact(system, seqs, model=None, **params):
    from repro.solvers.mt_exact import solve_mt_exact

    return solve_mt_exact(system, seqs, model, **params)


def _mt_branch_bound(system, seqs, model=None, **params):
    from repro.solvers.mt_branch_bound import solve_mt_branch_bound

    return solve_mt_branch_bound(system, seqs, model, **params)


def _mt_greedy(system, seqs, model=None, **params):
    from repro.solvers.mt_greedy import solve_mt_greedy_merge

    return solve_mt_greedy_merge(system, seqs, model, **params)


def _mt_genetic(system, seqs, model=None, **params):
    from repro.solvers.mt_genetic import solve_mt_genetic

    return solve_mt_genetic(system, seqs, model, **params)


def _mt_annealing(system, seqs, model=None, **params):
    from repro.solvers.mt_annealing import solve_mt_annealing

    return solve_mt_annealing(system, seqs, model, **params)


def _mt_portfolio(system, seqs, model=None, **params):
    from repro.portfolio.engine import solve_mt_portfolio

    return solve_mt_portfolio(system, seqs, model, **params)


_DEFAULT_SPECS = (
    SolverSpec(
        name="single_dp",
        kind="single",
        fn=_single_dp,
        exact=True,
        tags=frozenset({TAG_EXACT}),
        description="O(n²) optimal partition DP (Theorem 1, m=1)",
    ),
    SolverSpec(
        name="single_exhaustive",
        kind="single",
        fn=_single_exhaustive,
        exact=True,
        tags=frozenset({TAG_EXACT, TAG_TINY_ONLY}),
        description="brute-force single-task enumeration (validation)",
    ),
    SolverSpec(
        name="mt_exhaustive",
        kind="multi",
        fn=_mt_exhaustive,
        exact=True,
        tags=frozenset({TAG_EXACT, TAG_TINY_ONLY}),
        description="enumerate all indicator matrices (ground truth)",
    ),
    SolverSpec(
        name="mt_exact",
        kind="multi",
        fn=_mt_exact,
        exact=True,
        tags=frozenset({TAG_EXACT}),
        description="exact DP with Pareto pruning (Theorem 1)",
    ),
    SolverSpec(
        name="mt_branch_bound",
        kind="multi",
        fn=_mt_branch_bound,
        exact=True,
        tags=frozenset({TAG_EXACT, TAG_PACKED}),
        description="DFS branch & bound with admissible lower bounds",
    ),
    SolverSpec(
        name="mt_greedy",
        kind="multi",
        fn=_mt_greedy,
        exact=False,
        tags=frozenset({TAG_HEURISTIC, TAG_PACKED}),
        description="best greedy construction + bit-flip local search",
    ),
    SolverSpec(
        name="mt_genetic",
        kind="multi",
        fn=_mt_genetic,
        exact=False,
        tags=frozenset({TAG_HEURISTIC, TAG_STOCHASTIC, TAG_PACKED}),
        description="the paper's genetic algorithm",
    ),
    SolverSpec(
        name="mt_annealing",
        kind="multi",
        fn=_mt_annealing,
        exact=False,
        tags=frozenset({TAG_HEURISTIC, TAG_STOCHASTIC, TAG_PACKED}),
        description="simulated annealing over indicator matrices",
    ),
    SolverSpec(
        name="portfolio",
        kind="multi",
        fn=_mt_portfolio,
        exact=False,
        # Stochastic: exploration draws and forwarded solver seeds
        # derive from the seed parameter (bit-reproducible per seed).
        tags=frozenset({TAG_META, TAG_STOCHASTIC}),
        description="adaptive portfolio: learned pick/race over the zoo",
    ),
)

_default: SolverRegistry | None = None
_default_lock = threading.Lock()


def default_registry() -> SolverRegistry:
    """The process-wide registry holding the built-in solver zoo.

    Built lazily (solver modules import on first use) and shared —
    callers wanting isolation construct their own
    :class:`SolverRegistry` and register specs explicitly.
    """
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                reg = SolverRegistry()
                for spec in _DEFAULT_SPECS:
                    reg.register(spec)
                _default = reg
    return _default
