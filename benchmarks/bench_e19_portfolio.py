"""E19 (extension) — the adaptive algorithm portfolio vs fixed solvers.

``repro.portfolio`` learns, per workload-feature bucket, which solver
from the zoo to run.  This bench stages the situation the portfolio
exists for: a mixed workload where no fixed solver is both fast and
best-cost everywhere —

* a **small family** (m=3, n=10, |U|=6) chosen so greedy is strictly
  suboptimal while branch-and-bound and the GA both reach the optimum
  (instance seeds are pinned to ones where the GA's optimum is robust
  across its own seeds);
* a **large family** (m=3, n=24, |U|=8) where branch-and-bound blows
  its node budget (learned as a *failure*), and greedy matches the
  GA's cost at ~20× lower latency.

After a warm-up pass that feeds the model through the batch engine
(every candidate × every instance, under a budget so the b&b failures
are cheap), the portfolio must:

* **match the champion's cost** — the best mean cost among fixed
  candidates that completed everywhere (the GA; b&b is disqualified
  by its large-family failures);
* **beat the champion's mean latency** by ≥ 1.5× in full mode
  (≥ 1.1× under ``--smoke``, where the families shrink and constant
  overheads loom larger);
* **pick reproducibly** — offline decision replay from the learned
  state is bit-identical across passes, and on the large family the
  live picks are exactly ``mt_greedy``;
* **never return unverified** — every answer re-checked against the
  scalar cost oracle (also exercised here through one DeadlineRace).
"""

import time

import pytest

from repro.analysis.sweeps import make_instance
from repro.engine.batch import BatchEngine, _execute
from repro.engine.registry import TAG_STOCHASTIC, default_registry
from repro.engine.requests import SolveRequest
from repro.portfolio import (
    PortfolioState,
    make_strategy,
    multi_features,
    solve_mt_portfolio,
)
from repro.util.texttable import format_table

#: The solver pool under study (greedy = fast/heuristic, GA = slow/
#: near-exact, b&b = exact but budget-limited).
CANDIDATES = ("mt_branch_bound", "mt_genetic", "mt_greedy")

#: (m, n, universe, instance seed) per family — see the module
#: docstring for how the seeds were picked.
SMALL_FAMILY = tuple((3, 10, 6, s) for s in (2, 6, 14, 15))
LARGE_FAMILY = tuple((3, 24, 8, s) for s in (0, 1, 2, 3))

#: Per-solve budget during warm-up and for fixed baselines: generous
#: for every real run (the slowest legitimate solve is < 0.6 s), but
#: it turns b&b's ~12 s node-budget blow-up into a cheap learned
#: failure.
BUDGET_S = 2.0

MIN_SPEEDUP = 1.5
MIN_SPEEDUP_SMOKE = 1.1

DECISION_SEED = 11


def _solver_params(name):
    if TAG_STOCHASTIC in default_registry().get(name).tags:
        return {"seed": 0}
    return {}


def test_bench_portfolio_vs_fixed(benchmark, smoke, bench_artifact):
    small = SMALL_FAMILY[:2] if smoke else SMALL_FAMILY
    large = LARGE_FAMILY[:2] if smoke else LARGE_FAMILY
    min_speedup = MIN_SPEEDUP_SMOKE if smoke else MIN_SPEEDUP
    instances = [
        (family, seed, *make_instance(m, n, u, seed=seed))
        for family, cells in (("small", small), ("large", large))
        for (m, n, u, seed) in cells
    ]
    registry = default_registry()
    state = PortfolioState()

    # --- warm-up: teach the model through the batch engine ---------
    warmup = BatchEngine(
        workers=1, cache_size=0, timeout=BUDGET_S, portfolio_state=state,
    )
    requests = [
        SolveRequest.multi(
            system, seqs, None, solver=name, **_solver_params(name)
        )
        for _family, _seed, system, seqs in instances
        for name in CANDIDATES
    ]
    warmup.solve_batch(requests)
    # the kind-level arms see every observation exactly once
    warm = state.model.snapshot()["multi"]
    assert sum(arm["runs"] for arm in warm.values()) == len(requests)
    # b&b's large-family budget blow-ups were learned as failures
    assert warm["mt_branch_bound"]["failures"] == len(large)

    # --- eval: portfolio vs every fixed candidate ------------------
    # Two timed repetitions per cell, keeping the minimum: single-shot
    # wall clocks are too noisy to guard.  The decision path is
    # deterministic, and the second rep must pick the same solver at a
    # bit-identical cost, so the kept wall belongs to the decision
    # whose cost is reported.
    per_instance = []
    wall = {name: [] for name in ("portfolio", *CANDIDATES)}
    cost = {name: [] for name in ("portfolio", *CANDIDATES)}
    disqualified = set()
    picks = []
    for family, seed, system, seqs in instances:
        best_s = float("inf")
        for rep in range(2):
            t0 = time.perf_counter()
            res = solve_mt_portfolio(
                system, seqs, state=state, registry=registry,
                seed=DECISION_SEED, strategy="best", candidates=CANDIDATES,
            )
            best_s = min(best_s, time.perf_counter() - t0)
            assert res.stats["portfolio"]["verified"]
            chosen = res.stats["portfolio"]["chosen"]
            if rep == 0:
                picks.append((family, seed, chosen))
                if family == "large":
                    assert chosen == "mt_greedy", (seed, chosen)
                cost["portfolio"].append(res.cost)
            else:
                assert (chosen, res.cost) == (
                    picks[-1][2], cost["portfolio"][-1]
                ), (family, seed, chosen, res.cost)
        wall["portfolio"].append(best_s)
        per_instance.append({
            "family": family, "inst": seed, "solver": "portfolio",
            "picked": chosen, "cost": res.cost, "elapsed_ms": best_s * 1e3,
        })
        for name in CANDIDATES:
            request = SolveRequest.multi(
                system, seqs, None, solver=name, **_solver_params(name)
            )
            value, error, timed_out, elapsed = _execute(
                registry, request, BUDGET_S
            )
            if error is None:  # don't pay a failure's budget twice
                _v, _e, _t, second = _execute(registry, request, BUDGET_S)
                elapsed = min(elapsed, second)
            row = {"family": family, "inst": seed, "solver": name,
                   "elapsed_ms": elapsed * 1e3}
            if error is not None:
                disqualified.add(name)
                row["error"] = "timeout" if timed_out else "error"
            else:
                wall[name].append(elapsed)
                cost[name].append(value.cost)
                row["cost"] = value.cost
            per_instance.append(row)

    assert "mt_branch_bound" in disqualified  # the large family kills it

    qualified = [n for n in CANDIDATES if n not in disqualified]
    mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
    champion = min(qualified, key=lambda n: (mean(cost[n]), mean(wall[n])))
    portfolio_cost = mean(cost["portfolio"])
    portfolio_wall = mean(wall["portfolio"])
    champion_wall = mean(wall[champion])
    speedup = champion_wall / portfolio_wall

    # --- decisions replay bit-identically from the learned state ---
    strat = make_strategy("best")
    replays = []
    for _ in range(2):
        chosen = []
        for _family, _seed, system, seqs in instances:
            features = multi_features(system, seqs)
            decision = strat.decide(state.model, features, CANDIDATES)
            chosen.append(decision.chosen[0])
        replays.append(chosen)
    assert replays[0] == replays[1]

    # --- one DeadlineRace: still verified, still champion-cost -----
    family, seed, system, seqs = instances[0]
    race = solve_mt_portfolio(
        system, seqs, state=state, registry=registry, seed=DECISION_SEED,
        strategy=f"race:{BUDGET_S},k=2", candidates=CANDIDATES,
    )
    assert race.stats["portfolio"]["mode"] == "race"
    assert race.stats["portfolio"]["verified"]
    assert race.cost <= cost["portfolio"][0]

    def once():
        _family, _seed, system, seqs = instances[-1]
        return solve_mt_portfolio(
            system, seqs, state=state, registry=registry,
            seed=DECISION_SEED, strategy="best", candidates=CANDIDATES,
        ).cost

    benchmark.pedantic(once, iterations=1, rounds=1)

    rows = [
        [
            r["family"], r["inst"], r["solver"], r.get("picked", ""),
            r.get("cost", r.get("error", "-")),
            f"{r['elapsed_ms']:.1f} ms",
        ]
        for r in per_instance
    ]
    learned = sum(
        arm["runs"] for arm in state.model.snapshot()["multi"].values()
    )
    print()
    print(format_table(
        ["family", "inst", "solver", "picked", "cost", "wall"],
        rows,
        title=f"E19: portfolio vs fixed solvers "
              f"({len(instances)} instances, warm model {learned} runs)",
    ))
    print(format_table(
        ["solver", "mean cost", "mean wall", "note"],
        [
            ["portfolio", round(portfolio_cost, 1),
             f"{portfolio_wall * 1e3:.1f} ms",
             f"{speedup:.1f}× vs champion"],
            *[
                [name,
                 round(mean(cost[name]), 1) if cost[name] else "-",
                 f"{mean(wall[name]) * 1e3:.1f} ms" if wall[name] else "-",
                 ("champion" if name == champion else
                  "disqualified" if name in disqualified else "")]
                for name in CANDIDATES
            ],
        ],
        title="E19 summary",
    ))

    # Per-instance timings are informational (``elapsed_ms`` is not a
    # guarded column); the regression guard watches only the
    # portfolio's mean decision latency, measured as min-of-2 per
    # instance so scheduler noise cannot fail CI.
    bench_artifact.record("e19", "portfolio_vs_fixed", per_instance)
    bench_artifact.record("e19", "summary", [
        {"solver": "portfolio", "mean_cost": portfolio_cost,
         "wall_ms": portfolio_wall * 1e3},
        *[
            {"solver": name, "mean_cost": mean(cost[name]),
             "mean_ms": mean(wall[name]) * 1e3}
            for name in qualified
        ],
    ])

    # the portfolio matches the champion's quality and beats its latency
    assert portfolio_cost <= mean(cost[champion]) + 1e-9
    assert speedup >= min_speedup, (
        f"portfolio {portfolio_wall * 1e3:.1f} ms vs "
        f"{champion} {champion_wall * 1e3:.1f} ms "
        f"({speedup:.2f}× < {min_speedup}×)"
    )
