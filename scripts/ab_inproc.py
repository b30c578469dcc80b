#!/usr/bin/env python
"""In-process A/B of one perfbench workload: working tree vs a git ref.

Separate benchmark runs of one tree move by up to ±30% on a shared
host, which hides a 10–15% kernel change.  This script runs both trees
in *one* process instead, so both sides see the same machine state:

* the ref is checked out with ``git worktree add`` into a temporary
  directory (removed afterwards);
* each tree's ``repro`` package is imported from its ``src`` and kept
  as a set of ``sys.modules`` entries; before each side's call its
  entries are swapped into ``sys.modules``, so lazy imports inside the
  package (and the batch engine's forked workers) resolve to the right
  tree.

``--workload hub_hectic`` (the default) times ``StreamHub.feed_many``:
every pass opens the ``hub_hectic`` fleet on one hub per side (its
shape, inputs and schedulers are taken from ``perfbench/hub_hectic.py``
itself), feeds one untimed warm-up round, then times ``feed_many`` over
the workload's ``ROUNDS`` rounds, alternating which side goes first
every round.  After every pass both hubs must agree on every session's
cost, steps and hyperreconfigurations, or the script fails.

``--workload batch_mixed`` times ``BatchEngine.solve_batch``: every
pass builds a fresh ``BatchEngine(workers=2, cache_size=4096)`` and an
explicit empty ``PortfolioState`` per side (also made that side's
process default, so forked workers decide from it) and runs the waves
of ``perfbench/batch_mixed.py``, alternating which side runs each wave
first.  After every pass both sides must have returned the same costs,
schedules and cached flags, or the script fails.

A pass's ratio is the ref's summed time over the working tree's (above
1: the working tree serves more steps, or solves, per second).  The
script prints one JSON line: the median ratio, its quartiles, the pass
count, how many passes read above 1, and the host fingerprint
perfbench records (``common.host_fingerprint``).

Usage::

    python scripts/ab_inproc.py HEAD~1 --passes 20
    python scripts/ab_inproc.py HEAD~1 --workload batch_mixed --passes 10
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


WORKLOADS = ("hub_hectic", "batch_mixed")


def _load_perfbench() -> dict:
    """The ``WORKLOADS`` modules of ``perfbench`` and the sibling
    modules they import (``inputs``, ``common``, …), by name.

    They load with ``perfbench`` on ``sys.path`` only while they import,
    and leave ``sys.modules`` again afterwards.  Each workload's shape,
    inputs and solver or scheduler mix, and the host fingerprint, all
    come from there, so this tool measures exactly those workloads.
    The workloads import ``repro`` lazily, so they build the objects
    of whichever side is active.
    """
    bench = ROOT / "perfbench"
    before = set(sys.modules)
    sys.path.insert(0, str(bench))
    loaded = {}
    try:
        for name in WORKLOADS:
            spec = importlib.util.spec_from_file_location(
                name, bench / f"{name}.py"
            )
            loaded[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(loaded[name])
    finally:
        sys.path.remove(str(bench))
        for name in set(sys.modules) - before:
            origin = getattr(sys.modules[name], "__file__", None) or ""
            if Path(origin).resolve().parent == bench:
                loaded[name] = sys.modules.pop(name)
    return loaded


_perfbench = _load_perfbench()
hub_hectic, batch_mixed, inputs, common = (
    _perfbench[name]
    for name in ("hub_hectic", "batch_mixed", "inputs", "common")
)


def _is_repro(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


def _take_repro() -> dict:
    """Remove and return every ``repro*`` entry of ``sys.modules``."""
    return {
        name: sys.modules.pop(name)
        for name in [n for n in sys.modules if _is_repro(n)]
    }


class Side:
    """One tree's ``repro`` package, importable on demand."""

    def __init__(self, label: str, src: Path):
        self.label = label
        self.src = Path(src)
        sys.path.insert(0, str(self.src))
        importlib.invalidate_caches()
        try:
            for name in (
                "repro.core.switches", "repro.engine.stream",
                "repro.solvers.online",
            ):
                importlib.import_module(name)
            origin = Path(sys.modules["repro"].__file__).resolve()
            if not origin.is_relative_to(self.src.resolve()):
                raise RuntimeError(f"{label}: repro loaded from {origin}")
        finally:
            sys.path.remove(str(self.src))
            self.modules = _take_repro()

    #: The side whose modules are installed, if any.
    active: "Side | None" = None

    def activate(self) -> None:
        """Install this tree's modules.  Modules the previously active
        side imported lazily stay with that side for its next turn."""
        taken = _take_repro()
        if Side.active is not None:
            Side.active.modules.update(taken)
        sys.modules.update(self.modules)
        Side.active = self

    def module(self, name: str):
        return self.modules[name]


@contextlib.contextmanager
def sides(trees: dict[str, Path]):
    """Load each tree as a :class:`Side`; restores the caller's own
    ``repro`` modules on exit."""
    saved = _take_repro()
    Side.active = None
    try:
        yield [Side(label, src) for label, src in trees.items()]
    finally:
        Side.active = None
        _take_repro()
        sys.modules.update(saved)


def _open_fleet(side: Side, sessions: int):
    side.activate()
    switches = side.module("repro.core.switches")
    universe = switches.SwitchUniverse.of_size(hub_hectic.WIDTH)
    hub = side.module("repro.engine.stream").StreamHub()
    w = float(hub_hectic.WIDTH)
    for s in range(sessions):
        scheduler = hub_hectic._scheduler(s, w)
        hub.open(scheduler, universe, w, session_id=f"u{s}")
    return hub


def _accounting(hub, ids) -> list[tuple]:
    return [
        (hub.session(sid).cost, hub.session(sid).steps,
         hub.session(sid).hyper_count)
        for sid in ids
    ]


def run_ab(
    trees: dict[str, Path],
    *,
    seed: int = 1,
    sessions: int = hub_hectic.SESSIONS,
    rounds: int = hub_hectic.ROUNDS,
    passes: int = 20,
) -> dict:
    """Time ``passes`` alternating passes of the fleet on both trees.

    ``trees`` maps two labels to ``src`` directories; the first is the
    side under test, the second the reference.  Returns the summary
    the script prints, with the per-pass ratios under ``"ratios"``.
    ``sessions`` and ``rounds`` default to the workload's own; smaller
    values only serve a quick self-test.
    """
    if len(trees) != 2:
        raise ValueError("an A/B needs exactly two trees")
    chunk = hub_hectic.CHUNK
    fleet = inputs.fleet_lanes(
        seed, sessions, hub_hectic.WIDTH, chunk * (rounds + 1),
        phase=hub_hectic.PHASE, noise=hub_hectic.NOISE,
        stagger=hub_hectic.STAGGER,
    )
    ids = [f"u{s}" for s in range(sessions)]
    plan = [
        {
            sid: fleet[s][r * chunk:(r + 1) * chunk]
            for s, sid in enumerate(ids)
        }
        for r in range(rounds + 1)
    ]
    ratios = []
    ticks = common.cpu_ticks()
    with sides(trees) as (test, ref):
        for p in range(passes):
            hubs = {}
            for side in (test, ref):
                hubs[side.label] = hub = _open_fleet(side, sessions)
                hub.feed_many(plan[0])
            spent = {test.label: 0.0, ref.label: 0.0}
            for r, chunks in enumerate(plan[1:]):
                order = (test, ref) if (p + r) % 2 == 0 else (ref, test)
                for side in order:
                    side.activate()
                    hub = hubs[side.label]
                    t0 = time.perf_counter()
                    hub.feed_many(chunks)
                    spent[side.label] += time.perf_counter() - t0
            got = _accounting(hubs[test.label], ids)
            want = _accounting(hubs[ref.label], ids)
            if got != want:
                bad = next(
                    i for i, (a, b) in enumerate(zip(got, want)) if a != b
                )
                raise AssertionError(
                    f"pass {p}: session {ids[bad]!r} accounting differs: "
                    f"{test.label} {got[bad]} vs {ref.label} {want[bad]}"
                )
            ratios.append(spent[ref.label] / spent[test.label])
            del hubs
            gc.collect()
    return {
        "workload": "hub_hectic",
        "seed": seed,
        "sessions": sessions,
        "rounds": rounds,
        "metric": "steps_per_s ratio (" + " / ".join(trees) + ")",
        **_summary(ratios, ticks),
    }


def _summary(ratios: list[float], ticks) -> dict:
    q1, median, q3 = np.percentile(ratios, [25, 50, 75]).tolist()
    return {
        "median_ratio": median,
        "iqr": [q1, q3],
        "passes": len(ratios),
        "above_1": sum(r > 1.0 for r in ratios),
        "min_ratio": min(ratios),
        "host": common.host_fingerprint(ticks),
        "ratios": ratios,
    }


def _answers(results) -> list[tuple]:
    """What one wave returned: ok, cached, cost and schedule per request."""
    out = []
    for result in results:
        if not result.ok:
            out.append((False, result.cached, str(result.error)))
            continue
        out.append((
            True, result.cached, result.value.cost,
            result.value.schedule.to_dict(),
        ))
    return out


def _open_engine(side: Side):
    """A fresh engine and empty portfolio state, made the side's
    process default as ``batch_mixed`` does."""
    side.activate()
    portfolio = importlib.import_module("repro.portfolio")
    batch = importlib.import_module("repro.engine.batch")
    state = portfolio.set_default_state(portfolio.PortfolioState())
    return batch.BatchEngine(
        workers=batch_mixed.WORKERS,
        cache_size=batch_mixed.CACHE_SIZE,
        portfolio_state=state,
    )


def run_ab_batch(
    trees: dict[str, Path],
    *,
    seed: int = 1,
    waves: int = batch_mixed.WAVES,
    passes: int = 20,
) -> dict:
    """Time ``passes`` alternating passes of ``batch_mixed`` waves.

    ``trees`` as for :func:`run_ab`.  Each side solves requests built
    from its own modules; ``waves`` defaults to the workload's own, a
    smaller count only serves a quick self-test.
    """
    if len(trees) != 2:
        raise ValueError("an A/B needs exactly two trees")
    ratios = []
    ticks = common.cpu_ticks()
    with sides(trees) as (test, ref):
        plans = {}
        for side in (test, ref):
            side.activate()
            plans[side.label] = batch_mixed.make_waves(seed)[:waves]
        for p in range(passes):
            engines = {side.label: _open_engine(side) for side in (test, ref)}
            spent = {test.label: 0.0, ref.label: 0.0}
            answers = {test.label: [], ref.label: []}
            for w in range(waves):
                order = (test, ref) if (p + w) % 2 == 0 else (ref, test)
                for side in order:
                    side.activate()
                    engine = engines[side.label]
                    t0 = time.perf_counter()
                    results = engine.solve_batch(plans[side.label][w])
                    spent[side.label] += time.perf_counter() - t0
                    answers[side.label].append(_answers(results))
            for w, (got, want) in enumerate(
                zip(answers[test.label], answers[ref.label])
            ):
                if got != want:
                    bad = next(
                        i for i, (a, b) in enumerate(zip(got, want)) if a != b
                    )
                    raise AssertionError(
                        f"pass {p}: wave {w} request {bad} differs: "
                        f"{test.label} {got[bad]} vs {ref.label} {want[bad]}"
                    )
            ratios.append(spent[ref.label] / spent[test.label])
            del engines
            gc.collect()
    return {
        "workload": "batch_mixed",
        "seed": seed,
        "waves": waves,
        "metric": "solves_per_s ratio (" + " / ".join(trees) + ")",
        **_summary(ratios, ticks),
    }


@contextlib.contextmanager
def worktree(ref: str):
    """Check ``ref`` out into a temporary worktree; yields its path."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", ref + "^{commit}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="ab-inproc-") as tmp:
        path = Path(tmp) / "ref"
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach", "-q",
             str(path), commit],
            check=True,
        )
        try:
            yield path, commit
        finally:
            subprocess.run(
                ["git", "-C", str(ROOT), "worktree", "remove", "--force",
                 str(path)],
                check=False,
            )
            subprocess.run(
                ["git", "-C", str(ROOT), "worktree", "prune"], check=False
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "ref", nargs="?", default="HEAD",
        help="git ref to compare the working tree against (default: HEAD)",
    )
    parser.add_argument(
        "--workload", choices=WORKLOADS, default="hub_hectic",
        help="perfbench workload to time (default: hub_hectic)",
    )
    parser.add_argument("--passes", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    run = run_ab if args.workload == "hub_hectic" else run_ab_batch
    with worktree(args.ref) as (path, commit):
        summary = run(
            {"tree": ROOT / "src", "ref": path / "src"},
            seed=args.seed, passes=args.passes,
        )
    summary["ref"] = f"{args.ref} ({commit[:12]})"
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
