"""Seeded scenario generators, one per workload.

Every workload is one scenario file run through ``steinsurf check``.  The
same (workload, seed, size) always gives the same scenario.  Where a
random size would make the amount of work depend on the seed (plan
genera, replay lengths), draws are stratified: the i-th of n draws falls
in the i-th n-quantile of its distribution, so each seed does nearly the
same total work while the individual inputs still differ.
"""

from __future__ import annotations

import math
import random

import calculus as cc

AMBIENT_KINDS = ("AffinePlane", "ProjectivePlane", "Quadric", "LineBundle", "Abstract")
VARIANTS = (None, "embedded", "immersed_necessary", "immersed_sufficient")

# Full-size knobs.  Tiny sizes (smoke tests and the untimed warm-up pass)
# keep every task kind but shrink counts and coarsen grids.
_CALCULUS = {
    "full": {"checks": 4000, "plans": 90, "plan_genus_max": 3000,
             "replays": 40, "replay_steps": (200, 600)},
    "tiny": {"checks": 40, "plans": 8, "plan_genus_max": 40,
             "replays": 6, "replay_steps": (5, 20)},
}
# Node counts per axis are odd so the origin, where both model Levi
# forms degenerate, is a grid node.
_GRID = {
    "full": {"psh_step": 0.05, "exhaustion_step": 0.025},
    "tiny": {"psh_step": 0.25, "exhaustion_step": 0.1},
}
_ADAPTIVE = {
    "full": {"epsilons": 4, "patch_step": 0.004, "flow_starts": 400},
    "tiny": {"epsilons": 1, "patch_step": 0.05, "flow_starts": 4},
}


def build(workload: str, seed: int, size: str = "full") -> dict:
    """The scenario (decoded JSON) of one workload at one size."""
    rng = random.Random(f"{workload}:{seed}:{size}")
    return GENERATORS[workload](rng, size)


def _strata(rng: random.Random, n: int) -> list[float]:
    """n uniform draws on [0, 1), the i-th in the i-th n-quantile."""
    return [(i + rng.random()) / n for i in range(n)]


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return value * (1.0 + rel * (2.0 * rng.random() - 1.0))


# ---------------------------------------------------------------------------
# grid-certify
# ---------------------------------------------------------------------------


def _grid_tasks(rng: random.Random, knobs: dict) -> list[dict]:
    # Steps move within +-0.4%, which keeps round(2 / step) and so the
    # node count of every axis: each seed sweeps the same number of points.
    return [
        {"task": "verify-local", "suite": "psh_models",
         "params": {"grid_step": _jitter(rng, knobs["psh_step"], 0.004)}},
        {"task": "verify-local", "suite": "exhaustion",
         "params": {"grid_step": _jitter(rng, knobs["exhaustion_step"], 0.004),
                    "epsilon": _jitter(rng, 0.01, 0.1),
                    "delta": _jitter(rng, 1e-3, 0.2)}},
    ]


# ---------------------------------------------------------------------------
# adaptive-local
# ---------------------------------------------------------------------------


def _adaptive_tasks(rng: random.Random, knobs: dict) -> list[dict]:
    tasks = [{"task": "verify-local", "suite": "windings",
              "params": {"radius": 0.3 + 0.4 * rng.random()}}]
    for u in _strata(rng, knobs["epsilons"]):
        tasks.append({"task": "verify-local", "suite": "sigma_handles",
                      "params": {"epsilon": 0.04 + 0.16 * u, "grid_step": knobs["patch_step"]}})
    tasks.append({"task": "verify-local", "suite": "weinstein",
                  "params": {"grid_step": knobs["patch_step"]}})
    tasks.append({"task": "verify-local", "suite": "flow",
                  "params": {"seed": rng.randrange(1 << 30), "n": knobs["flow_starts"]}})
    return tasks


# ---------------------------------------------------------------------------
# calculus-batch
# ---------------------------------------------------------------------------


def _ambients(rng: random.Random) -> dict:
    def record(kind, stein):
        return {"kind": kind, "stein": stein, "kaehler_b2plus_gt1": rng.random() < 0.5}

    g = rng.randrange(0, 4)
    return {
        "AffinePlane": record("AffinePlane", True),
        "ProjectivePlane": record("ProjectivePlane", False),
        "Quadric": record("Quadric", False),
        "LineBundle": record({"name": "LineBundle", "base_genus": g,
                              "degree": rng.randrange(-6, 7)}, rng.random() < 0.5),
        "Abstract": record({"name": "Abstract", "normal_euler": rng.randrange(-9, 10),
                            "c1_pairing": rng.randrange(-9, 10)}, True),
    }


def _random_class(rng: random.Random, orientable: bool, embedded: bool) -> cc.Cls:
    dp = 0 if embedded else rng.randrange(0, 6)
    dm = 0 if embedded else rng.randrange(0, 6)
    if embedded is False and dp == dm == 0:
        dp = 1
    if not orientable:
        return cc.unoriented(rng.randrange(1, 12), e=rng.randrange(-16, 17), dp=dp, dm=dm)
    genus = rng.randrange(0, 12)
    e = rng.randrange(-16, 17)
    c1 = rng.randrange(-15, 16)
    if (e + c1) % 2:
        c1 += 1
    return cc.oriented(genus, e=e, c1=c1, dp=dp, dm=dm)


def _projective_class(rng: random.Random, embedded: bool) -> cc.Cls:
    """Orientable class with the pairings of a degree-d class in CP^2."""
    d = rng.randrange(0, 7)
    dp = 0 if embedded else rng.randrange(0, 6)
    dm = 0 if embedded else rng.randrange(0, 6)
    if embedded is False and dp == dm == 0:
        dm = 1
    c1 = 3 * d if rng.random() < 0.8 else -3 * d
    return cc.oriented(rng.randrange(0, 12), e=d * d - 2 * (dp - dm), c1=c1, dp=dp, dm=dm)


def _check_tasks(rng: random.Random, n: int, surfaces: dict) -> list[dict]:
    tasks = []
    for i in range(n):
        ambient = AMBIENT_KINDS[i % len(AMBIENT_KINDS)] if i % 11 else None
        embedded = rng.random() < 0.4
        if ambient == "ProjectivePlane":
            c = _projective_class(rng, embedded)
        else:
            c = _random_class(rng, rng.random() < 0.75, embedded)
        name = f"s{i}"
        surfaces[name] = c.to_json()
        task = {"task": "check", "surface": name}
        if ambient is not None:
            task["ambient"] = ambient
        if c.orientable:
            variant = VARIANTS[i // len(AMBIENT_KINDS) % len(VARIANTS)]
            if variant == "embedded" and not c.embedded:
                variant = "immersed_sufficient"
            if variant is not None:
                task["variant"] = variant
        if rng.random() < 0.2:
            task["class_nonzero"] = False
        tasks.append(task)
    return tasks


def _plan_tasks(rng: random.Random, n: int, genus_max: int) -> list[dict]:
    """Embedded, immersed and unorientable targets with log-uniform genera;
    one in eight is infeasible.  Target families and infeasibility follow
    the stratum, so the largest genera always land on the same families."""
    tasks = []
    for i, u in enumerate(_strata(rng, n)):
        genus = int(math.exp(u * math.log(genus_max)))
        kind = i % 3
        if kind == 2:
            target = {"orientable": False, "genus": genus}
        else:
            degree = rng.randrange(1, 9)
            dplus = 0 if kind == 0 else rng.randrange(1, 30)
            if i % 8 == 3:
                bound = cc.plan_bound(degree)
                genus = rng.randrange(0, max(bound - dplus, 1))
                dplus = min(dplus, bound - 1 - genus)
            else:
                genus = max(genus, cc.plan_bound(degree) - dplus)
            target = {"orientable": True, "genus": genus, "degree": degree}
            if dplus:
                target["delta_plus"] = dplus
        if target["orientable"] is False and rng.random() < 0.05:
            target["genus"] = 0
        tasks.append({"task": "plan", "target": target})
    return tasks


def _replay_tasks(rng: random.Random, n: int, steps_range: tuple[int, int]) -> list[dict]:
    """Random step sequences that respect every precondition; one in six
    instead breaks one at a random position."""
    lo, hi = steps_range
    tasks = []
    for i, u in enumerate(_strata(rng, n)):
        length = lo + int(u * (hi - lo))
        base = _random_class(rng, rng.random() < 0.8, rng.random() < 0.3)
        current = base
        steps = []
        reject_at = rng.randrange(1, length + 1) if i % 6 == 2 else None
        rejected = False
        while len(steps) < length:
            if len(steps) + 1 == reject_at:
                # Resolve every positive double point, then one too many.
                steps += [{"kind": "ResolvePositiveDP_Handle"}] * (current.dp + 1)
                rejected = True
                continue
            kind = rng.choice([k for k in cc.STEP_KINDS if cc.step_allowed(current, k)])
            record = {"kind": kind}
            other = None
            if kind == "ConnectedSum":
                other = _random_class(rng, rng.random() < 0.8, rng.random() < 0.5)
                record["other"] = other.to_json()
            steps.append(record)
            if not rejected:
                current, _ = cc.apply_step(current, kind, other)
        recipe = {"base": base.to_json(), "steps": steps}
        if not rejected and rng.random() < 0.5:
            recipe["expected"] = current.to_json()
        tasks.append({"task": "replay", "recipe": recipe})
    return tasks


def _calculus_scenario(rng: random.Random, knobs: dict) -> dict:
    surfaces: dict = {}
    tasks = (
        _check_tasks(rng, knobs["checks"], surfaces)
        + _plan_tasks(rng, knobs["plans"], knobs["plan_genus_max"])
        + _replay_tasks(rng, knobs["replays"], knobs["replay_steps"])
    )
    rng.shuffle(tasks)
    return {"schema": 1, "surfaces": surfaces, "ambients": _ambients(rng), "tasks": tasks}


GENERATORS = {
    "grid-certify": lambda rng, size: {"schema": 1, "tasks": _grid_tasks(rng, _GRID[size])},
    "calculus-batch": lambda rng, size: _calculus_scenario(rng, _CALCULUS[size]),
    "adaptive-local": lambda rng, size: {"schema": 1,
                                         "tasks": _adaptive_tasks(rng, _ADAPTIVE[size])},
}
