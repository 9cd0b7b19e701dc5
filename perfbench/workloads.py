"""Seeded operation plans for the benchmark workloads.

A plan is a list of passes; a pass is a list of operations that one fresh
interpreter runs back to back.  Operations are plain JSON-able dicts, so the
program under test receives only the generated inputs.  The same seed gives a
byte-identical plan (see plan_bytes); no operation repeats within a pass.

Workloads (why each one exists):

figures        the seven paper datasets through `fockport figure`; how the
               paper is reproduced, and it runs every layer at paper sizes.
teleport-allq  `fockport teleport --all-q` jobs; teleport does most of the
               work and su2 computes only 1-4 columns per job, so this is the
               mechanism workload for all-q teleport work and the bypass
               workload for kernel work.
scan           sweeps, angle searches, dense rotations and very long columns;
               drives the kernel three ways (many short columns over beta, all
               N+1 columns at one beta, one long recurrence) so that a change
               that helps one use and slows another shows up.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

WORKLOADS = ("figures", "teleport-allq", "scan")

# A pass is a run of whole blocks.  Each block holds the same mix of work
# whatever the seed: every figure once, or a fixed set of operation types
# whose sizes come from stratified draws.  A pass stops at the first block
# boundary after its share of the run time is used, so a run's mix barely
# depends on the seed.  Stream workloads split a run into STREAM_PASSES
# passes of about a second each.
#
# Runs use many short passes because an interpreter's speed depends on its
# memory layout (see run.py): a run averages over many interpreters.
FIGURE_PASSES = 64
STREAM_PASSES = 24
_BLOCKS_PER_PASS = 16  # room for a program 16x faster than at the time of writing

_FILTER_KINDS = ("j0", "2pt", "3pt", "4pt")
_ODD_KINDS = ("2pt", "4pt")


def _rng(workload: str, seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed, pass_index])


class _Deck:
    """Draws from successive shuffles of items, so every len(items) draws hold each once."""

    def __init__(self, rng: np.random.Generator, items):
        self.rng, self.items, self.queue = rng, list(items), []

    def __call__(self):
        if not self.queue:
            self.queue = [self.items[i] for i in self.rng.permutation(len(self.items))]
        return self.queue.pop()


class _Strata(_Deck):
    """Uniform draws in [0, 1) taken from successive shuffles of 4 equal strata."""

    def __init__(self, rng: np.random.Generator):
        super().__init__(rng, range(4))

    def __call__(self) -> float:
        return (super().__call__() + self.rng.random()) / 4


def _parity_n(kind: str, lo: int, hi: int, u: float) -> int:
    """N in [lo, hi] at fraction u, with the parity the filter kind needs."""
    n = min(lo + int(u * (hi - lo + 1)), hi)
    if (n % 2 == 1) != (kind in _ODD_KINDS):
        n = n + 1 if n + 1 <= hi else n - 1
    return n


def _beta_q_deg(n: int) -> float:
    return 90.0 * (1.0 - 1.0 / n)


def _hf_region(alpha: float, n: int) -> tuple[int, int]:
    """[ceil(a^2+a), floor(N-a^2+a)], the outcomes where the bound stays near 1."""
    return math.ceil(alpha * alpha + alpha), math.floor(n - alpha * alpha + alpha)


def _teleport_block(rng: np.random.Generator) -> list[dict]:
    # 4 x 2 grid of (N quartile, alpha half), each kind twice
    kinds = rng.permutation(np.array(_FILTER_KINDS * 2))
    parity = rng.permutation([True, False] * 4)
    formats = rng.permutation(np.array(["csv", "json"] * 4))
    ops = []
    for i, cell in enumerate(rng.permutation(8)):
        kind = str(kinds[i])
        n = _parity_n(kind, 100, 600, (cell // 2 + rng.random()) / 4)
        alpha = round(2.0 + 6.0 * (int(cell) % 2 + rng.random()) / 2, 6)
        beta = round(_beta_q_deg(n) + rng.uniform(-2.0, 2.0), 6)
        ops.append({"op": "teleport", "resource": kind, "n": n, "beta_deg": beta,
                    "alpha": alpha, "parity": bool(parity[i]), "format": str(formats[i])})
    return ops


class _ScanBlocks:
    """(a) sweeps x3, (b) angle searches x2, (c) dense rotation x1, (d) long columns x2."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.u = {key: _Strata(rng) for key in (
            "sweep_n", "sweep_points", "phase_n", "find_n", "fid_n", "rotate_n", "column_n")}
        self.kinds = _Deck(rng, _FILTER_KINDS + ("relative-phase-input",))
        # mostly min_modulus or entropy; min_fidelity_target (N <= 60) one search in 8
        self.objectives = _Deck(rng, ("min_modulus", "entropy") * 3 + (
            "min_modulus", "min_fidelity_target"))

    def sweep(self, kind: str) -> dict:
        rng, u = self.rng, self.u
        if kind == "relative-phase-input":
            n = 20 + int(41 * u["phase_n"]())
        else:
            n = _parity_n(kind, 20, 120, u["sweep_n"]())
        alpha = round(float(rng.uniform(1.0, 3.0)), 6)
        lo, hi = _hf_region(alpha, n)
        count = min(int(rng.integers(1, 4)), hi - lo + 1)
        qs = sorted(int(q) for q in rng.choice(np.arange(lo, hi + 1), size=count, replace=False))
        points = 20 + int(41 * u["sweep_points"]())
        return {"op": "sweep", "spec": {
            "resource_kind": kind, "n": n, "alpha": alpha, "q_list": qs,
            "beta_start_deg": 45.0, "beta_stop_deg": 90.0,
            "beta_step_deg": 45.0 / (points - 1),
            "parity_correction": bool(rng.random() < 0.5)}}

    def find(self, objective: str) -> dict:
        if objective == "min_fidelity_target":
            n = 20 + int(41 * self.u["fid_n"]())
        else:
            n = 20 + int(181 * self.u["find_n"]())
        return {"op": "find_beta", "n": n, "kind": "2pt" if n % 2 else "j0",
                "objective": objective}

    def rotate(self) -> dict:
        return {"op": "rotate", "n": 100 + int(201 * self.u["rotate_n"]()),
                "beta_deg": round(float(self.rng.uniform(5.0, 175.0)), 6),
                "state_seed": int(self.rng.integers(0, 2**63 - 1))}

    def column(self) -> dict:
        rng = self.rng
        twice_j = 10_000 + int(90_001 * self.u["column_n"]())
        half = twice_j // 2
        twice_m = int(rng.integers(-half, half + 1))
        if (twice_m - twice_j) % 2:
            twice_m += 1 if twice_m < half else -1
        return {"op": "column", "twice_j": twice_j, "twice_m": twice_m,
                "beta": float(rng.uniform(0.2, math.pi - 0.2))}

    def __call__(self) -> list[dict]:
        ops = ([self.sweep(self.kinds()) for _ in range(3)]
               + [self.find(self.objectives()) for _ in range(2)]
               + [self.rotate()] + [self.column() for _ in range(2)])
        return [ops[i] for i in self.rng.permutation(len(ops))]


def _keys(ops: list[dict]) -> list[str]:
    return [json.dumps(op, sort_keys=True) for op in ops]


def _unique(ops: list[dict]) -> bool:
    keys = _keys(ops)
    return len(keys) == len(set(keys))


def _pass(make_block) -> list[dict]:
    ops, seen = [], set()
    for _ in range(_BLOCKS_PER_PASS):
        block = make_block()
        keys = _keys(block)
        while len(seen.union(keys)) != len(seen) + len(keys):
            block = make_block()  # angle searches can collide; redraw the block
            keys = _keys(block)
        seen.update(keys)
        ops += block
    return ops


BLOCK_SIZE = {"figures": 7, "teleport-allq": 8, "scan": 8}


def plan(workload: str, seed: int) -> list[list[dict]]:
    """Every pass a run of this workload may execute, in order."""
    if workload == "figures":
        # A figure runs faster later in a process (its heap is already grown),
        # so passes rotate one order: every 7 passes put each figure in each
        # position once.  The seed picks the order, seed mod 7! in mixed radix,
        # so consecutive seeds never share one.
        ids, order, n = list(range(1, 8)), [], seed
        while ids:
            n, i = divmod(n, len(ids))
            order.append(ids.pop(i))
        return [[{"op": "figure", "id": order[(p + k) % 7]} for k in range(7)]
                for p in range(FIGURE_PASSES)]
    passes = []
    for p in range(STREAM_PASSES):
        rng = _rng(workload, seed, p)
        if workload == "teleport-allq":
            passes.append(_pass(lambda rng=rng: _teleport_block(rng)))
        else:
            passes.append(_pass(_ScanBlocks(rng)))
    return passes


def plan_bytes(passes: list[list[dict]]) -> bytes:
    return json.dumps(passes, sort_keys=True, separators=(",", ":")).encode()


def plan_sha256(passes: list[list[dict]]) -> str:
    return hashlib.sha256(plan_bytes(passes)).hexdigest()


def state_amplitudes(op: dict) -> list[list[float]]:
    """Random dense input state (unnormalised [re, im] pairs) of a rotate op."""
    rng = np.random.default_rng(op["state_seed"])
    return rng.normal(size=(op["n"] + 1, 2)).tolist()


def spec_text(spec: dict) -> str:
    """key = value spec-file text for a sweep op."""
    lines = []
    for key, val in spec.items():
        if isinstance(val, list):
            val = ",".join(str(q) for q in val)
        elif isinstance(val, bool):
            val = "true" if val else "false"
        elif isinstance(val, float):
            val = repr(val)
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def self_test(workload: str, seed: int) -> dict:
    """Same seed -> identical bytes, different seed -> different plan, no repeats."""
    first = plan_bytes(plan(workload, seed))
    again = plan_bytes(plan(workload, seed))
    other = plan_bytes(plan(workload, seed + 1))
    repeats = sum(not _unique(ops) for ops in plan(workload, seed))
    return {"same_seed_identical": first == again,
            "other_seed_differs": first != other,
            "passes_with_repeats": repeats,
            "ok": first == again and first != other and repeats == 0}
