"""Seeded workload generators for the egf-lab benchmark.

Each workload is a fixed list of slots.  The seed chooses the data inside
every slot (amplitudes, means, phases of random Fourier data, direction
vectors, mode tables), never the slot structure, so the amount of work in a
pass is the same on every seed.  Time-marching slots fix the distance the
fastest characteristic travels, D = t_end * max|psi'(lam0)|/2, instead of
t_end itself: with max|lam| fixed by the generator the step count is then
fixed too, and for the nonlinear functionals D also keeps t_end below a
third of the breaking time, so no run ever reaches crossed characteristics
(a report with ``oracle_note`` would be unverified).

Left out of the timed mix on purpose: ``tau-flow`` with ``tau1_minus_c`` or
with ``ext_ricci`` at n = 3.  The tau system's CFL bound and upwind signs
ignore the advective terms that come from f_j depending on tau, so those two
either exit 0 with a wrong answer or collapse their time step.  Fixing that
changes their step counts; the acceptance suite, not this benchmark, is the
place that covers them.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Why each workload exists; printed with every result.
WHY = {
    "march": (
        "time marching with sparse output: umbilical flows over the catalog "
        "functionals at G = 256..4096, tau-flow, cone-check and a CFL sweep; "
        "sym_curvature (psi evaluations) and flow_engine (steps, profile "
        "validation) take nearly all the time, CSV output ~2%, cohomology none"
    ),
    "emit": (
        "output-bound runs: stride-1 umbilical flows (~42 MB of CSV per pass), "
        "a 256x256 biregular check with its per-element row loop and a "
        "revolution profile at step 1e-4 with gnuplot output; cli.write_csv "
        "dominates, and the flow march calls a snapshot callback every step"
    ),
    "static": (
        "no time march: 3-D cohomology at K = 16 from dense 17,969-row mode "
        "tables, 2-D cohomology from 256x256 grid CSVs at K = 24, the golden "
        "K = 20 case, a resonant case that must be refused, soliton-check at "
        "G = 4096 and ricci-classify; cohomology_solver and cli dominate"
    ),
}

WORKLOADS = tuple(WHY)

# Seeds of each workload's generator are offset so that the same --seed gives
# unrelated data in different workloads.
_STREAM = {name: idx for idx, name in enumerate(WORKLOADS)}

CFL = 0.9
UNBOUNDED_STRIDE = 10 ** 9  # sparse output: only the first and last snapshot

# Travel distance of the fastest characteristic, in domain lengths.
MARCH_TRAVEL = 0.25
EMIT_TRAVEL = 0.125

# max|lam0| of the nonlinear slots; the sine amplitude is at most a fifth of it.
NONLINEAR_PEAK = 1.0
SINE_SHARE = (0.1, 0.2)


@dataclass
class Job:
    """One user invocation: a ``run`` of one config or a ``sweep`` of several.

    ``expect`` states what the output check requires beyond the scenario's
    oracle tolerance (see checks.py).
    """

    name: str
    kind: str  # run | sweep
    configs: list
    expect: dict = field(default_factory=dict)
    axis: str | None = None


def max_speed(functional: dict, n: int, peak: float | None) -> float:
    """max |psi'(lam)| / 2 over |lam| <= peak, from each functional's closed form.

    b1: psi = lam; affine: psi = a lam + b; umbilical_square: psi = lam^2;
    ext_ricci: psi = (2 - 2n) lam^2.  The linear ones need no peak.
    """
    name = functional["name"]
    if name == "b1":
        return 0.5
    if name == "affine":
        return 0.5 * abs(functional["a"])
    if peak is None:
        raise ValueError(f"{name} needs a bounded initial profile")
    if name == "umbilical_square":
        return peak
    if name == "ext_ricci":
        return (2 * n - 2) * peak
    raise ValueError(f"no closed-form speed for functional {name!r}")


def _umbilical(rng, functional: dict, n: int, grid: int, data: str, travel: float,
               stride: int) -> dict:
    if data == "sine":
        share = rng.uniform(*SINE_SHARE)
        amplitude = share * NONLINEAR_PEAK
        mean = (NONLINEAR_PEAK - amplitude) * float(rng.choice((-1.0, 1.0)))
        initial = {"kind": "sine", "amplitude": amplitude, "mean": mean,
                   "periods": 1}
        peak = NONLINEAR_PEAK
    else:
        # linear functionals only: constant speed, no shocks
        initial = {"kind": "random_fourier", "amplitude": rng.uniform(0.5, 1.0),
                   "modes": int(rng.integers(2, 5)),
                   "seed": int(rng.integers(0, 2 ** 31))}
        peak = None
    t_end = travel / max_speed(functional, n, peak)
    return {
        "scenario": "umbilical-flow",
        "n": n,
        "functional": functional,
        "initial": initial,
        "numerics": {"grid": grid, "t_end": t_end, "cfl": CFL},
        "output": {"snapshot_stride": stride},
    }


def _functional(rng, name: str) -> dict:
    if name == "affine":
        return {"name": "affine", "a": rng.uniform(0.5, 2.0),
                "b": rng.uniform(-1.0, 1.0)}
    return {"name": name}


# (functional, n, grid, initial data, travel): every catalog functional the
# scalar flow handles, at n = 3 on small grids and n = 2 on large ones.  The
# four G = 1024 slots cost about the same each, so the median invocation
# falls inside their group on every seed, and the tau-flow slots, the
# slowest, hold the tail.
MARCH_UMBILICAL = (
    ("b1", 3, 256, "sine", MARCH_TRAVEL),
    ("affine", 3, 256, "sine", MARCH_TRAVEL),
    ("umbilical_square", 3, 256, "sine", MARCH_TRAVEL),
    ("ext_ricci", 3, 256, "sine", MARCH_TRAVEL),
    ("b1", 2, 1024, "random_fourier", MARCH_TRAVEL),
    ("affine", 2, 1024, "random_fourier", MARCH_TRAVEL),
    ("umbilical_square", 2, 1024, "sine", MARCH_TRAVEL),
    ("ext_ricci", 2, 1024, "sine", MARCH_TRAVEL),
    ("b1", 2, 4096, "random_fourier", MARCH_TRAVEL / 4),
)

# (n, grid) of the tau-flow slots; all use b1, whose system is correct today.
MARCH_TAU = ((3, 1024), (3, 1024), (4, 768), (4, 768))


def march_jobs(rng, workdir: Path) -> list[Job]:
    jobs = []
    for name, n, grid, data, travel in MARCH_UMBILICAL:
        cfg = _umbilical(rng, _functional(rng, name), n, grid, data, travel,
                         UNBOUNDED_STRIDE)
        jobs.append(Job(f"umbilical-{name}-n{n}-G{grid}", "run", [cfg]))
    for n, grid in MARCH_TAU:
        cfg = {
            "scenario": "tau-flow",
            "n": n,
            "functional": {"name": "b1"},
            "initial": {"kind": "sine", "amplitude": rng.uniform(0.1, 0.3),
                        "mean": rng.uniform(0.3, 0.7),
                        "periods": int(rng.integers(1, 3))},
            "numerics": {"grid": grid, "t_end": MARCH_TRAVEL / 0.5, "cfl": CFL},
        }
        jobs.append(Job(f"tau-b1-n{n}-G{grid}", "run", [cfg]))
    jobs.append(Job("cone-check-G800", "run", [{
        "scenario": "cone-check",
        "beta": rng.uniform(0.2, 1.3),
        "numerics": {"grid": 800, "t_end": 1.0, "cfl": CFL},
    }]))
    base = _umbilical(rng, {"name": "b1"}, 2, 256, "sine", MARCH_TRAVEL,
                      UNBOUNDED_STRIDE)
    cfls = [float(c) for c in np.linspace(0.2, 1.0, 5)]
    members = []
    for c in cfls:
        cfg = copy.deepcopy(base)
        cfg["numerics"]["cfl"] = c
        members.append(cfg)
    jobs.append(Job("sweep-cfl-b1-G256", "sweep", members,
                    {"largest_stable_cfl": max(cfls)}, axis="cfl"))
    return jobs


def emit_jobs(rng, workdir: Path) -> list[Job]:
    jobs = []
    # the 42 MB stride-1 march, split in four seeded quarters so that one
    # pass holds enough heavy samples for the tail percentile
    for name, n, data in (("b1", 2, "sine"), ("b1", 3, "random_fourier"),
                          ("affine", 2, "sine"), ("affine", 3, "random_fourier")):
        functional = _functional(rng, name)
        cfg = _umbilical(rng, functional, n, 1024, data, EMIT_TRAVEL, 1)
        jobs.append(Job(f"umbilical-stride1-{name}-n{n}-G1024", "run", [cfg]))
    jobs.append(Job("biregular-exp_x0-256x256", "run", [{
        "scenario": "biregular-check",
        "functional": {"name": "b1"},
        "metric": {"name": "exp_x0"},
        "eps": "auto",
        "numerics": {"grid0": 256, "grid1": 256,
                     "length0": rng.uniform(0.5, 1.5),
                     "length1": rng.uniform(0.5, 1.5)},
    }], {"verdict": "soliton"}))
    x1_min = rng.uniform(0.3, 0.7)
    jobs.append(Job("revolution-constant_lambda-step1e-4", "run", [{
        "scenario": "revolution",
        "curve": {"kind": "constant_lambda", "x1_min": x1_min,
                  "x1_max": x1_min + 9.5, "step": 1e-4,
                  "C": rng.uniform(-1.0, 1.0)},
        "output": {"gnuplot": True},
    }]))
    return jobs


def _conjugate_half(K: int, dim: int) -> np.ndarray:
    """Modes u with |u|_inf <= K that are zero or lexicographically positive."""
    axes = np.meshgrid(*([np.arange(-K, K + 1)] * dim), indexing="ij")
    lattice = np.stack([a.ravel() for a in axes], axis=-1)
    keep = np.zeros(len(lattice), dtype=bool)
    undecided = np.ones(len(lattice), dtype=bool)
    for col in range(dim):
        keep |= undecided & (lattice[:, col] > 0)
        undecided &= lattice[:, col] == 0
    return lattice[keep | undecided]


def dense_mode_rows(rng, K: int, dim: int) -> list[list[float]]:
    """Seeded ``h.modes`` rows on half the lattice, decaying like |u|^-3."""
    modes = _conjugate_half(K, dim)
    norm2 = np.sum(modes.astype(float) ** 2, axis=-1)
    decay = (1.0 + norm2) ** -1.5
    re = rng.normal(size=len(modes)) * decay
    im = rng.normal(size=len(modes)) * decay
    zero = norm2 == 0
    re[zero] = rng.uniform(-2.0, 2.0)
    im[zero] = 0.0
    return [[int(c) for c in u] + [float(a), float(b)]
            for u, a, b in zip(modes, re, im)]


def write_grid_csv(rng, path: Path, M: int, K: int, terms: int) -> None:
    """Real band-limited samples h(x, y) on an M x M grid, columns x, y, value."""
    x = np.arange(M) / M
    X, Y = np.meshgrid(x, x, indexing="ij")
    h = np.full((M, M), rng.uniform(-2.0, 2.0))
    for _ in range(terms):
        u = rng.integers(-K, K + 1, size=2)
        amp = rng.normal() / (1.0 + float(u @ u)) ** 0.5
        phase = rng.uniform(0.0, 2.0 * np.pi)
        h += amp * np.cos(2.0 * np.pi * (u[0] * X + u[1] * Y) + phase)
    rows = np.column_stack([X.ravel(), Y.ravel(), h.ravel()])
    with open(path, "w", newline="") as fh:
        fh.write("x,y,value\n")
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",")


# (p, q): v = (1, p/q) is resonant on u = (p, -q)
RESONANCES = ((1, 2), (1, 3), (2, 3), (3, 4), (1, 4))
GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


def static_jobs(rng, workdir: Path) -> list[Job]:
    jobs = []
    for idx in range(4):
        v = [1.0, rng.uniform(1.1, 1.9), rng.uniform(2.1, 2.9)]
        jobs.append(Job(f"cohomology-3d-K16-{idx}", "run", [{
            "scenario": "cohomology", "v": v, "K": 16,
            "h": {"modes": dense_mode_rows(rng, 16, 3)},
        }]))
    # three alike grid solves: the median invocation falls among them
    for idx in range(3):
        grid_csv = workdir / "inputs" / f"h_grid_256_{idx}.csv"
        grid_csv.parent.mkdir(parents=True, exist_ok=True)
        write_grid_csv(rng, grid_csv, 256, 24, 40)
        jobs.append(Job(f"cohomology-2d-grid256-K24-{idx}", "run", [{
            "scenario": "cohomology", "v": [1.0, rng.uniform(0.3, 3.0)], "K": 24,
            "h": {"grid_csv": str(grid_csv)},
        }]))
    u = [int(c) for c in rng.integers(-20, 21, size=2)]
    while u == [0, 0] or u in ([1, -1], [-1, 1]):
        u = [int(c) for c in rng.integers(-20, 21, size=2)]
    a, b = (float(x) for x in rng.normal(size=2))
    jobs.append(Job("cohomology-golden-K20", "run", [{
        "scenario": "cohomology", "v": [1.0, GOLDEN_RATIO], "K": 20,
        "h": {"modes": [[0, 0, rng.uniform(-3.0, 3.0), 0.0],
                        [1, -1, a, 0.0], [-1, 1, a, 0.0],
                        [u[0], u[1], 0.0, b], [-u[0], -u[1], 0.0, -b]]},
    }]))
    p, q = RESONANCES[int(rng.integers(len(RESONANCES)))]
    c = [float(x) for x in rng.normal(size=2)]
    jobs.append(Job("cohomology-resonant", "run", [{
        "scenario": "cohomology", "v": [1.0, p / q], "K": 4,
        "h": {"modes": [[0, 0, 1.0, 0.0], [1, 0, c[0], 0.0], [0, 1, 0.0, c[1]],
                        [p, -q, 1.0, 0.0]]},
    }], {"exit": 4, "worst_mode": [p, -q]}))
    jobs.append(Job("soliton-check-G4096", "run", [{
        "scenario": "soliton-check", "n": 2,
        "functional": {"name": "b1"},
        "initial": {"kind": "constant", "value": rng.uniform(-2.0, 2.0)},
        "numerics": {"grid": 4096},
    }], {"verdict": "soliton"}))
    jobs.append(_planted_ricci(rng))
    return jobs


def _planted_ricci(rng) -> Job:
    """ricci-classify on (n, tau1, r) built from a known two-root spectrum.

    Roots k1, k2 with multiplicities n1, n2 solve k^2 - tau1 k - r = 0 with
    tau1 = n1 k1 + n2 k2 exactly when (n1 - 1) k1 + (n2 - 1) k2 = 0.
    """
    n = int(rng.integers(4, 8))
    n1 = int(rng.integers(2, n - 1))
    n2 = n - n1
    k2 = float(rng.choice((-1.0, 1.0)) * rng.integers(1, 5))
    k1 = -(n2 - 1) * k2 / (n1 - 1)
    tau1 = k1 + k2
    r = -k1 * k2
    return Job(f"ricci-classify-n{n}", "run", [{
        "scenario": "ricci-classify", "n": n, "tau1": float(tau1), "r": float(r),
    }], {"spectrum": {"roots": [float(k1), float(k2)],
                      "multiplicities": [n1, n2]}})


GENERATORS = {"march": march_jobs, "emit": emit_jobs, "static": static_jobs}


def make_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The workload's jobs for this seed; auxiliary input files go in workdir."""
    rng = np.random.default_rng([seed, _STREAM[workload]])
    return GENERATORS[workload](rng, Path(workdir))

