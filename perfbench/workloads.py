"""Benchmark workloads: one scene recipe, detector settings and sweep grid each.

Every workload runs the same closed loop of CLI operations (synth, the four
detectors, eval of the acda map, one sweep), so every end-to-end metric is
measured on every workload; the workloads differ in which layer dominates.
The scene content comes from the benchmark's --seed; sizes, detector
settings and the anomaly layout are fixed per workload so that the work done
does not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

# The five 3x3 rects of the acceptance gate (tests/test_acceptance.py).
ACCEPTANCE_RECTS = (
    {"x": 8, "y": 8, "w": 3, "h": 3, "mode": "insert_t2"},
    {"x": 40, "y": 20, "w": 3, "h": 3, "mode": "remove_t2"},
    {"x": 20, "y": 50, "w": 3, "h": 3, "mode": "insert_t2"},
    {"x": 52, "y": 40, "w": 3, "h": 3, "mode": "insert_t2"},
    {"x": 30, "y": 30, "w": 3, "h": 3, "mode": "insert_t2"},
)


def lattice_rects(height: int, width: int, rows: int, cols: int, size: int) -> tuple[dict, ...]:
    """size x size rects centred in a rows x cols lattice, alternating change modes."""
    rects = []
    for r in range(rows):
        for c in range(cols):
            y = (2 * r + 1) * height // (2 * rows) - size // 2
            x = (2 * c + 1) * width // (2 * cols) - size // 2
            mode = "remove_t2" if (r + c) % 2 else "insert_t2"
            rects.append({"x": x, "y": y, "w": size, "h": size, "mode": mode})
    return tuple(rects)


@dataclass(frozen=True)
class Workload:
    name: str
    height: int
    width: int
    bands: int
    rects: tuple[dict, ...]
    acda: dict  # `detect acda --set` overrides; unset keys keep the CLI defaults
    grid: dict  # sweep grid file: h1/h2 lists plus shared config keys

    def scene_spec(self, seed: int) -> dict:
        # Endmembers, strength and noise of the acceptance nonlinear scene.
        return {
            "height": self.height,
            "width": self.width,
            "bands": self.bands,
            "n_endmembers": 6,
            "condition": "nonlinear",
            "condition_strength": 0.8,
            "noise_sigma": 0.01,
            "anomalies": [dict(r) for r in self.rects],
            "seed": seed,
        }

    @property
    def sweep_cells(self) -> int:
        """Grid cells that form a bottleneck (h2 < h1 < bands), as the CLI counts them."""
        return sum(
            1 for h1 in set(self.grid["h1"]) for h2 in set(self.grid["h2"])
            if 0 < h2 < h1 < self.bands
        )


WORKLOADS = {
    # Criterion 4's acceptance config at 4 epochs: training is Python-overhead bound.
    "nonlinear-64": Workload(
        name="nonlinear-64",
        height=64, width=64, bands=16,
        rects=ACCEPTANCE_RECTS,
        acda={
            "h1": 15, "h2": 10, "epochs": 4, "batch_size": 64,
            "l2_lambda": 1e-4, "sample_count": 1800, "repeats": 10,
        },
        grid={
            "h1": [15, 10], "h2": [10, 5], "epochs": 5, "batch_size": 64,
            "l2_lambda": 1e-4, "sample_count": 1800, "repeats": 1,
        },
    ),
    # The default shape (19/13 at 40 bands), 6%-of-scene samples and batch 256; three
    # grid cells, each of which recomputes the same SFA + k-means pre-detection. 40
    # bands, not the paper's 127, because the Jacobi eigh behind SFA and CE grows with
    # the square of the band count: at 64 bands a run fits four rounds of the loop and
    # at 127 bands two, too few samples for a steady median on a 2-core host.
    "sweep-40bands": Workload(
        name="sweep-40bands",
        height=128, width=128, bands=40,
        rects=lattice_rects(128, 128, 2, 2, 5),
        acda={"epochs": 15, "repeats": 2},
        grid={"h1": [24, 16], "h2": [16, 8], "epochs": 2, "repeats": 1},
    ),
    # Toy size for the self-test only; not listed in BENCHMARK.json.
    "toy": Workload(
        name="toy",
        height=24, width=24, bands=8,
        rects=lattice_rects(24, 24, 2, 2, 2),
        acda={"h1": 6, "h2": 4, "epochs": 2, "batch_size": 32, "sample_count": 100, "repeats": 2},
        grid={"h1": [6, 5], "h2": [4, 3], "epochs": 2, "batch_size": 32, "repeats": 1},
    ),
}
