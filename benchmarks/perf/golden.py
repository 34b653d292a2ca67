"""Golden determinism fingerprints for the figure experiments.

Wall-clock optimizations must never move virtual time: every figure
series produced at the default seed (``0xC10E``) has to stay
bit-identical across host-side performance work. This module runs each
figure driver at a reduced (but shape-preserving) scale, converts the
result dataclasses to canonical JSON and hashes them with the one
:func:`repro.obs.fingerprint` every storm and experiment uses.

``golden_series.json`` (checked in next to this module) holds the
fingerprints captured *before* the optimization work; the determinism
test asserts the current tree reproduces them exactly.

Regenerate (only when a change intentionally moves virtual time)::

    PYTHONPATH=src python -m benchmarks.perf.golden --write
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs import fingerprint, jsonify

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_series.json"

#: The simulation seed the fingerprints are pinned to (platform default).
SEED = 0xC10E

#: Reduced-scale figure invocations. Keys are stable fingerprint names;
#: values are zero-argument callables returning the figure result object.
def _figures() -> dict:
    from repro.experiments import (
        fig4_instantiation,
        fig5_density,
        fig6_memory_cloning,
        fig7_nginx,
        fig8_redis,
        fig9_fuzzing,
        fig10_faas_memory,
        fig11_faas_reaction,
    )
    from repro.sim.units import GIB

    return {
        "fig4": lambda: fig4_instantiation.run(instances=60),
        "fig5": lambda: fig5_density.run(sample_every=50, limit=400,
                                         total_memory_bytes=16 * GIB),
        "fig6": lambda: fig6_memory_cloning.run(sizes_mb=(4, 16),
                                                repetitions=1),
        "fig7": lambda: fig7_nginx.run(worker_counts=(1, 2), repetitions=3),
        "fig8": lambda: fig8_redis.run(),
        "fig9": lambda: fig9_fuzzing.run(duration_s=20.0),
        "fig10": lambda: fig10_faas_memory.run(duration_s=40.0,
                                               max_replicas=3),
        "fig11": lambda: fig11_faas_reaction.run(duration_s=40.0),
    }


def compute_fingerprints(only: set[str] | None = None) -> dict[str, str]:
    """Run every (selected) reduced-scale figure and fingerprint it."""
    prints: dict[str, str] = {}
    for name, runner in _figures().items():
        if only is not None and name not in only:
            continue
        prints[name] = fingerprint(jsonify(runner()))
    return prints


def load_golden() -> dict[str, str]:
    data = json.loads(GOLDEN_PATH.read_text())
    return data["fingerprints"]


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true",
                        help="regenerate golden_series.json from this tree")
    args = parser.parse_args(argv)
    prints = compute_fingerprints()
    if args.write:
        GOLDEN_PATH.write_text(json.dumps(
            {"seed": SEED, "fingerprints": prints}, indent=2) + "\n")
        print(f"wrote {GOLDEN_PATH}")
        return 0
    golden = load_golden()
    drift = {k for k in golden if golden[k] != prints.get(k)}
    for name in sorted(prints):
        status = "drift!" if name in drift else "ok"
        print(f"{name:8s} {prints[name][:16]}  {status}")
    return 1 if drift else 0


if __name__ == "__main__":
    raise SystemExit(main())
