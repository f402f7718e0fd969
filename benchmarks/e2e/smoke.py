"""Smoke check of the end-to-end benchmark, on tiny inputs (about a minute)::

    python3 benchmarks/e2e/smoke.py

Asserts that
* every workload, untraced and traced, emits every metric ``BENCHMARK.json``
  defines, with its unit, and no request fails;
* the input generators are deterministic per seed, across processes with
  different string-hash seeds, and differ between seeds;
* a planted wrong answer makes the run fail.

Exits with a non-zero code at the first failed check.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def expect(condition: bool, message) -> None:
    if not condition:
        raise SystemExit(f"FAIL {message}")


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def check_workload(name: str, trace: int, definitions: list) -> None:
    done = run("--workload", name, "--seed", "1", "--seconds", "1", "--trace", str(trace))
    expect(done.returncode == 0, f"{name} trace={trace} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result)
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result)
    expected = {d["name"]: d["unit"] for d in definitions}
    emitted = {key: value["unit"] for key, value in result["metrics"].items()}
    expect(emitted == expected, f"{name} trace={trace}: {set(emitted) ^ set(expected)}")
    for key, value in result["metrics"].items():
        expect(isinstance(value["value"], (int, float)), (key, value))
    print(f"ok  {name} trace={trace}: {len(emitted)} metrics, {result['attempted']} requests")


def digest(seed: int) -> str:
    """A digest of one input of every generator, for ``seed``."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads as W

    W.use_smoke_sizes()
    rng = random.Random(seed)
    schema, _ = W.serve_small_query()
    states = W.serve_small_batch(schema, rng)
    states += [shape.batch(rng)[0] for shape in W.serve_large_shapes()]
    templates = W.adhoc_templates()
    template = W.adhoc_template(templates, seed)
    states.append(W.adhoc_state(template, seed, 0))
    schema, _ = W.service_query()
    states += W.service_pool(schema, rng) + W.service_heavy(schema, rng)
    text = [repr(W.service_schedule(rng, 60, 1.0)), template.name]
    for state in states:
        for relation in state.relations:
            text.append(repr(sorted(relation.rows)))
    return hashlib.sha256("\n".join(text).encode()).hexdigest()


def check_generators() -> None:
    here = digest(7)
    env = dict(os.environ, PYTHONHASHSEED="12345")
    other = subprocess.run(
        [sys.executable, __file__, "--digest", "7"], env=env, capture_output=True, text=True,
        check=True,
    ).stdout.strip()
    expect(here == other, "generators are not deterministic across processes")
    expect(digest(8) != here, "different seeds gave the same inputs")
    print("ok  generators are deterministic per seed")


def check_planted_wrong_answer() -> None:
    done = run("--workload", "serve-small", "--seed", "1", "--seconds", "1", "--trace", "0",
               "--plant-wrong")
    expect(done.returncode != 0, "a planted wrong answer did not fail the run")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expect(result["correct"] is False, "a planted wrong answer was reported correct")
    print("ok  a planted wrong answer fails the run")


def main() -> int:
    if sys.argv[1:2] == ["--digest"]:
        print(digest(int(sys.argv[2])))
        return 0
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    check_generators()
    check_planted_wrong_answer()
    for workload in spec["workloads"]:
        check_workload(workload["name"], 0, spec["end_to_end"])
        check_workload(workload["name"], 1, spec["per_layer"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
