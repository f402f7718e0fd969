"""numpy is imported on first use of the array kernel, and never before.

Each test runs its scenario in a fresh interpreter, because the test process
itself imports numpy long before any test runs.  The child prints one JSON
line: the scenario's facts plus whether ``numpy`` reached ``sys.modules``.
The same assertions hold with numpy blocked: the small paths never touch it,
and a batch that passes the ``auto`` gate falls back to compiled.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.relational import numpy_available

_SRC = str(Path(repro.__file__).resolve().parent.parent)

_PRELUDE = """
import json, sys
from repro import analyze
from repro.relational.universal import random_database_state

def report(**facts):
    facts["numpy_loaded"] = "numpy" in sys.modules
    print(json.dumps(facts))

def small_batch(schema, count):
    return [random_database_state(schema, tuple_count=20, rng=k) for k in range(count)]

# ~115 int rows per relation, ~345 per state: past the row floor of the
# ``auto`` gate on a three-relation chain whose plan joins.
def large_batch(target, seed):
    prepared = analyze("ab,bc,cd").prepare(target)
    states = [
        random_database_state(
            prepared.schema, tuple_count=120, domain_size=40, rng=seed + k
        )
        for k in range(3)
    ]
    return prepared, states

def backends(runs):
    return sorted({run.backend for run in runs})

def equal_classic(prepared, states, runs):
    return [run.result for run in runs] == [
        prepared.execute(state, backend="classic").result for state in states
    ]
"""


def _run(body: str, *, shim: str = "") -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (shim, _SRC, env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(body)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


_SMALL_PATHS = {
    "import-repro": ("report()", {}),
    "execute-many": (
        """
        prepared = analyze("ab,bc,cd").prepare("ad")
        report(backends=backends(prepared.execute_many(small_batch(prepared.schema, 8))))
        """,
        {"backends": ["compiled"]},
    ),
    "prepare-cyclic-aring6": (
        """
        from repro.hypergraph import RelationSchema, aring
        prepared = analyze(aring(6)).prepare_cyclic(RelationSchema("ad"))
        states = small_batch(aring(6), 4)
        runs = prepared.execute_many(states)
        report(backends=backends(runs), equal=equal_classic(prepared, states, runs))
        """,
        {"backends": ["compiled"], "equal": True},
    ),
    "service-thin-submit": (
        """
        from repro.engine.service import QueryService
        prepared = analyze("ab,bc,cd").prepare("ad")
        with QueryService(workers=2) as service:
            handle = service.submit(prepared, small_batch(prepared.schema, 8))
            runs = handle.result()
        report(decision=handle.decision.backend, backends=backends(runs))
        """,
        {"decision": "compiled", "backends": ["compiled"]},
    ),
    "cli-query-json": (
        """
        import contextlib, io
        from repro.cli import main
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["query", "--json", "ab,bc,cd", "ad", "--random", "20"])
        report(code=code, backend=json.loads(out.getvalue())["backend"])
        """,
        {"code": 0, "backend": "compiled"},
    ),
}


@pytest.mark.parametrize("path", sorted(_SMALL_PATHS))
def test_small_paths_never_import_numpy(path):
    body, expected = _SMALL_PATHS[path]
    assert _run(body) == {**expected, "numpy_loaded": False}


#: Four threads (more than the CI hosts' cores) run their first large batch
#: together on four plans; every thread but the first starts once the first
#: has begun importing numpy, so they arrive mid-import.
_RACE = """
import threading, time
sys.setswitchinterval(1e-5)
jobs = [large_batch(target, 10 * k) for k, target in enumerate(("ad", "ac", "bd", "abd"))]
barrier = threading.Barrier(len(jobs))
outcomes = [None] * len(jobs)

def work(index):
    prepared, states = jobs[index]
    barrier.wait()
    deadline = time.monotonic() + 1
    while index and "numpy" not in sys.modules and time.monotonic() < deadline:
        time.sleep(0.001)
    runs = prepared.execute_many(states)
    outcomes[index] = (backends(runs), equal_classic(prepared, states, runs))

threads = [threading.Thread(target=work, args=(index,)) for index in range(len(jobs))]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
report(outcomes=outcomes, alive=[thread.is_alive() for thread in threads])
"""


class TestFirstVectorizedBatchLoadsNumpy:
    """A batch past the ``auto`` gate is where numpy first gets imported."""

    def test_gated_batch_routes_to_vectorized(self):
        facts = _run(
            """
            prepared, states = large_batch("ad", 0)
            before = "numpy" in sys.modules
            runs = prepared.execute_many(states)
            report(
                before=before,
                backends=backends(runs),
                equal=equal_classic(prepared, states, runs),
            )
            """
        )
        kernel = "vectorized" if numpy_available() else "compiled"
        assert facts == {
            "before": False,
            "backends": [kernel],
            "equal": True,
            "numpy_loaded": numpy_available(),
        }

    def test_threads_racing_on_the_first_batch(self):
        # The first thread imports numpy; the others must each use the
        # finished module, never a partly initialized one.
        kernel = "vectorized" if numpy_available() else "compiled"
        assert _run(_RACE) == {
            "outcomes": [[[kernel], True]] * 4,
            "alive": [False] * 4,
            "numpy_loaded": numpy_available(),
        }

    def test_threads_racing_on_a_failing_first_import(self, tmp_path):
        # A numpy whose import fails slowly: the other threads arrive while
        # the first is still importing.  All must see "absent" and fall back
        # to compiled, never the half-built module of the failed import.
        (tmp_path / "numpy.py").write_text(
            "import time\ntime.sleep(0.3)\nraise ImportError('numpy blocked')\n"
        )
        assert _run(_RACE, shim=str(tmp_path)) == {
            "outcomes": [[["compiled"], True]] * 4,
            "alive": [False] * 4,
            "numpy_loaded": False,
        }


@pytest.mark.parametrize("backend", ["auto", "vectorized"])
def test_resolve_backend_without_states_still_asks_numpy(backend):
    # The static question has no batch to gate on: it answers vectorized
    # whenever numpy imports.
    facts = _run(
        f"""
        from repro.engine.prepared import resolve_backend
        report(resolved=resolve_backend({backend!r}))
        """
    )
    kernel = "vectorized" if numpy_available() else "compiled"
    assert facts == {"resolved": kernel, "numpy_loaded": numpy_available()}
