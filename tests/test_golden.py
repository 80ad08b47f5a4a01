"""Output bytes of the benchmark's seed-1 jobs, pinned in Tier-1.

Builds the seed-1 jobs of the ``faces`` and ``quadratic`` workloads with
``perfbench/workloads.py``, runs one in-process pass through
``perfbench/run.py::execute`` and requires every job's stdout digest to
equal ``perfbench/digests.json`` and the exact checks of
``run.Verdicts().judge_first`` to record no failure.  ``semigroup`` is not
here yet: 17 of its seed-1 jobs fail the exact checks (a generator set that
misses a member of the checked box), which the generator search has to fix
first.
"""

import importlib
import json
import signal
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def bench():
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    # execute() arms a wall-clock cap; without run's handler SIGALRM would
    # end the test process instead of the job
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    yield run, workloads
    signal.signal(signal.SIGALRM, old)
    mp.undo()


@pytest.mark.parametrize("workload", ["faces", "quadratic"])
def test_seed1_digests_and_checks(bench, workload, tmp_path):
    run, workloads = bench
    jobs = workloads.build(workload, 1, tmp_path)
    results = [run.execute(job, tmp_path) for job in jobs]
    expected = json.loads((BENCH / "digests.json").read_text())[workload]["1"]
    digests = {job["id"]: run._digest(code, text)
               for job, (_, code, text, _) in zip(jobs, results)}
    assert digests == expected
    verdicts = run.Verdicts()
    verdicts.judge_first(jobs, results)
    assert verdicts.failures == {}
