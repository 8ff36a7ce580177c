"""The benchmark's jobs still run, and still pass, against this package.

bench/workloads.py reads names of the package to build its jobs and their
references: the CLI, perms.wreath_c2_s2 and perms.dihedral_group,
commuting.commuting_orbit_counts, fixtures.module_gf_dim3_candidates and
more.  Renaming or deleting one of them, or changing what a job's command
prints, would first fail in a benchmark run; this test catches it in the
ordinary suite instead.  The workload file is loaded as it is, not edited,
as test_spans.py loads the tracer.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_job_builds_its_reference_and_passes(name, seed):
    for job in workloads.WORKLOADS[name].jobs(seed):
        assert job.check(job.run()) is None, job.name
