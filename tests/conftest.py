"""Shared fixtures: the heavyweight campaign results are computed once per
session and reused by the unit and acceptance layers, with their build time
carried alongside so runtime budgets can still be asserted; the forks a test
makes are counted, and no test may leave a child process behind. The session
header names the host's kernels, on which the bit-for-bit tests hold."""

import importlib.util
import os
import pathlib
import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, settings

import focsim as fs

settings.register_profile(
    "suite",
    max_examples=1000,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")

RATIOS = (1.0, 3.0, 5.0, 10.0)
CAMPAIGN_SEGMENTS = 1_000_000

CRITERION_RESULTS: dict[int, tuple[bool, str]] = {}


def pytest_report_header(config):
    # loaded by path: tools/ is not a package, and the module sets nothing
    path = pathlib.Path(__file__).resolve().parent.parent / "tools" / "host.py"
    spec = importlib.util.spec_from_file_location("focsim_tools_host", path)
    host = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(host)
    return host.host_line()


@pytest.fixture(scope="session")
def criterion_log():
    return CRITERION_RESULTS


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_RESULTS:
        terminalreporter.section("acceptance criteria")
        for n in sorted(CRITERION_RESULTS):
            ok, detail = CRITERION_RESULTS[n]
            status = "PASS" if ok else "FAIL"
            terminalreporter.write_line(f"CRITERION {n:2d}: {status}  {detail}")


@pytest.fixture(autouse=True)
def no_child_is_left():
    """After every test, this process has no child, running or exited."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers forked so far, in the order they were forked."""
    made = []
    fork = os.fork

    def counted():
        pid = fork()
        made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return made


def medium_with_profile(kind: str, ratio: float) -> fs.SpunMediumSpec:
    base = fs.default_demo_medium()
    profile = replace(
        base.profile, kind=kind, xi_max_rad_per_m=ratio * base.delta_rad_per_m
    )
    return fs.SpunMediumSpec(base.total_length_m, base.delta_rad_per_m, profile)


@pytest.fixture(scope="session")
def xi_table():
    """All eight {profile} x {ratio} ripple rows at the campaign grid size.

    Returns ({(kind, ratio): XiSweepRow}, build_seconds).
    """
    start = time.perf_counter()
    rows = {}
    for kind in ("linear", "cosine"):
        for row in fs.run_xi_sweep(
            medium_with_profile(kind, RATIOS[0]), RATIOS, CAMPAIGN_SEGMENTS
        ):
            rows[(kind, row.xi_over_delta)] = row
    return rows, time.perf_counter() - start


@pytest.fixture(scope="session")
def perturbation_result():
    """Default-medium drift study at the campaign grid size, with build time."""
    start = time.perf_counter()
    res = fs.run_perturbation_study(
        fs.default_demo_medium(),
        CAMPAIGN_SEGMENTS,
        float(fs.constant("wavelength_drift_m")),
        float(fs.constant("temperature_excursion_c")),
    )
    return res, time.perf_counter() - start
