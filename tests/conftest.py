"""Shared fixtures: the deterministic chaos-test harness.

``chaos_graph`` compiles the micro network once per session;
``chaos_run`` is a factory that wires one fault-injected multi-VPU
run through the NCSw framework.  Both are deterministic: the same
:class:`~repro.ncsw.faults.FaultPlan` (or seed) always reproduces the
same run, byte for byte.
"""

import pytest

from repro.nn import get_model
from repro.nn.weights import initialize_network
from repro.vpu import compile_graph


@pytest.fixture(scope="session")
def chaos_graph():
    """Compiled googlenet-micro shared by every chaos test."""
    net = get_model("googlenet-micro")
    initialize_network(net)
    return compile_graph(net)


@pytest.fixture
def chaos_run(chaos_graph):
    """Factory for one (optionally fault-injected) multi-VPU run.

    Returns a callable: ``chaos_run(plan, images=40, devices=4, ...)``
    -> :class:`~repro.ncsw.results.RunResult`.  Timing-only (non-
    functional) sticks keep each run to a few milliseconds of
    simulated time.
    """
    from repro.ncsw import IntelVPU, NCSw, SyntheticSource

    def _run(plan=None, *, images=40, devices=4, batch=None,
             call_timeout=None, dynamic=False, overlap=True, obs=None):
        fw = NCSw(obs=obs)
        fw.add_source("synth", SyntheticSource(images))
        fw.add_target("vpu", IntelVPU(
            graph=chaos_graph, num_devices=devices, functional=False,
            overlap=overlap, dynamic=dynamic, fault_plan=plan,
            call_timeout=call_timeout))
        return fw.run("synth", "vpu",
                      batch_size=batch if batch else images)

    return _run


@pytest.fixture
def serve_run(chaos_graph):
    """Factory for one open-loop serving run over micro-graph sticks.

    ``serve_run(rate=..., requests=..., devices=..., **server_kwargs)``
    -> :class:`~repro.serve.slo.ServeResult`.  Pass ``workload=`` to
    override the default seeded Poisson process, or ``fault_plan=`` /
    ``call_timeout=`` to arm chaos against the sticks.
    """
    from repro.ncsw import IntelVPU
    from repro.serve import InferenceServer, PoissonWorkload

    def _run(*, requests=40, devices=2, rate=100.0, seed=0,
             workload=None, fault_plan=None, call_timeout=None,
             extra_targets=None, **server_kwargs):
        server = InferenceServer(**server_kwargs)
        server.add_target("vpu", IntelVPU(
            graph=chaos_graph, num_devices=devices, functional=False,
            fault_plan=fault_plan, call_timeout=call_timeout))
        for name, target in (extra_targets or {}).items():
            server.add_target(name, target)
        wl = workload or PoissonWorkload(rate, seed=seed)
        return server.run(wl, requests)

    return _run
