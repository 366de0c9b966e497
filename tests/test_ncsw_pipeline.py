"""Tests for the real-time streaming pipeline."""

import pytest

from repro.errors import FrameworkError
from repro.ncs import NCAPI, paper_testbed_topology
from repro.ncsw.pipeline import PipelineResult, StreamingPipeline
from repro.nn import get_model
from repro.nn.weights import initialize_network
from repro.sim import Environment
from repro.vpu import compile_graph


@pytest.fixture(scope="module")
def micro_graph():
    net = get_model("googlenet-micro")
    initialize_network(net)
    return compile_graph(net)


def _stream(micro_graph, devices, fps, frames, queue_depth=4):
    env = Environment()
    topo = paper_testbed_topology(env, num_devices=devices)
    api = NCAPI(env, topo, functional=False)

    def scenario():
        opens = [api.open_device(i) for i in range(devices)]
        handles = yield env.all_of(opens)
        devs = [handles[ev] for ev in opens]
        allocs = [d.allocate_compiled(micro_graph) for d in devs]
        graphs = yield env.all_of(allocs)
        pipeline = StreamingPipeline(
            env, [graphs[ev] for ev in allocs], fps=fps,
            queue_depth=queue_depth)
        result = yield pipeline.run(frames)
        return result

    return env.run(until=env.process(scenario()))


def test_validation(micro_graph):
    env = Environment()
    with pytest.raises(FrameworkError):
        StreamingPipeline(env, [], fps=30)
    with pytest.raises(FrameworkError):
        StreamingPipeline(env, [object()], fps=0)  # type: ignore
    with pytest.raises(FrameworkError):
        StreamingPipeline(env, [object()], fps=30,  # type: ignore
                          queue_depth=0)


def test_underloaded_pipeline_no_drops(micro_graph):
    # Micro inference ~2.7 ms -> one stick sustains ~370 fps; offer 30.
    result = _stream(micro_graph, devices=1, fps=30, frames=40)
    assert result.frames_dropped == 0
    assert result.frames_processed == 40
    assert result.drop_rate == 0.0
    # Latency ~ one inference (no queueing).
    assert result.latency_percentile(95) < 3 * \
        micro_graph.inference_seconds


def test_overloaded_pipeline_drops_frames(micro_graph):
    # Offer 3000 fps to one stick (~370 fps capacity): heavy drops.
    result = _stream(micro_graph, devices=1, fps=3000, frames=200)
    assert result.frames_dropped > 0
    assert result.frames_processed + result.frames_dropped == 200
    assert result.drop_rate > 0.5
    # Sustained fps saturates near the stick's service rate.
    assert result.sustained_fps == pytest.approx(
        1 / micro_graph.inference_seconds, rel=0.25)


def test_more_sticks_raise_sustained_fps(micro_graph):
    r1 = _stream(micro_graph, devices=1, fps=3000, frames=200)
    r4 = _stream(micro_graph, devices=4, fps=3000, frames=200)
    assert r4.sustained_fps > 2.5 * r1.sustained_fps
    assert r4.drop_rate < r1.drop_rate


def test_queue_depth_bounds_latency(micro_graph):
    shallow = _stream(micro_graph, devices=1, fps=3000, frames=150,
                      queue_depth=1)
    deep = _stream(micro_graph, devices=1, fps=3000, frames=150,
                   queue_depth=8)
    # A deeper queue trades latency for fewer drops.
    assert deep.latency_percentile(95) > shallow.latency_percentile(95)
    assert deep.drop_rate <= shallow.drop_rate


def test_result_summary_and_guards(micro_graph):
    result = _stream(micro_graph, devices=1, fps=100, frames=10)
    s = result.summary()
    assert "fps sustained" in s and "p95" in s
    empty = PipelineResult(frames_offered=0, frames_processed=0,
                           frames_dropped=0, wall_seconds=1.0)
    assert empty.drop_rate == 0.0
    with pytest.raises(ValueError):
        empty.latency_percentile(50)
    with pytest.raises(ValueError):
        _ = empty.mean_latency
    zero_time = PipelineResult(frames_offered=1, frames_processed=1,
                               frames_dropped=0, wall_seconds=0.0,
                               latencies=[0.01])
    with pytest.raises(FrameworkError):
        _ = zero_time.sustained_fps


def test_summary_degrades_when_all_frames_dropped():
    # A run where the live queue skipped every frame must still
    # summarise instead of raising on the latency percentiles.
    all_dropped = PipelineResult(frames_offered=50, frames_processed=0,
                                 frames_dropped=50, wall_seconds=1.0)
    s = all_dropped.summary()
    assert "0/50 frames" in s
    assert "100.0% dropped" in s
    assert "no completed frames" in s
    assert "p95" not in s


def test_accounting_invariant_is_enforced():
    # processed + dropped + abandoned must equal offered.
    with pytest.raises(FrameworkError):
        PipelineResult(frames_offered=10, frames_processed=5,
                       frames_dropped=2, wall_seconds=1.0,
                       latencies=[0.0] * 5)
    # ...and latencies must match the processed count.
    with pytest.raises(FrameworkError):
        PipelineResult(frames_offered=5, frames_processed=5,
                       frames_dropped=0, wall_seconds=1.0,
                       latencies=[0.0] * 3)


def test_pipeline_survives_device_death(micro_graph):
    """A stick dying mid-stream fails over: the survivor keeps the
    pipeline alive and every frame is accounted for."""
    env = Environment()
    topo = paper_testbed_topology(env, num_devices=2)
    api = NCAPI(env, topo, functional=False)

    def scenario():
        opens = [api.open_device(i) for i in range(2)]
        handles = yield env.all_of(opens)
        devs = [handles[ev] for ev in opens]
        allocs = [d.allocate_compiled(micro_graph) for d in devs]
        graphs = yield env.all_of(allocs)
        for d in api.devices:
            d.enable_fault_hooks()

        def killer():
            yield env.timeout(0.05)
            api.devices[0].inject_death()

        env.process(killer())
        pipeline = StreamingPipeline(
            env, [graphs[ev] for ev in allocs], fps=300,
            call_timeout=0.05)
        result = yield pipeline.run(60)
        return result

    result = env.run(until=env.process(scenario()))
    assert result.degraded
    assert result.failures and result.failures[0].kind == "death"
    assert (result.frames_processed + result.frames_dropped
            + result.frames_abandoned) == 60
    # The survivor kept serving after the death.
    assert result.frames_processed > 0


def test_run_validation(micro_graph):
    env = Environment()
    topo = paper_testbed_topology(env, num_devices=1)
    api = NCAPI(env, topo, functional=False)

    def scenario():
        dev = yield api.open_device(0)
        g = yield dev.allocate_compiled(micro_graph)
        pipeline = StreamingPipeline(env, [g], fps=30)
        pipeline.run(0)
        yield env.timeout(0)

    with pytest.raises(FrameworkError):
        env.run(until=env.process(scenario()))

def _stream_policy(micro_graph, admission, fps=3000, frames=150,
                   queue_depth=2):
    env = Environment()
    topo = paper_testbed_topology(env, num_devices=1)
    api = NCAPI(env, topo, functional=False)

    def scenario():
        dev = yield api.open_device(0)
        g = yield dev.allocate_compiled(micro_graph)
        pipeline = StreamingPipeline(
            env, [g], fps=fps, queue_depth=queue_depth,
            admission=admission)
        result = yield pipeline.run(frames)
        return result

    return env.run(until=env.process(scenario()))


def test_admission_policy_validation(micro_graph):
    env = Environment()
    with pytest.raises(FrameworkError):
        StreamingPipeline(env, [object()], fps=30,  # type: ignore
                          admission="drop-all")


def test_block_admission_backpressures_instead_of_dropping(
        micro_graph):
    from repro.ncsw.pipeline import BLOCK

    result = _stream_policy(micro_graph, BLOCK)
    # Backpressure loses nothing, even at 8x the stick's capacity...
    assert result.frames_dropped == 0
    assert result.frames_processed == 150
    # ...but the producer stalls, so the offered rate collapses to
    # the service rate and latency is bounded by the short queue.
    assert result.sustained_fps == pytest.approx(
        1 / micro_graph.inference_seconds, rel=0.25)


def test_block_admission_stamps_frames_after_the_stall(micro_graph):
    """Under backpressure a frame is stamped when it is admitted, not
    when the camera first tried to emit it: the stall lowers the
    sustained rate instead of piling up as queueing latency.  With a
    one-frame queue at ~5x the stick's capacity, no frame waits
    longer than the frame ahead of it plus its own inference."""
    from repro.ncsw.pipeline import BLOCK

    result = _stream_policy(micro_graph, BLOCK, queue_depth=1)
    assert result.frames_processed == 150
    assert max(result.latencies) < 3 * micro_graph.inference_seconds


def test_shed_oldest_admission_drops_but_accounts(micro_graph):
    from repro.ncsw.pipeline import SHED_OLDEST

    result = _stream_policy(micro_graph, SHED_OLDEST)
    assert result.frames_dropped > 0
    assert (result.frames_processed + result.frames_dropped
            + result.frames_abandoned) == 150
    assert result.drop_rate > 0.5


def test_lossy_policies_agree_on_drop_volume(micro_graph):
    # Same offered load, same capacity: which frames are lost differs
    # (head vs tail of the queue), but how many cannot.
    from repro.ncsw.pipeline import REJECT_NEWEST, SHED_OLDEST

    rej = _stream_policy(micro_graph, REJECT_NEWEST)
    shed = _stream_policy(micro_graph, SHED_OLDEST)
    assert rej.frames_dropped == pytest.approx(
        shed.frames_dropped, abs=3)


def test_block_admission_survives_total_device_loss(micro_graph):
    # The producer must not deadlock waiting for space when every
    # worker has died: the run drains and the leftovers are abandoned.
    from repro.ncsw.pipeline import BLOCK

    env = Environment()
    topo = paper_testbed_topology(env, num_devices=1)
    api = NCAPI(env, topo, functional=False)

    def scenario():
        dev = yield api.open_device(0)
        g = yield dev.allocate_compiled(micro_graph)
        for d in api.devices:
            d.enable_fault_hooks()

        def killer():
            yield env.timeout(0.02)
            api.devices[0].inject_death()

        env.process(killer())
        pipeline = StreamingPipeline(
            env, [g], fps=300, queue_depth=1, admission=BLOCK,
            call_timeout=0.05)
        result = yield pipeline.run(60)
        return result

    result = env.run(until=env.process(scenario()))
    assert result.degraded
    assert result.frames_abandoned > 0
    assert (result.frames_processed + result.frames_dropped
            + result.frames_abandoned) == 60
