"""Property-based chaos tests for the fault-tolerant scheduler.

Every test drives the full NCSw stack (framework -> IntelVPU ->
MultiVPUScheduler -> NCS device model) with a seeded
:class:`~repro.ncsw.faults.FaultPlan` and checks the failover
invariants: no work silently lost, no duplicates, deterministic
replay, and an untouched default path.
"""

import pytest

from repro.data import (ILSVRCValidation, ImageSynthesizer,
                        Preprocessor, SynsetVocabulary)
from repro.errors import FrameworkError
from repro.ncsw import (DeviceFault, FaultPlan, ImageFolder, IntelVPU,
                        NCSw)
from repro.ncsw.faults import BUSY, DEATH, HANG, THERMAL
from repro.ncsw.sources import WorkItem
from repro.nn import get_model
from repro.nn.weights import WeightStore
from repro.sim import Environment
from repro.vpu import compile_graph

#: A call deadline several healthy micro inferences (~2.7 ms) long:
#: generous enough never to fire on a live stick, short enough to
#: detect a hang quickly.
TIMEOUT = 0.05


def _fingerprint(run):
    """Everything observable about a run, including failure events."""
    return (run.wall_seconds, run.batch_size,
            tuple((r.index, r.device, r.t_submit, r.t_complete)
                  for r in run.records),
            tuple((f.device, f.worker, f.time, f.kind, f.requeued)
                  for f in run.failures),
            run.reassigned, run.abandoned)


@pytest.fixture(scope="module")
def window(chaos_graph):
    """(first-submit time, wall seconds) of a healthy 4-stick run."""
    from repro.ncsw import NCSw, SyntheticSource

    fw = NCSw()
    fw.add_source("synth", SyntheticSource(40))
    fw.add_target("vpu", IntelVPU(graph=chaos_graph, num_devices=4,
                                  functional=False))
    run = fw.run("synth", "vpu", batch_size=40)
    return min(r.t_submit for r in run.records), run.wall_seconds


# -- plan construction -------------------------------------------------

def test_fault_plan_validation():
    with pytest.raises(FrameworkError):
        DeviceFault(device_index=0, at=1.0, kind="meltdown")
    with pytest.raises(FrameworkError):
        DeviceFault(device_index=-1, at=1.0)
    with pytest.raises(FrameworkError):
        DeviceFault(device_index=0, at=-1.0)
    with pytest.raises(FrameworkError):
        FaultPlan.seeded(0, num_devices=4, horizon=1.0, n_faults=5)
    with pytest.raises(FrameworkError):
        FaultPlan.seeded(0, num_devices=4, horizon=0.0)


def test_seeded_plan_is_deterministic():
    kinds = (DEATH, HANG, THERMAL, BUSY)
    a = FaultPlan.seeded(42, num_devices=8, horizon=1.0, n_faults=3,
                         kinds=kinds)
    b = FaultPlan.seeded(42, num_devices=8, horizon=1.0, n_faults=3,
                         kinds=kinds)
    assert a.faults == b.faults
    c = FaultPlan.seeded(43, num_devices=8, horizon=1.0, n_faults=3,
                         kinds=kinds)
    assert a.faults != c.faults


def test_arm_rejects_out_of_range_device(chaos_run):
    plan = FaultPlan.kill(7, at=1.0)  # only 4 devices below
    with pytest.raises(FrameworkError):
        chaos_run(plan, devices=4)


# -- failover properties ----------------------------------------------

def test_any_single_death_completes_all_work(chaos_run, window):
    """Property: any single-device death, at any seeded time and of
    any kind, still yields a completed run with every non-abandoned
    image classified exactly once."""
    t0, wall = window
    for seed in range(6):
        plan = FaultPlan.seeded(seed, num_devices=4, horizon=wall,
                                start=t0,
                                kinds=(DEATH, HANG, THERMAL),
                                n_faults=1)
        res = chaos_run(plan, call_timeout=TIMEOUT)
        assert res.images == 40 - res.abandoned, f"seed {seed}"
        indexes = [r.index for r in res.records]
        assert len(indexes) == len(set(indexes)), (
            f"seed {seed}: duplicate classifications")
        if plan.injected:
            assert res.degraded, f"seed {seed}"
            assert len(res.failures) >= 1


def test_same_seed_is_byte_identical(chaos_run, window):
    """Determinism: replaying a fault seed reproduces the identical
    RunResult, failure-event timestamps included."""
    t0, wall = window
    runs = [chaos_run(FaultPlan.seeded(3, num_devices=4, horizon=wall,
                                       start=t0, n_faults=1),
                      call_timeout=TIMEOUT)
            for _ in range(2)]
    assert _fingerprint(runs[0]) == _fingerprint(runs[1])
    assert runs[0].failures, "the seeded fault never fired"


def test_dynamic_mode_survives_death(chaos_run, window):
    t0, wall = window
    plan = FaultPlan.kill(2, at=t0 + 0.5 * wall)
    res = chaos_run(plan, call_timeout=TIMEOUT, dynamic=True)
    assert res.images == 40 - res.abandoned
    assert res.failures and res.failures[0].kind == "death"
    assert "vpu2" not in {r.device
                          for r in res.records
                          if r.t_complete > t0 + 0.5 * wall + TIMEOUT}


def test_serial_mode_survives_death(chaos_run, window):
    t0, wall = window
    res = chaos_run(FaultPlan.kill(1, at=t0 + 0.5 * wall),
                    call_timeout=TIMEOUT, overlap=False)
    assert res.images == 40 - res.abandoned
    assert res.degraded


def test_all_devices_dead_abandons_remainder(chaos_run, window):
    """Killing every stick mid-run must terminate (no deadlock) with
    the unfinished work abandoned, not lost."""
    t0, wall = window
    kill = t0 + 0.5 * wall
    plan = FaultPlan([DeviceFault(i, at=kill) for i in range(4)])
    res = chaos_run(plan, call_timeout=TIMEOUT)
    assert res.abandoned > 0
    assert res.images == 40 - res.abandoned
    assert len(res.dead_devices()) == 4


def test_fault_machinery_off_is_byte_identical(chaos_run):
    """The headline guarantee: with no fault firing, plain waits, the
    lost-device hooks armed by an empty plan, and the hooks armed by a
    call deadline that never fires all produce byte-identical results,
    on every worker loop (static double-buffered, static serial,
    dynamic)."""
    for dynamic in (False, True):
        for overlap in (True, False):
            kw = dict(dynamic=dynamic, overlap=overlap)
            plain = chaos_run(None, **kw)
            empty = chaos_run(FaultPlan(), **kw)
            deadline = chaos_run(None, call_timeout=TIMEOUT, **kw)
            assert _fingerprint(plain) == _fingerprint(empty), kw
            assert _fingerprint(plain) == _fingerprint(deadline), kw
            assert not plain.degraded, kw


def test_stick_dying_between_batches_fails_over_without_a_plan(
        chaos_graph):
    """No fault plan and no deadline: a stick that dies idle between
    batches drops out of the next batch's rotation, the survivors
    serve every item, and the run's accounting lists the death."""
    env = Environment()
    vpu = IntelVPU(graph=chaos_graph, num_devices=4, functional=False)
    env.run(until=vpu.prepare(env))
    first = env.run(until=env.process(vpu.execute(
        [WorkItem(i, i, None) for i in range(8)])))
    assert {r.device for r in first} == {"vpu0", "vpu1", "vpu2", "vpu3"}
    victim = vpu.api.devices[2]
    victim.mark_dead("death", "unplugged between batches")
    second = env.run(until=env.process(vpu.execute(
        [WorkItem(i, i, None) for i in range(8, 16)])))
    assert sorted(r.index for r in second) == list(range(8, 16))
    assert {r.device for r in second} == {"vpu0", "vpu1", "vpu3"}
    stats = vpu.fault_stats()
    assert [(f.device, f.kind) for f in stats.events] == [
        (victim.device_id, "death")]
    assert stats.abandoned == 0 and stats.reassigned == 0
    assert vpu.alive


def test_eight_sticks_kill_one_sustains_most_throughput(chaos_run):
    """Kill 1 of 8 sticks at t=50%: the run completes and the
    survivors sustain roughly 7/8 of baseline throughput."""
    base = chaos_run(None, images=160, devices=8)
    t0 = min(r.t_submit for r in base.records)
    kill = t0 + 0.5 * base.wall_seconds
    res = chaos_run(FaultPlan.kill(5, at=kill), images=160, devices=8,
                    call_timeout=TIMEOUT)
    assert res.abandoned == 0
    assert res.images == 160
    after = [r for r in res.records if r.t_complete > kill]
    assert after
    post = len(after) / (max(r.t_complete for r in after) - kill)
    # 7/8 = 87.5% in steady state; the rescue round's tail costs a few
    # points, so gate at 70% while also requiring it stayed below the
    # healthy rate (a dead stick cannot speed the rig up).
    assert post >= 0.70 * base.throughput()
    assert post <= 1.01 * base.throughput()


# -- functional correctness under failure ------------------------------

@pytest.fixture(scope="module")
def functional_setup():
    """Pretrained micro network + dataset for real classifications."""
    net = get_model("googlenet-micro")
    synth = ImageSynthesizer(num_classes=10, size=32, noise_sigma=0,
                             jitter_shift=0)
    pp = Preprocessor(input_size=32)
    WeightStore(seed=0, logit_scale=8.0).pretrain(
        net, lambda c: pp(synth.template(c)), num_classes=10)
    vocab = SynsetVocabulary(num_classes=10)
    ds = ILSVRCValidation(vocab, synth.with_noise(25.0), num_images=24,
                          subset_size=12)
    return ds, pp, compile_graph(net)


def test_failover_does_not_change_classifications(functional_setup):
    """Images that complete in a degraded run are classified exactly
    as in the healthy run — failover moves work, never corrupts it."""
    ds, pp, graph = functional_setup

    def run(plan=None, timeout=None):
        fw = NCSw()
        fw.add_source("val", ImageFolder(ds, 0, pp))
        fw.add_target("vpu", IntelVPU(graph=graph, num_devices=3,
                                      functional=True,
                                      fault_plan=plan,
                                      call_timeout=timeout))
        return fw.run("val", "vpu", batch_size=24)

    base = run()
    offered = base.images  # subset 0 = half the 24-image validation set
    t0 = min(r.t_submit for r in base.records)
    kill = t0 + 0.5 * base.wall_seconds
    res = run(FaultPlan.kill(1, at=kill), timeout=TIMEOUT)
    assert res.degraded
    assert res.images == offered - res.abandoned
    healthy = {r.index: r for r in base.records}
    for r in res.records:
        b = healthy[r.index]
        assert (r.predicted, r.confidence) == (
            b.predicted, b.confidence), f"image {r.index}"


# -- grouped runs -------------------------------------------------------

def test_run_group_heterogeneous_fault_plans(chaos_graph):
    """Satellite: per-target fault plans in a group.  The healthy
    group's result is unchanged, byte for byte, by the other group's
    failure."""
    from repro.ncsw import SyntheticSource

    def group(faulty_plan):
        fw = NCSw()
        fw.add_source("synth", SyntheticSource(32))
        fw.add_target("vpu-a", IntelVPU(graph=chaos_graph,
                                        num_devices=2,
                                        functional=False))
        fw.add_target("vpu-b", IntelVPU(
            graph=chaos_graph, num_devices=2, functional=False,
            fault_plan=faulty_plan,
            call_timeout=TIMEOUT if faulty_plan else None))
        return fw.run_group("synth", ["vpu-a", "vpu-b"],
                            batch_size=16)

    healthy = group(None)
    b = healthy["vpu-b"]
    t0 = min(r.t_submit for r in b.records)
    kill = t0 + 0.5 * b.wall_seconds
    mixed = group(FaultPlan.kill(0, at=kill))
    # The faulted group degrades but finishes its split.
    assert mixed["vpu-b"].degraded
    assert mixed["vpu-b"].images == 16 - mixed["vpu-b"].abandoned
    # The healthy group never notices.
    assert _fingerprint(mixed["vpu-a"]) == _fingerprint(
        healthy["vpu-a"])
    assert not mixed["vpu-a"].degraded
