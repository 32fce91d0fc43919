"""Tests of the benchmark's tracer, on one op of every workload.

    python3 -m pytest -q perfbench
"""

import json
import sys
import types

import pytest

import tracer as tracing
import workloads

workloads.import_cdgnn()

import cdgnn  # noqa: E402
from cdgnn import autodiff, harness, models  # noqa: E402

BENCHMARK = workloads.ROOT / "BENCHMARK.json"


def _cdgnn_attributes() -> dict:
    """(owner, attribute) -> object for every loaded cdgnn module and the
    traced methods' classes."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if name == "cdgnn" or name.startswith("cdgnn."):
            for attr, value in vars(module).items():
                snap[(name, attr)] = value
    for short, cls_name, method in tracing.METHODS:
        cls = getattr(sys.modules[f"cdgnn.{short}"], cls_name)
        snap[(cls_name, method)] = vars(cls)[method]
    return snap


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def op_pair(request, tmp_path_factory):
    """The same op run untraced, then traced (seed 0)."""
    workload = workloads.WORKLOADS[request.param]
    inputs = workload.setup(0)
    workdir = tmp_path_factory.mktemp(request.param)
    workloads.reset_workdir(workdir)
    plain = workload.check(workload.run(inputs, 0, workdir), 0, workdir)
    tracer = tracing.Tracer()
    workloads.reset_workdir(workdir)
    with tracer.installed(), tracer.op(1):
        raw = workload.run(inputs, 0, workdir)
    traced = workload.check(raw, 0, workdir)
    return plain, traced, tracer


def test_traced_op_has_the_untraced_record_hashes(op_pair):
    plain, traced, _ = op_pair
    assert plain.problems == [] and traced.problems == []
    assert traced.hashes == plain.hashes
    assert traced.test_acc == plain.test_acc


def test_spans_form_one_tree_per_op(op_pair):
    _, _, tracer = op_pair
    roots = {}
    for index, (name_id, start, end, parent, op) in enumerate(tracer.spans):
        assert start <= end
        if parent == -1:
            assert tracer.names[name_id] == tracing.OP_SPAN
            assert op not in roots, "two roots in one op"
            roots[op] = index
            continue
        p_name, p_start, p_end, _, p_op = tracer.spans[parent]
        assert parent < index and p_op == op
        assert p_start <= start and end <= p_end
    assert set(roots) == {1}


def test_self_times_cover_the_op(op_pair):
    _, _, tracer = op_pair
    assert min(tracer.self_times()) >= 0
    layers = tracer.layer_seconds()[1]
    assert all(v >= 0 for v in layers.values())
    assert sum(layers.values()) >= 0.9 * tracer.op_wall(1)


def test_every_per_layer_metric_is_computed(op_pair):
    _, _, tracer = op_pair
    values = tracer.layer_values([1], [tracer.op_wall(1)])
    spec = json.loads(BENCHMARK.read_text())
    assert {m["name"] for m in spec["per_layer"]} <= set(values)
    assert all(v >= 0 for k, v in values.items() if k != "trace_overhead_s")


def test_install_rebinds_every_alias_and_uninstall_restores_all():
    before = _cdgnn_attributes()
    originals = (harness.build_ego_cache, models.build_ego_cache,
                 autodiff.matmul, cdgnn.run_experiment)
    tracer = tracing.Tracer()
    with tracer.installed():
        during = _cdgnn_attributes()
        wrapped = {id(w.__wrapped__) for w in during.values()
                   if isinstance(w, types.FunctionType) and hasattr(w, "__wrapped__")}
        for key, value in before.items():
            if isinstance(value, types.FunctionType) and id(value) in wrapped:
                assert during[key] is not value, f"{key} still bound to the original"
        assert harness.build_ego_cache is not originals[0]
        assert harness.build_ego_cache is models.build_ego_cache
        assert autodiff.matmul is not originals[2]
        assert cdgnn.run_experiment is harness.run_experiment
        assert harness.RunRecord.save.__wrapped__ is before[("RunRecord", "save")]
    after = _cdgnn_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert (harness.build_ego_cache, models.build_ego_cache, autodiff.matmul,
            cdgnn.run_experiment) == originals
