"""Fig. 9: per-layer down/up-sampling latency in PointNet++(s).

Paper result (PointNet++ on ScanNet): the first SA module's
down-sampling layer and the last FP module's up-sampling layer
dominate the sampling latency; applying the Morton sampler to those
two layers accelerates them by 10.6x and 5.2x respectively.
"""

from conftest import print_header

from repro.analysis import format_layer_latencies
from repro.runtime import CostModel, xavier
from repro.workloads import standard_workloads, trace

SAMPLE_OPS_DOWN = (
    "fps", "fps_fast", "morton_gen", "morton_sort", "uniform_pick",
)
SAMPLE_OPS_UP = ("interp_exact", "interp_grid", "interp_morton")


def _layer_times(recorder, ops, cost):
    times = {}
    for event in recorder:
        if event.op in ops:
            times[event.layer] = times.get(event.layer, 0.0) + (
                cost.price(event)
            )
    return times


def test_fig9_per_layer_sampling_latency(
    benchmark, baseline_config, edgepc_config
):
    spec = standard_workloads()["W2"]  # PointNet++(s) / ScanNet
    cost = CostModel(xavier())

    base_trace = trace(spec, baseline_config)
    opt_trace = benchmark(lambda: trace(spec, edgepc_config))

    base_down = _layer_times(base_trace, SAMPLE_OPS_DOWN, cost)
    opt_down = _layer_times(opt_trace, SAMPLE_OPS_DOWN, cost)
    base_up = _layer_times(base_trace, SAMPLE_OPS_UP, cost)
    opt_up = _layer_times(opt_trace, SAMPLE_OPS_UP, cost)

    print_header(
        "Fig. 9: PointNet++(s)/ScanNet per-layer sampling latency "
        "(ms per batch)"
    )
    print(f"{'Layer':<8}{'baseline':>12}{'EdgePC':>12}{'speedup':>10}")
    for layer in sorted(base_down):
        b, o = base_down[layer], opt_down[layer]
        print(
            f"SA{layer} dn{b * 1e3:>11.2f}{o * 1e3:>12.2f}"
            f"{b / o:>9.1f}x"
        )
    for layer in sorted(base_up):
        b, o = base_up[layer], opt_up[layer]
        print(
            f"FP{layer} up{b * 1e3:>11.2f}{o * 1e3:>12.2f}"
            f"{b / o:>9.1f}x"
        )

    # Shape 1: SA1's down-sample and FP4's up-sample dominate their
    # stages in the baseline.
    assert base_down[0] == max(base_down.values())
    assert base_up[3] == max(base_up.values())
    # Shape 2: the optimized layers hit the paper's speedups
    # (10.6x down, 5.2x up) within a modest band.
    down_speedup = base_down[0] / opt_down[0]
    up_speedup = base_up[3] / opt_up[3]
    print(
        f"\nSA1 down speedup {down_speedup:.1f}x (paper 10.6x), "
        f"FP4 up speedup {up_speedup:.1f}x (paper 5.2x)"
    )
    assert 7.0 < down_speedup < 16.0
    assert 3.5 < up_speedup < 8.0
    # Shape 3: unoptimized layers are untouched.
    for layer in (1, 2, 3):
        assert opt_down[layer] == base_down[layer]
    for layer in (0, 1, 2):
        assert opt_up[layer] == base_up[layer]
