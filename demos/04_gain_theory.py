"""Propagation-gain formulas, their Monte Carlo check, and the
improvement certificate.

The gain of one masked propagation layer measures how much same-class
signal survives the neighborhood average. The closed forms here are
cheap to evaluate; the simulation brackets them with standard errors.
"""

from cdgnn.gains import (
    STDERR_MULTIPLE,
    GainParams,
    cumulative_gain_ratio,
    deep_layer_gain,
    default_grid_cells,
    effective_homophily,
    gain_improvement_check,
    monte_carlo_one_layer,
    one_layer_gain,
    theory_check_grid,
)


def main() -> None:
    # One layer, by hand: degree 3 at full edge weight, neighborhood
    # homophily mixed from a suspect part at 0.5 and a clean rest at 0.2.
    h = effective_homophily(subgraph_share=1 / 3, subgraph_homophily=0.5,
                            rest_homophily=0.2)
    g1 = one_layer_gain(degree=3, total_edge_weight=3.0,
                        cross_class_ratio=0.5, homophily=h)
    print(f"mixed homophily: {h:.4f}")
    print(f"one-layer gain:  {g1:.4f}")

    # The same quantity, simulated: the sampler draws the exact law of
    # the 200k samples' mean and standard error, not the samples.
    params = GainParams(degree=3, total_edge_weight=3.0,
                        cross_class_ratio=0.5, subgraph_share=1 / 3,
                        subgraph_homophily=0.5, rest_homophily=0.2)
    mc = monte_carlo_one_layer(params, subgraph_degree=1, rest_degree=2,
                               num_samples=200_000, seed=0)
    lo = mc.empirical - STDERR_MULTIPLE * mc.stderr
    hi = mc.empirical + STDERR_MULTIPLE * mc.stderr
    print(f"simulated: {mc.empirical:.4f} "
          f"({STDERR_MULTIPLE}-stderr bracket [{lo:.4f}, {hi:.4f}], "
          f"analytic inside: {mc.within()})")

    # The full 27-cell grid, at a lighter sample count than the tests use.
    # At 3 stderr a cell misses with probability 0.27%, so a 27-cell grid
    # reads 26/27 at about one seed in 14; seed 0 here is one of them (the
    # d=3, h=0.5, rho=0.5 cell lands 3.5 stderr out).
    grid = theory_check_grid(default_grid_cells(), num_samples=20_000, seed=0)
    print(f"grid: {grid.within_count}/{grid.total} cells within "
          f"{STDERR_MULTIPLE} stderr")

    # Deeper layers: the incoming signal is attenuated neighbor residue,
    # so the per-layer gain depends on the mean relative degree too.
    for rho in (0.0, 0.5, 1.0):
        gd = deep_layer_gain(degree=4, cross_class_ratio=rho, homophily=0.5,
                             mean_relative_degree=0.2)
        print(f"deep gain at cross-class ratio {rho}: {gd:.4f}")

    # The certificate: shrinking a suspect subgraph's dominance
    # (share 0.8 -> 0.05) when its homophily trails the rest by 0.5
    # must raise the effective homophily by a provable margin.
    before = GainParams(degree=5, total_edge_weight=5.0,
                        cross_class_ratio=0.5, subgraph_share=0.8,
                        subgraph_homophily=0.1, rest_homophily=0.6)
    after = GainParams(degree=5, total_edge_weight=5.0,
                       cross_class_ratio=0.5, subgraph_share=0.05,
                       subgraph_homophily=0.1, rest_homophily=0.6)
    report = gain_improvement_check(before, after, gap=0.5,
                                    estimate_error=0.05)
    print(f"\nimprovement certificate: assumptions met "
          f"{report.assumptions_met}, homophily gain "
          f"{report.homophily_gain:.4f} >= bound {report.homophily_bound:.4f} "
          f"-> improved {report.improved}")
    print(f"one-layer margin: {report.one_layer_margin:.4f} "
          f"(bound {report.one_layer_bound:.4f})")

    # Per-layer gains compound multiplicatively with depth.
    ratio = cumulative_gain_ratio(0.8, 0.4, depth=3)
    print(f"three layers at gain 0.8 vs 0.4: cumulative ratio {ratio:.1f}x")


if __name__ == "__main__":
    main()
