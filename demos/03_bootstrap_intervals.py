"""Percentile bootstrap intervals for the effect estimates.

Units are resampled with replacement within each cross-fit fold and both
nuisance models are refit per replicate, so the intervals reflect model
estimation noise, not just the final averaging step. A resample only
changes cell counts, so the refits are count-based and batched: every
replicate's models are fitted from its counts in one stacked Newton solve.
"""

from medlang import bootstrap_effects, exact_effects, fit_models, generate, load_fixture


def main() -> None:
    spec = load_fixture("binary_scm")
    truth = exact_effects(spec)
    result = generate(spec, 5000, seed=11)
    g, f = fit_models(result.records, "hedging")  # the point models, fitted once
    est = bootstrap_effects(result.records, g, f, n_bootstrap=500, seed=3, ci_level=0.90)
    print(f"n_units {est.n_units}, replicates {est.n_bootstrap} "
          f"(dropped {est.n_dropped_replicates}, "
          f"intervals widened to their point {est.n_clamped_intervals})")
    print(f"nde {est.nde:+.4f}  90% ci [{est.nde_ci[0]:+.4f}, {est.nde_ci[1]:+.4f}]  "
          f"(true {truth.nde_true:+.4f})")
    print(f"nie {est.nie:+.4f}  90% ci [{est.nie_ci[0]:+.4f}, {est.nie_ci[1]:+.4f}]  "
          f"(true {truth.nie_true:+.4f})")
    print(f"total {est.total_effect:+.4f} = nde + reversed nie "
          f"({est.nde:+.4f} + {est.nie_reversed:+.4f})")
    print(f"\n{est.caveat}")


if __name__ == "__main__":
    main()
