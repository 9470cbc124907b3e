"""Exact oracle vs the sample-average estimators on synthetic data.

Loads the shipped binary structural-model fixture, computes the true
direct/indirect/total effects two independent ways (exact enumeration and
counterfactual Monte Carlo), then checks that the cross-fitted plug-in
estimators land within a hair of the truth at N = 50,000.
"""

from medlang import (exact_effects, fit_models, generate, load_fixture, monte_carlo_effects,
                     sample_effects)


def main() -> None:
    spec = load_fixture("binary_scm")
    exact = exact_effects(spec)
    print("exact enumeration oracle:")
    print(f"  nde {exact.nde_true:+.5f}  nie {exact.nie_true:+.5f}  te {exact.te_true:+.5f}")

    mc = monte_carlo_effects(spec, n_draws=2_000_000, seed=1)
    print("counterfactual monte carlo (2e6 draws):")
    print(f"  nde {mc.nde:+.5f}  nie {mc.nie:+.5f}  te {mc.te:+.5f}")

    result = generate(spec, 50000, seed=7)
    g, f = fit_models(result.records, "hedging")
    nde, nie, _, te = sample_effects(result.records, g, f)
    print("cross-fitted sample-average estimates (N = 50,000):")
    print(f"  nde {nde:+.5f}  nie {nie:+.5f}  te {te:+.5f}")
    print(f"  errors: nde {abs(nde - exact.nde_true):.5f}  "
          f"nie {abs(nie - exact.nie_true):.5f}  te {abs(te - exact.te_true):.5f}")


if __name__ == "__main__":
    main()
