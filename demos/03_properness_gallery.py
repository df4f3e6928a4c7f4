"""Three instances through the full check battery.

Properness — at every point where consecutive components separate, the
slope sum of the bottom group on the left never exceeds the one on the
right — can be confirmed several ways, and the battery reports each route
separately:

  * the direct definition, decided by the node ordering v_r >= u_r at
    every node r whose weight pair alpha_{r mod l} + beta_{r mod m} is
    positive, the only places where a bottom slope sum can fall,
  * a one-sided ratio test on the expansion schedule,
  * a per-step termwise bound,
  * a closed-form per-factor bound available when m = 1.

The one-sided tests can come back NOT-SUFFICIENT on instances that are
perfectly proper; only the hard checks gate the overall verdict.
"""

import regraph as rg


def show(title, g):
    print(f"\n=== {title} ===")
    report = rg.run_all_checks(g)
    for line in report.lines():
        print(" ", line)
    print("  overall:", "ok" if report.ok else "NOT ok")


# A comfortably proper instance: every factor is large.
show(
    "wide factors (proper, ratio test conclusive)",
    rg.build_graph(
        rg.validate_weights(2, 1, (1.0, 2.0), (3.0,)),
        rg.ExpansionSchedule.from_factors([2.6, 2.9]),
    ),
)

# The reference instance: proper, but the ratio test is inconclusive —
# it demands (psi^n + 1)/(psi^l + psi^m) to clear the worst pair-sum ratio,
# and cube-root-of-2 factors fall short even though v_r > u_r throughout.
show(
    "cube-root factors (proper, ratio test inconclusive)",
    rg.build_graph(
        rg.validate_weights(3, 2, (0.5, 1.0, 1.5), (2.0, 1.0)),
        rg.ExpansionSchedule.from_factors([rg.PowerForm(2.0, 1, 3)] * 6),
    ),
)

# Factors barely above 1 with lopsided weights: the upper node family dips
# below the lower one and the component gap inverts — a genuine failure.
show(
    "near-unit factors (improper)",
    rg.build_graph(
        rg.validate_weights(3, 2, (2.7, 2.3, 0.7), (1.46, 4.24)),
        rg.ExpansionSchedule.from_factors(
            [1.0013, 1.0412, 1.0401, 1.0239, 1.0158, 1.0146]
        ),
    ),
)
