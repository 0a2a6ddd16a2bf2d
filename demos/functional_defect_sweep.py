"""Why the objective was changed: sweep the death rate under both forms.

The widespread "legacy" objective integrates c1*I + c3*u1^2 + c2*u2^2.
Its defect: a deadlier virus empties the infected compartment faster, so
the optimal cost DROPS as the death rate alpha rises, rewarding exactly
the outcome one wants to avoid.  The corrected objective prices the
destroyed nodes themselves, c1*u1^2 + c2*u2^2 + c3*alpha*I, and rises
with alpha instead at the price used below, c3 = 10 per destroyed node.
That holds only while deaths are priced high enough: at c3 = 0.1 the
corrected optimum also falls, from 1.638 to 1.192 over alpha 0.3-1.0,
and at alpha 0.5 the sign changes at c3 = 0.4875.

Both problems are solved at every alpha below; watch the two columns
move in opposite directions.
"""

import numpy as np

from sircontrol import BASELINE, sweep_alpha

alphas = [float(a) for a in np.linspace(0.05, 0.5, 10)]
rows = sweep_alpha(BASELINE, alphas)

print("alpha   corrected objective   legacy objective   destroyed nodes D(T)")
for row in rows:
    print(f"{row.alpha:5.2f}   {row.objective_new:19.6f}   {row.objective_legacy:16.6f}"
          f"   {row.defective_terminal_new:20.6f}")

legacy = [row.objective_legacy for row in rows]
corrected = [row.objective_new for row in rows]
print(f"\nlegacy objective falls as alpha rises:     "
      f"{all(b < a for a, b in zip(legacy, legacy[1:]))}")
print(f"corrected objective rises as alpha rises:  "
      f"{all(b >= a for a, b in zip(corrected, corrected[1:]))}")
