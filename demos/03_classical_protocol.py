"""Exact classical work extraction from the ground-state qubit.

Synthesizes a type-class shift for each n, evaluates the atypical mass exactly,
and shows the extraction rate approaching the free-energy limit from below.
"""

import math

import numpy as np

from thermoflux.extraction import (
    WorkAlphabet,
    bath_size,
    build_classical_plan,
    choose_shift,
    run_classical_plan,
)
from thermoflux.core import ThermalContext

ctx = ThermalContext(levels=(0, 1), beta=1.0)
alphabet = WorkAlphabet.from_context(ctx)
p = np.array([1.0, 0.0])
limit = math.log(1.0 + math.exp(-1.0))

print(f"Target rate D(p||t) = ln(1+e^-1) = {limit:.6f} nats per copy\n")
print("   n      shift        W      rate     xi")
for n in (50, 100, 200, 400):
    l = bath_size(n)
    h = choose_shift(p, alphabet, n, margin_nats=0.0, l=l)
    plan = build_classical_plan(p, alphabet, n, l, h, mode="exact")
    out = run_classical_plan(plan)
    print(
        f" {n:4d}   {str(h.shifts):>10s}   {out.extracted_work:5.0f}   "
        f"{out.rate_nats:.4f}   {plan.xi:.2e}"
    )
print("\nThe rate is monotone in n and the failure mass stays small: the")
print("protocol trades a vanishing infidelity for work approaching the bound.")
