"""Composite corrected trapezoid with an a priori error certificate.

Per subinterval of width w the remainder identity gives

    |error| <= w^4/384 * (|f'''(left)| + |f'''(right)|)

when |f'''| satisfies the chord condition on the subinterval.  Summing
the local bounds certifies the composite value before any reference
computation.  The certificate decays like n^-3 on a fixed segment.
"""

import numpy as np

from etaquad import PathSegment, integrate_certified, parse, true_error

f = parse("exp(x)")
seg = PathSegment(0.0, 1.0)

print(" n      value            certificate    actual error")
certs = []
ns = [8, 16, 32, 64, 128, 256]
for n in ns:
    res = integrate_certified(f, seg, fixed_n=n, mode="hypothesis")
    err = abs(true_error(f, res))
    certs.append(res.certificate)
    print(f"{n:>4}  {res.value:.12f}  {res.certificate:.3e}      {err:.3e}")

slope = np.polyfit(np.log(ns), np.log(certs), 1)[0]
print(f"\ncertificate slope: {slope:.4f}  (n^-3 expected)")

# adaptive mode bisects every subinterval whose bound exceeds its width's
# share of the target, one level at a time
res = integrate_certified(f, seg, target=1e-9, mode="hypothesis")
print(f"\nadaptive: n={res.n}, certificate={res.certificate:.3e}")
widths = np.sort(np.abs(res.right - res.left))
print(f"widths range from {widths[0]:.4f} to {widths[-1]:.4f}")

# sup mode encloses f''' on each whole subinterval with interval arithmetic
# instead of trusting the chord hypothesis
res = integrate_certified(f, seg, fixed_n=64, mode="sup")
print(f"\nsup-mode certificate at n=64: {res.certificate:.3e}")
