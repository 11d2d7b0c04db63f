"""Re-record ``reference.json``: pinned digests and the d = 3 Gram minima.

    python3 perfbench/record_reference.py

The d = 3 minima of <(x1^2 + x2^2) f, f> / <f, f> over degree-m homogeneous
f on the sphere have no closed form.  They are computed here independently of
the package: exact monomial moments, then a Cholesky reduction and symmetric
eigensolve in 50-digit ``mpmath``.  The digests are those of the reference
block of each workload, read from one plain repetition of the current code.
Re-record only when a change is meant to alter exact outputs, and say so.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

GRAM3_DEGREES = range(3, 9)


def _moment(alpha: tuple) -> Fraction:
    """Integral of theta^alpha over S^2 divided by the surface area."""
    if any(a % 2 for a in alpha):
        return Fraction(0)
    numerator = 1
    for a in alpha:
        for odd in range(a - 1, 0, -2):
            numerator *= odd
    denominator = 1
    for j in range(sum(alpha) // 2):
        denominator *= 3 + 2 * j
    return Fraction(numerator, denominator)


def gram3_min_eigenvalue(degree: int) -> float:
    import mpmath

    mpmath.mp.dps = 50
    basis = workloads._monomials(3, degree)
    size = len(basis)
    gram = mpmath.matrix(size, size)
    form = mpmath.matrix(size, size)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            paired = tuple(x + y for x, y in zip(a, b))
            value = _moment(paired)
            gram[i, j] = mpmath.mpf(value.numerator) / value.denominator
            total = sum(_moment(tuple(p + g for p, g in zip(paired, gamma)))
                        for gamma in workloads.X1SQ_X2SQ)
            form[i, j] = mpmath.mpf(total.numerator) / total.denominator
    lower = mpmath.cholesky(gram)
    inverse = lower**-1
    reduced = inverse * form * inverse.T
    reduced = (reduced + reduced.T) / 2
    return float(min(mpmath.eigsy(reduced, eigvals_only=True)))


def _write(reference: dict) -> None:
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main() -> int:
    reference = dict(workloads.load_reference())
    reference["gram3_min_eigenvalue"] = {
        str(m): gram3_min_eigenvalue(m) for m in GRAM3_DEGREES
    }
    _write(reference)  # the repetitions below read it
    import run

    digests = {}
    for workload in workloads.WORKLOADS:
        rep = run.run_child(workload, 0, "plain",
                            os.path.join(run.ROOT, ".bench_build", "perfbench", "record"))
        if rep["failures"]:
            print("\n".join(rep["failures"]), file=sys.stderr)
            return 1
        digests[workload] = rep["reference_digest"]
    reference["digests"] = digests
    _write(reference)
    return 0


if __name__ == "__main__":
    sys.exit(main())
