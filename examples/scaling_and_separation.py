"""Scaling study driven by the experiments subsystem, plus the separation.

Part 1 runs the ``scaling`` suite (transforms and direct baselines on
growing random trees) at reduced sizes through :class:`SweepRunner` with
``jobs=4`` — the runner opens a worker pool for the sweep and ships it one
cell per task — and rebuilds the scaling table and the per-scenario
log-power fits from the stored JSONL records.

Part 2 works purely in the complexity model: it evaluates the Theorem 1
prediction ``f(g(n)) + log* n`` for several truly local complexities ``f``
and compares them against the ``Θ(log n / log log n)`` barrier that MIS and
maximal matching cannot beat on trees — the separation that Theorem 3
establishes for edge colouring.  The ``β < 1`` fit itself ships as the
``theorem3-shape/predicted`` cells of the ``paper-claims`` suite.

Run with::

    python examples/scaling_and_separation.py
"""

import tempfile

import _path  # noqa: F401

from repro.analysis import MeasurementTable, fit_power_of_log
from repro.core.complexity import (
    linear,
    mm_mis_tree_bound_from_log2,
    polylog,
    predicted_rounds_tree_from_log2,
    sqrt_delta_log,
)
from repro.experiments import ResultStore, SweepRunner, build_report, get_suite


def measured_scaling() -> None:
    suite = get_suite("scaling")
    with tempfile.TemporaryDirectory(prefix="repro-scaling-") as directory:
        store = ResultStore(directory)
        runner = SweepRunner(
            suite, store, jobs=4, sizes=(100, 300, 1000), seeds=(17,)
        )
        report = runner.run()
        assert report.ok, f"sweep failed: {report.failures or report.unverified}"
        bundle = build_report(store.records())
    print(bundle.scaling.render())
    print()
    print(bundle.fits.render())
    print()


def analytic_separation() -> None:
    complexities = {
        "f(Δ)=Δ (MIS / matching, tight)": linear(),
        "f(Δ)=√Δ·logΔ ((Δ+1)-colouring, MT20)": sqrt_delta_log(),
        "f(Δ)=log²Δ (hypothetical)": polylog(2),
        "f(Δ)=log¹²Δ (edge colouring, BBKO22b)": polylog(12),
    }
    exponents = [16, 64, 256, 4096, 10**6, 10**12, 10**24, 10**36]
    table = MeasurementTable(
        "Theorem 1 prediction f(g(n)) + log* n versus the log n / log log n barrier "
        "(n = 2^L, values in rounds)",
        ["L = log2 n", "barrier"] + list(complexities),
    )
    for exponent in exponents:
        row = [f"1e{len(str(exponent)) - 1}" if exponent >= 10**6 else exponent,
               round(mm_mis_tree_bound_from_log2(float(exponent)), 1)]
        for f in complexities.values():
            row.append(round(predicted_rounds_tree_from_log2(f, float(exponent)), 1))
        table.add_row(*row)
    print(table.render())

    # The growth exponent beta of "rounds ~ (log n)^beta" for the edge
    # colouring prediction (Theorem 3: beta = 12/13 ~ 0.923), fitted over
    # float-representable n = 2^L — the same fit `report` runs on the
    # stored theorem3-shape cells.
    exponents = [64, 128, 256, 512, 1000]
    ns = [2.0**L for L in exponents]
    values = [predicted_rounds_tree_from_log2(polylog(12), float(L)) for L in exponents]
    beta, _ = fit_power_of_log(ns, values)
    print(
        f"\nfitted growth exponent of the log^12-based prediction: "
        f"{beta:.3f} (Theorem 3: 12/13 = {12 / 13:.3f})"
    )


def main() -> None:
    measured_scaling()
    analytic_separation()


if __name__ == "__main__":
    main()
