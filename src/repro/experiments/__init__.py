"""Experiment harnesses regenerating every figure/theorem of the paper.

One module per experiment (see DESIGN.md §5 and EXPERIMENTS.md):

- E1 — Theorem 1 / Figure 1: stripe impossibility vs budget ``m``;
- E2 — Figure 2: the exact ``r=4, t=1, mf=1000, m=m0+1=59`` stall, plus
  a generalized ``(m, mf)`` sweep of the corner-starvation construction;
- E3 — Theorem 2: protocol B succeeds at ``m = 2*m0``;
- E4 — §3 comparison against the Koo et al. repetition baseline;
- E5 — Theorem 3 / Figure 5: heterogeneous budgets;
- E6 — §5 / Figure 9: coding overhead and attack success rates;
- E7 — Theorem 4: B_reactive reliability and message cost;
- E8 — Corollary 1: empirical feasibility boundary in (t, m);
- E9 — design ablations (concerted relays, growth shape, quiet window);
- E10–E13 — extensions: open region, refined coding cost, crash
  failures, sub-bit link validation.

Every module is addressable through :mod:`repro.experiments.registry`
and exposes the uniform entry points the registry expects —
``run(*, workers=1, cache=None, progress=None)`` returning a result
dataclass and ``table(result)`` rendering the regenerated rows. Point
lists execute on :func:`repro.runner.parallel.sweep`, so any experiment
fans out over worker processes and memoizes per-point results without
harness-specific code; the classic ``run_*`` functions remain for tests
and programmatic use.
"""
