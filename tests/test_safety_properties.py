"""Cross-cutting safety properties, property-based where practical.

The paper's correctness lemma (no good node ever accepts a wrong value)
must hold for *every* adversary within the model. We generate random
scenario shapes — placement seeds, budgets, behaviors, protocols — and
assert the invariants after each run:

- no wrong acceptance (Lemma 1 analogue, all protocols except the
  deliberately-broken plain CPA under spoofing);
- no node exceeds its message budget;
- decided nodes hold ``Vtrue``;
- runs are deterministic functions of their configuration.
"""

from hypothesis import given, settings, strategies as st

from repro.adversary.placement import RandomPlacement
from repro.network.grid import GridSpec
from repro.scenario import ScenarioSpec, run

GRID = GridSpec(width=12, height=12, r=1, torus=True)

scenario = st.fixed_dictionaries(
    {
        "t": st.integers(1, 2),
        "mf": st.integers(0, 4),
        "m": st.integers(1, 8),
        "bad_count": st.integers(0, 12),
        "seed": st.integers(0, 10**6),
        "protocol": st.sampled_from(["b", "koo", "heter"]),
        "behavior": st.sampled_from(["jam", "lie", "none"]),
    }
)


def run_scenario(cfg):
    return run(
        ScenarioSpec(
            grid=GRID,
            t=cfg["t"],
            mf=cfg["mf"],
            placement=RandomPlacement(
                t=cfg["t"], count=cfg["bad_count"], seed=cfg["seed"]
            ),
            protocol=cfg["protocol"],
            behavior=cfg["behavior"],
            m=cfg["m"] if cfg["protocol"] != "heter" else None,
            batch_per_slot=4,
        )
    )


@settings(max_examples=25, deadline=None)
@given(scenario)
def test_no_wrong_acceptance_under_any_generated_adversary(cfg):
    report = run_scenario(cfg)
    assert report.outcome.wrong_good == 0


@settings(max_examples=25, deadline=None)
@given(scenario)
def test_budgets_never_exceeded(cfg):
    report = run_scenario(cfg)
    for nid in range(report.grid.n):
        budget = report.ledger.budget_of(nid)
        if budget is not None:
            assert report.ledger.sent(nid) <= budget


@settings(max_examples=10, deadline=None)
@given(scenario)
def test_runs_are_deterministic(cfg):
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert a.outcome == b.outcome
    assert a.stats.honest_transmissions == b.stats.honest_transmissions
    assert a.stats.byzantine_transmissions == b.stats.byzantine_transmissions


@settings(max_examples=8, deadline=None)
@given(
    st.integers(0, 5),  # placement seed
    st.integers(0, 3),  # run seed
    st.integers(1, 3),  # mf
)
def test_reactive_safety_with_recommended_code(placement_seed, seed, mf):
    report = run(
        ScenarioSpec(
            grid=GRID,
            t=1,
            mf=mf,
            mmax=10**4,
            placement=RandomPlacement(t=1, count=6, seed=placement_seed),
            protocol="reactive",
            seed=seed,
        )
    )
    # With the recommended code length, forgery probability is ~1e-7 per
    # attack: these runs must deliver everywhere, correctly.
    assert report.outcome.wrong_good == 0
    assert report.success
