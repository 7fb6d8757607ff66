#!/usr/bin/env python
"""Model comparison: one measured program priced under QSM, BSP and LogP.

Runs list ranking on the simulated machine, turns its measured phase
log into a :class:`~repro.predict.PhaseProfile`, and prices the run's
communication with three registered prediction models — the number of
parameters each model asks you to know is the §2.1 difference:

* ``qsm-observed`` (p, g): each phase's busiest processor's remote
  words at the effective per-word gap;
* ``bsp-observed`` (p, g, L): the same plus one barrier ``L`` per phase;
* ``logp`` (p, l, o, g): per-message costs, with one message per peer
  in each phase that moves remote words.

Run:  python examples/model_comparison.py
"""

import dataclasses

from repro.algorithms import make_random_list, run_list_ranking
from repro.predict import PhaseProfile, evaluate
from repro.qsmlib import QSMMachine, RunConfig
from repro.util.tables import format_table

MODELS = {
    "qsm-observed": "(p, g)",
    "bsp-observed": "(p, g, L)",
    "logp": "(p, l, o, g)",
}


def main() -> None:
    config = RunConfig(seed=5, check_semantics=False, track_kappa=True)
    qm = QSMMachine(config)
    costs = qm.cost_model()
    p = qm.p

    n = 40000
    run = run_list_ranking(make_random_list(n, seed=5), config).run
    observed = PhaseProfile.from_run(run, algo="listrank")
    # LogP prices messages: one per peer in each phase with traffic.
    per_message = dataclasses.replace(
        observed,
        phases=tuple(
            dataclasses.replace(ph, messages=float(p - 1) if ph.m_rw else 0.0)
            for ph in observed.phases
        ),
    )

    measured = run.comm_cycles
    ratio = {}
    rows = []
    for name, params in MODELS.items():
        profile = per_message if name == "logp" else observed
        cost = evaluate(name, profile, costs).comm_cycles
        ratio[name] = cost / measured
        rows.append([f"{name} {params}", round(cost), f"{ratio[name]:.2f}"])
    rows.append(["measured comm (DES)", round(measured), "1.00"])

    print(format_table(
        ["model (parameters)", "predicted comm cycles", "vs measured"],
        rows,
        title=f"List ranking, n={n}, p={p}: one run's communication under three models",
    ))
    print(f"\nphases: {run.n_phases}; max kappa observed: "
          f"{max(ph.kappa for ph in run.phases)}")
    print(
        "\nReading: from the words each phase moves, QSM's two parameters price\n"
        f"{ratio['qsm-observed']:.0%} of the measured communication, and BSP's barrier L per\n"
        f"phase brings that to {ratio['bsp-observed']:.0%}. Most of the rest is per-phase cost\n"
        "neither charges: the plan exchange, per-message overhead and latency.\n"
        f"LogP, with four parameters, prices {ratio['logp']:.0%}: it charges one gap per\n"
        "message, and each bulk message here carries many words. For this\n"
        "bulk-synchronous code the words per phase (m_rw) set the cost."
    )


if __name__ == "__main__":
    main()
