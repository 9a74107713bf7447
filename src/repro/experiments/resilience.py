"""Robustness extension: the fault-injection resilience sweep.

Not a paper artifact — the paper claims bit accuracy assuming the bits
hold; this experiment measures what the reproduction's protection
machinery does when they do not.  A seeded campaign strikes single-bit
transients into the packed state memory (parity protected, checked at
every bank swap) and the link memory (unprotected, but self-healing
under the HBR protocol), plus one livelock-inducing flap fault, and
the platform controller's checkpoint/rollback recovery cleans up.

Expected outcome, deterministic per seed:

* state-memory faults: 100% detected (parity catches every odd-weight
  corruption), recovered by rollback;
* link-memory transients: mostly *absorbed* — the writer republishes
  the uncorrupted value, the HBR protocol destabilises the reader, and
  the cycle reconverges to the fault-free fixed point;
* the flap fault: detected by the convergence watchdog, its link
  quarantined, traffic rerouted.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from repro.faults import CampaignConfig, ResilienceReport, run_campaign, run_campaigns


def run(
    n_faults: int = 60,
    seed: int = 1,
    width: int = 4,
    height: int = 4,
    topology: str = "torus",
    load: float = 0.10,
    include_flap: bool = True,
    config: Optional[CampaignConfig] = None,
) -> ResilienceReport:
    cfg = config or CampaignConfig(
        width=width,
        height=height,
        topology=topology,
        n_faults=n_faults,
        seed=seed,
        load=load,
        include_flap=include_flap,
    )
    return run_campaign(cfg)


def run_sweep(
    seeds: Sequence[int],
    base: Optional[CampaignConfig] = None,
    workers: Optional[int] = None,
) -> List[ResilienceReport]:
    """One campaign per seed, fanned out over worker processes.

    Each campaign is a pure function of its config, so the reports
    arrive in seed order and match the serial run byte for byte —
    detection *rates* vary per seed, which is the point: the sweep
    turns the single-campaign anecdote into a distribution.
    """
    base = base or CampaignConfig(n_faults=60, include_flap=True)
    configs = [replace(base, seed=seed) for seed in seeds]
    return run_campaigns(configs, workers=workers)


def main() -> None:
    report = run()
    print(report.render())
    print()
    state_rate = report.per_domain.get("state", (0, 0))
    print(
        "parity-protected state words: "
        f"{state_rate[0]}/{state_rate[1]} corruptions detected "
        "(expected: all — parity catches every odd-weight upset)"
    )
    print(
        "undetected link transients are absorbed by HBR reconvergence: "
        "the writer republishes the clean value and the reader re-evaluates."
    )


if __name__ == "__main__":
    main()
