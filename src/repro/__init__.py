"""OddCI: On-Demand Distributed Computing Infrastructure — reproduction.

A full Python implementation of the OddCI architecture (Costa,
Brasileiro, Lemos Filho, Mariz Sousa — SC/MTAGS 2009) and every
substrate it runs on:

* :mod:`repro.sim` — discrete-event simulation kernel.
* :mod:`repro.net` — broadcast channel (β) + direct channels (δ) +
  signed control messages.
* :mod:`repro.carousel` — DSM-CC object carousel.
* :mod:`repro.dtv` — transport stream, AIT, Xlets, set-top boxes.
* :mod:`repro.core` — the OddCI architecture: Provider, Controller,
  Backend, PNA and its DVE, a slot of the job's task engine
  (:class:`repro.core.OddCISystem` wires a generic deployment).
* :mod:`repro.dtv_oddci` — OddCI-DTV: the PNA as an AUTOSTART Xlet
  (:class:`repro.dtv_oddci.OddCIDTVSystem`).
* :mod:`repro.vector` — array-based tier for millions of nodes.
* :mod:`repro.workloads` — jobs, bag-of-tasks generators, mini-BLAST,
  device models, churn traces.
* :mod:`repro.baselines` — voluntary computing / desktop grid / IaaS
  comparators.
* :mod:`repro.analysis` — the Section 5 closed-form models and stats.
* :mod:`repro.experiments` — one driver per paper table/figure.

Quickstart::

    from repro.core import OddCISystem
    from repro.workloads import uniform_bag

    system = OddCISystem(seed=42)
    system.add_pnas(10)
    job = uniform_bag(100, ref_seconds=5.0)
    submission = system.provider.submit_job(job, target_size=10)
    report = system.provider.run_job_to_completion(submission)
    print(report.makespan)
"""

from repro._version import __version__

__all__ = ["__version__"]
