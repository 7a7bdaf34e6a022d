"""The paper's contribution: cross-simulations between BSP and LogP.

* :mod:`repro.core.logp_on_bsp` — Theorem 1 (LogP simulated on BSP),
* :mod:`repro.core.cb` — Section 4.1 Combine-and-Broadcast / barrier,
* :mod:`repro.core.det_routing` — Section 4.2 deterministic h-relations,
* :mod:`repro.core.rand_routing` — Section 4.3 randomized h-relations,
* :mod:`repro.core.bsp_on_logp` — Theorems 2/3 (BSP simulated on LogP),
* :mod:`repro.core.stalling` — Sections 2/3 stalling analysis,
* :mod:`repro.core.network_support` — Section 5 / Observation 1.

Each submodule's driver (``repro.core.bsp_on_logp.simulate_bsp_on_logp``
etc.) is what the :class:`~repro.engine.stack.Stack` adapters call; the
public way to compose the simulations is the Stack API::

    Stack(prog).on_logp(params).run()                    # Theorem 2/3
    Stack(prog, model="logp", params=P).on_bsp().run()   # Theorem 1
"""
