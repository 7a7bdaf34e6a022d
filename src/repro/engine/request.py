"""The versioned run-request schema: one public entry point for chains.

Before this module, several call sites each assembled Stack chains from
ad-hoc keyword arguments: the CLI's ``inspect`` subcommand, the campaign
targets, and anything scripting :class:`~repro.engine.stack.Stack` by
hand.  :class:`RunRequest` replaces those with a single
JSON-serializable schema — chain spec, named program, processor count,
topology, parameter overrides, seed, kernel, obs flags — so a request
can cross a socket, live in a campaign grid point, or be cached under a
content-addressed key, and always name the exact same computation::

    req = RunRequest(chain="bsp-on-logp-on-network", p=8, kernel="tick")
    result = Stack.from_request(req).run()
    req == Stack.from_request(req).to_request()          # round-trips
    RunRequest.from_dict(req.to_dict()) == req           # and as JSON

The schema is versioned; a request stamped with a newer version than
this reader understands is rejected loudly instead of being
misinterpreted.  Version 2 adds the ``workload``/``args`` fields: a
request may name a :mod:`repro.workloads` registry entry (with its
program parameters in ``args``) instead of a fixed demo program, so any
registered workload is resolvable by the service, the campaign
``request`` target, and the CLI through the same path.  Version-1
documents remain readable (they simply have no workload).  ``RunRequest.key(fingerprint)`` is the request's
content-addressed cache identity — the same
:func:`~repro.campaign.spec.point_key` machinery campaign points use, so
the campaign cache and the service cache (:mod:`repro.service`) are one
namespace.

Everything here is intake plumbing: imports are lazy so the module
costs nothing until a request is actually built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ParameterError, ProgramError

__all__ = [
    "REQUEST_VERSION",
    "RunRequest",
    "parse_chain",
    "request_programs",
    "build_stack",
]

#: Newest request schema version this reader understands.
REQUEST_VERSION = 2

#: Parameter-override keys a request may carry (guest/host model knobs).
PARAM_KEYS = ("L", "o", "G", "g", "l")

#: Default model parameters a request's overrides are merged onto —
#: identical to the CLI ``inspect`` demo machines, so a bare request
#: reproduces ``python -m repro.experiments inspect <chain>`` exactly.
DEFAULT_PARAMS = {"L": 8, "o": 1, "G": 2, "g": 2, "l": 16}

DEFAULT_TOPOLOGY = "hypercube (multi-port)"


def parse_chain(spec: str) -> tuple[str, list[str]]:
    """``"bsp-on-logp-on-network"`` -> ``("bsp", ["logp", "network"])``.

    A bare model name (``"bsp"``, ``"logp"``) means a native run on that
    model's own machine.  ``"bsp-on-dist"`` names the real-process
    socket backend (:mod:`repro.dist`).
    """
    tokens = spec.strip().lower().replace("_", "-").split("-on-")
    guest, hosts = tokens[0], tokens[1:]
    if guest not in ("bsp", "logp"):
        raise ParameterError(f"unknown guest model {guest!r} (use 'bsp' or 'logp')")
    bad = [t for t in hosts if t not in ("bsp", "logp", "network", "dist")]
    if bad:
        raise ParameterError(
            f"unknown host layer(s) {bad} (use bsp/logp/network/dist)"
        )
    return guest, hosts or [guest]


def request_programs(guest: str) -> dict[str, Any]:
    """Named guest programs a request may ask for, per guest model.

    Every factory takes ``(p, seed)`` and returns the program in the
    guest model's coroutine dialect; sizes are canonical small problems
    so request records stay cheap and deterministic.  ``"default"``
    resolves to the same demo programs the CLI ``inspect`` command runs.
    """
    from repro.programs import (
        bsp_fft_program,
        bsp_matvec_program,
        bsp_prefix_program,
        bsp_radix_sort_program,
        bsp_sample_sort_program,
        logp_alltoall_program,
        logp_broadcast_program,
        logp_ring_program,
        logp_sum_program,
    )

    if guest == "bsp":
        return {
            "prefix": lambda p, seed: bsp_prefix_program(),
            "radix-sort": lambda p, seed: bsp_radix_sort_program(8, 8, seed=seed),
            "sample-sort": lambda p, seed: bsp_sample_sort_program(8, seed=seed),
            "matvec": lambda p, seed: bsp_matvec_program(16, seed=seed),
            "fft": lambda p, seed: bsp_fft_program(4, seed=seed),
        }
    if guest == "logp":
        return {
            "sum": lambda p, seed: logp_sum_program(),
            "ring": lambda p, seed: logp_ring_program(),
            "broadcast": lambda p, seed: logp_broadcast_program(),
            "alltoall": lambda p, seed: logp_alltoall_program(),
        }
    raise ParameterError(f"unknown guest model {guest!r}")


#: Guest model -> the program ``"default"`` resolves to.
DEFAULT_PROGRAM = {"bsp": "prefix", "logp": "sum"}


def _freeze_params(params) -> tuple[tuple[str, int], ...]:
    if isinstance(params, dict):
        params = params.items()
    out = []
    for name, value in params or ():
        name = str(name)
        if name not in PARAM_KEYS:
            raise ParameterError(
                f"RunRequest params key {name!r} not supported "
                f"(known: {', '.join(PARAM_KEYS)})"
            )
        out.append((name, int(value)))
    return tuple(sorted(out))


def _freeze_args(args) -> tuple[tuple[str, int], ...]:
    """Workload arguments: any keyword names, integer values (every
    builtin workload parameter is an integer size/count)."""
    if isinstance(args, dict):
        args = args.items()
    out = []
    for name, value in args or ():
        name = str(name)
        if not name or name in ("p", "seed"):
            raise ParameterError(
                f"RunRequest args key {name!r} not allowed (p and seed are "
                f"top-level request fields)"
            )
        out.append((name, int(value)))
    return tuple(sorted(out))


@dataclass(frozen=True)
class RunRequest:
    """One serializable "run this Stack chain" request (schema v1).

    Fields
    ------
    chain:
        The layer chain, guest first (``"bsp"``, ``"bsp-on-logp"``,
        ``"bsp-on-logp-on-network"``, ``"bsp-on-dist"``, ...).
    program:
        A named guest program from :func:`request_programs` — or, for
        ``dist`` chains, a name from
        :data:`repro.dist.programs.DIST_PROGRAMS`.  ``"default"``
        resolves per guest model.  Mutually exclusive with ``workload``.
    workload:
        A :mod:`repro.workloads` registry entry to run instead of a
        fixed demo program; the entry's model must match the chain's
        guest.  ``args`` carries its program parameters (defaults
        overlaid by the registry).  Schema v2; ``None`` on v1 requests.
    args:
        Integer keyword parameters for ``workload`` (e.g.
        ``{"n": 48, "iters": 4}``).  Rejected unless ``workload`` is
        set.
    p:
        Processor count (network layers round it to the topology's
        natural grid, exactly like the CLI).
    topology:
        Table 1 topology name, used only by ``network`` layers.
    params:
        Model-parameter overrides merged over :data:`DEFAULT_PARAMS`
        (keys ``L``/``o``/``G`` for LogP, ``g``/``l`` for BSP).
    seed:
        Deterministic seed, forwarded to the seeded program factories
        and to hosts with randomized protocols.
    kernel:
        Kernel (``event`` production / ``tick`` reference oracle) for
        layers that own an event queue or router; ``None`` keeps each
        layer's own default.  Any other name is a ``ParameterError``.
    metrics:
        Obs flag: compute the point with an attached
        :class:`~repro.obs.Observation` and embed its registry in the
        record.  Part of the cache key (a metrics-bearing record is a
        different artifact than a bare one).
    version:
        Schema version stamp; readers reject stamps newer than
        :data:`REQUEST_VERSION`.
    """

    chain: str = "bsp"
    program: str = "default"
    workload: str | None = None
    args: tuple[tuple[str, int], ...] = ()
    p: int = 8
    topology: str = DEFAULT_TOPOLOGY
    params: tuple[tuple[str, int], ...] = ()
    seed: int = 0
    kernel: str | None = None
    metrics: bool = False
    version: int = REQUEST_VERSION

    def __post_init__(self) -> None:
        chain = "-on-".join(
            str(self.chain).strip().lower().replace("_", "-").split("-on-")
        )
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "params", _freeze_params(self.params))
        object.__setattr__(self, "args", _freeze_args(self.args))
        if self.workload is not None:
            object.__setattr__(self, "workload", str(self.workload))
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "metrics", bool(self.metrics))
        object.__setattr__(self, "version", int(self.version))
        if self.version < 1 or self.version > REQUEST_VERSION:
            raise ParameterError(
                f"RunRequest version {self.version} is not supported by "
                f"this reader (newest understood: {REQUEST_VERSION})"
            )
        if self.p < 1:
            raise ParameterError(f"RunRequest needs p >= 1, got {self.p}")
        guest, hosts = parse_chain(chain)  # validates the chain shape
        if self.kernel is not None:
            from repro.engine.core import KNOWN_KERNELS

            if self.kernel not in KNOWN_KERNELS:
                raise ParameterError(
                    f"RunRequest kernel {self.kernel!r} unknown "
                    f"(known: {', '.join(sorted(KNOWN_KERNELS))})"
                )
        if self.args and self.workload is None:
            raise ParameterError(
                "RunRequest args require a workload (args are workload "
                "parameters)"
            )
        if self.workload is not None:
            if self.version < 2:
                raise ParameterError(
                    "RunRequest workload entries need schema version >= 2 "
                    f"(got version={self.version})"
                )
            if self.program != "default":
                raise ParameterError(
                    "RunRequest workload and program are mutually exclusive "
                    f"(got workload={self.workload!r}, program={self.program!r})"
                )
            if "dist" in hosts:
                raise ParameterError(
                    "RunRequest workload entries are not runnable on dist "
                    "chains (dist hosts its own checkpointable programs)"
                )
            import repro.workloads as workloads

            w = workloads.get(self.workload)  # raises with known names
            if w.model != guest:
                raise ParameterError(
                    f"RunRequest workload {self.workload!r} is a {w.model} "
                    f"program but chain {self.chain!r} has guest {guest!r}"
                )
            w.merged(dict(self.args))  # rejects unknown parameter names
        elif "dist" not in hosts:
            known = request_programs(guest)
            name = self.program
            if name != "default" and name not in known:
                raise ParameterError(
                    f"RunRequest program {name!r} unknown for guest "
                    f"{guest!r} (known: default, {', '.join(sorted(known))})"
                )

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """The canonical JSON-serializable form (and the campaign point
        shape: :meth:`from_dict` accepts exactly these keys)."""
        doc = {
            "version": self.version,
            "chain": self.chain,
            "program": self.program,
            "p": self.p,
            "topology": self.topology,
            "params": dict(self.params),
            "seed": self.seed,
            "kernel": self.kernel,
            "metrics": self.metrics,
        }
        if self.workload is not None:
            doc["workload"] = self.workload
            doc["args"] = dict(self.args)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunRequest":
        """Parse a request document, rejecting unknown keys loudly."""
        if not isinstance(doc, dict):
            raise ParameterError(
                f"RunRequest document must be an object, got {type(doc).__name__}"
            )
        known = {
            "version", "chain", "program", "workload", "args", "p",
            "topology", "params", "seed", "kernel", "metrics",
        }
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ParameterError(
                f"RunRequest has no field(s) {unknown} "
                f"(known: {', '.join(sorted(known))})"
            )
        kwargs = {k: doc[k] for k in known if k in doc}
        kwargs.setdefault("params", {})
        return cls(**kwargs)

    @classmethod
    def coerce(cls, request: "RunRequest | dict") -> "RunRequest":
        return request if isinstance(request, cls) else cls.from_dict(request)

    # -- identity ------------------------------------------------------

    def key(self, fingerprint: str) -> str:
        """Content-addressed cache identity: the same
        :func:`~repro.campaign.spec.point_key` campaign points use, with
        ``target="request"``, so the service cache and a ``request``-
        target campaign store address the same entries."""
        from repro.campaign.spec import point_key

        return point_key("request", self.to_dict(), fingerprint)

    def describe(self) -> str:
        if self.workload is not None:
            bits = [self.chain, f"workload={self.workload}", f"p={self.p}"]
            if self.args:
                bits.append("args=" + ",".join(f"{k}={v}" for k, v in self.args))
        else:
            bits = [self.chain, f"program={self.program}", f"p={self.p}"]
        if self.params:
            bits.append("params=" + ",".join(f"{k}={v}" for k, v in self.params))
        if self.kernel:
            bits.append(f"kernel={self.kernel}")
        bits.append(f"seed={self.seed}")
        return " ".join(bits)


def build_stack(request: RunRequest | dict):
    """Construct the :class:`~repro.engine.stack.Stack` a request names.

    This is the one chain-assembly path behind ``Stack.from_request``,
    the CLI's ``inspect``, the campaign ``request`` target, and the
    service — the demo programs and default parameters are identical
    everywhere.
    """
    from repro.engine.stack import Stack
    from repro.models.params import BSPParams, LogPParams

    req = RunRequest.coerce(request)
    guest, hosts = parse_chain(req.chain)
    params = dict(DEFAULT_PARAMS)
    params.update(dict(req.params))
    p = req.p

    if "dist" in hosts:
        if hosts != ["dist"] or guest != "bsp":
            raise ProgramError(
                f"unsupported dist chain {req.chain!r}; the real-process "
                f"backend hosts whole programs ('bsp-on-dist')"
            )
        import dataclasses

        name = "ring" if req.program == "default" else req.program
        stack = Stack(name).on_dist(p)
        return dataclasses.replace(stack, request=req)

    topo = None
    if "network" in hosts:
        from repro.networks.params import make_topology

        topo, _config = make_topology(req.topology, p)
        p = topo.p  # arrays &c. round to their natural grid

    logp = LogPParams(p=p, L=params["L"], o=params["o"], G=params["G"])
    if req.workload is not None:
        import repro.workloads as workloads

        # The registry entry builds the program (defaults overlaid by
        # args) at the topology-rounded p — same path as run_workload.
        program = workloads.get(req.workload).program(p, req.seed, **dict(req.args))
    else:
        programs = request_programs(guest)
        name = DEFAULT_PROGRAM[guest] if req.program == "default" else req.program
        program = programs[name](p, req.seed)

    if guest == "bsp":
        stack = Stack(program)
    else:
        stack = Stack(program, model="logp", params=logp)

    kernel_opts = {"kernel": req.kernel} if req.kernel is not None else {}
    explicit_bsp = {k for k, _v in req.params if k in ("g", "l")}
    for kind in hosts:
        if kind == "bsp":
            # A LogP guest's host machine defaults to the theorem's
            # matched parameters unless the request overrides g/l.
            if guest == "bsp" or explicit_bsp:
                bsp = BSPParams(p=p, g=params["g"], l=params["l"])
            else:
                bsp = None
            stack = stack.on_bsp(bsp)
        elif kind == "logp":
            opts = dict(kernel_opts)
            if guest == "bsp":
                opts["seed"] = req.seed  # randomized-routing draw stream
            stack = stack.on_logp(logp, **opts)
        else:
            opts = dict(kernel_opts)
            if guest == "bsp" and "logp" not in hosts:
                opts["seed"] = req.seed  # run_on_network's routing seed
            stack = stack.on_network(topo, **opts)

    import dataclasses

    return dataclasses.replace(stack, request=req)
