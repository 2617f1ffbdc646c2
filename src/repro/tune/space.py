"""Design-space definition for the autotuner (``repro optimize``).

A :class:`SearchSpace` is the cross product of named *axes* over one
backend's configuration dataclass.  Axes come in two flavours:

* **direct** axes name a top-level config field (``num_pus``,
  ``region_hit_rate``, ``hash_placement``...), applied with
  :func:`dataclasses.replace` exactly like :func:`repro.arch.sweep.sweep`;
* **derived** axes expand to nested device objects the way the figure
  drivers build them by hand: ``density_gbit`` prepares matching
  ``ReRAMConfig``/``DRAMConfig`` densities, ``bpg_timeout_us`` a
  :class:`~repro.memory.powergate.PowerGatingPolicy`, ``mlc_bits`` the
  ReRAM cell's bits-per-cell, and ``machine`` swaps the whole base for
  a named Fig. 16 configuration.

Enumeration skips combinations the config dataclasses reject (e.g.
``data_sharing=True`` on a scratchpad-less ``acc+DRAM`` base) and
reports how many were skipped, so a frontier always states how much of
the nominal cross product was actually priceable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from dataclasses import fields as dataclass_fields
from typing import Any, Mapping, Sequence

from ..arch.config import NAMED_CONFIGS, HyVEConfig
from ..arch.cpu import CPU_DRAM, CPU_DRAM_OPT, CPUModel
from ..arch.graphr import GraphRConfig
from ..errors import ConfigError
from ..units import GBIT, US

#: Backend identifiers (the ``--backend`` vocabulary of the CLI).
BACKEND_HYVE = "hyve"
BACKEND_GRAPHR = "graphr"
BACKEND_CPU = "cpu"
BACKENDS = (BACKEND_HYVE, BACKEND_GRAPHR, BACKEND_CPU)

#: Derived axes shared by the HyVE and GraphR backends.
_DERIVED_HYVE = ("machine", "density_gbit", "bpg_timeout_us", "mlc_bits")
_DERIVED_GRAPHR = ("density_gbit", "mlc_bits")

#: Valid axis names per backend.  HyVE direct axes are every
#: :class:`HyVEConfig` field except the label (labels are generated).
HYVE_AXES = frozenset(
    f.name for f in dataclass_fields(HyVEConfig) if f.name != "label"
) | frozenset(_DERIVED_HYVE)
GRAPHR_AXES = frozenset(
    f.name for f in dataclass_fields(GraphRConfig) if f.name != "label"
) | frozenset(_DERIVED_GRAPHR)
CPU_AXES = frozenset({"model"})

_AXES_BY_BACKEND = {
    BACKEND_HYVE: HYVE_AXES,
    BACKEND_GRAPHR: GRAPHR_AXES,
    BACKEND_CPU: CPU_AXES,
}

#: HyVE axes that only change *pricing* (never the counts key), so an
#: exhaustive fold prices their whole cross product against one
#: schedule expansion — see :func:`repro.perf.batch.counts_cache_key`.
PRICING_ONLY_AXES = frozenset({
    "density_gbit", "bpg_timeout_us", "mlc_bits", "region_hit_rate",
    "random_access_mlp", "reram", "dram", "power_gating",
})

#: The CPU backend's addressable baselines.
CPU_MODELS: dict[str, CPUModel] = {
    "CPU+DRAM": CPU_DRAM,
    "CPU+DRAM-opt": CPU_DRAM_OPT,
}


@dataclass(frozen=True)
class Candidate:
    """One enumerated design point, ready to price.

    ``config`` is a :class:`HyVEConfig`, :class:`GraphRConfig` or
    :class:`~repro.arch.cpu.CPUModel` depending on ``backend``; its
    label equals ``label``, so the priced report is self-describing.
    """

    index: int
    backend: str
    label: str
    config: Any


def _axis_label(name: str, value: Any) -> str:
    if isinstance(value, float):
        return f"{name}={value:g}"
    return f"{name}={value}"


def _hyve_candidate(
    base: HyVEConfig, assignment: Mapping[str, Any], label: str
) -> HyVEConfig:
    """Build one HyVE config from an axis assignment (may raise
    :class:`ConfigError` for combinations the dataclass rejects)."""
    cfg = base
    machine = assignment.get("machine")
    if machine is not None:
        cfg = NAMED_CONFIGS[machine]()
    overrides: dict[str, Any] = {}
    for name, value in assignment.items():
        if name == "machine":
            continue
        if name == "density_gbit":
            bits = int(value * GBIT)
            overrides["reram"] = replace(
                overrides.get("reram", cfg.reram), density_bits=bits
            )
            overrides["dram"] = replace(cfg.dram, density_bits=bits)
        elif name == "bpg_timeout_us":
            overrides["power_gating"] = replace(
                cfg.power_gating, idle_timeout=value * US
            )
        elif name == "mlc_bits":
            reram = overrides.get("reram", cfg.reram)
            overrides["reram"] = replace(
                reram, cell=replace(reram.cell, cell_bits=int(value))
            )
        else:
            overrides[name] = value
    overrides["label"] = label
    return replace(cfg, **overrides)


def _graphr_candidate(
    base: GraphRConfig, assignment: Mapping[str, Any], label: str
) -> GraphRConfig:
    cfg = base
    overrides: dict[str, Any] = {}
    for name, value in assignment.items():
        if name == "density_gbit":
            overrides["reram"] = replace(
                overrides.get("reram", cfg.reram),
                density_bits=int(value * GBIT),
            )
        elif name == "mlc_bits":
            reram = overrides.get("reram", cfg.reram)
            overrides["reram"] = replace(
                reram, cell=replace(reram.cell, cell_bits=int(value))
            )
        else:
            overrides[name] = value
    overrides["label"] = label
    return replace(cfg, **overrides)


@dataclass(frozen=True)
class SearchSpace:
    """The cross product of axis values over one backend.

    ``axes`` is an ordered tuple of ``(name, values)`` pairs — the
    enumeration order is the lexicographic product in axis order, so a
    space enumerates identically on every machine and every run.
    Construct via :meth:`from_axes`.
    """

    backend: str = BACKEND_HYVE
    axes: tuple[tuple[str, tuple], ...] = ()
    base: Any = None

    @classmethod
    def from_axes(
        cls,
        axes: Mapping[str, Sequence[Any]],
        backend: str = BACKEND_HYVE,
        base: Any = None,
    ) -> "SearchSpace":
        """Validate and freeze an axes mapping into a space."""
        if backend not in _AXES_BY_BACKEND:
            raise ConfigError(
                f"unknown tuner backend {backend!r}; "
                f"known: {', '.join(BACKENDS)}"
            )
        valid = _AXES_BY_BACKEND[backend]
        unknown = sorted(set(axes) - valid)
        if unknown:
            raise ConfigError(
                f"unknown axis(es) for the {backend!r} backend: "
                f"{', '.join(unknown)}; valid: {', '.join(sorted(valid))}"
            )
        frozen: list[tuple[str, tuple]] = []
        for name, values in axes.items():
            values = tuple(values)
            if not values:
                raise ConfigError(f"axis {name!r} needs at least one value")
            if name == "machine":
                bad = sorted(set(values) - set(NAMED_CONFIGS))
                if bad:
                    raise ConfigError(
                        f"unknown machine(s) on the 'machine' axis: "
                        f"{', '.join(bad)}; "
                        f"known: {', '.join(NAMED_CONFIGS)}"
                    )
            if name == "model":
                bad = sorted(set(values) - set(CPU_MODELS))
                if bad:
                    raise ConfigError(
                        f"unknown CPU model(s) on the 'model' axis: "
                        f"{', '.join(bad)}; "
                        f"known: {', '.join(CPU_MODELS)}"
                    )
            frozen.append((name, values))
        return cls(backend=backend, axes=tuple(frozen), base=base)

    @property
    def size(self) -> int:
        """Nominal cross-product size (before invalid-combo skipping)."""
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n

    @property
    def pricing_only(self) -> bool:
        """True when every axis folds against one schedule expansion."""
        return self.backend != BACKEND_HYVE or all(
            name in PRICING_ONLY_AXES for name, _ in self.axes
        )

    def candidates(self) -> tuple[list[Candidate], int]:
        """Enumerate ``(valid candidates, skipped invalid combos)``.

        Combinations the backend's config dataclass rejects (an
        explicit :class:`ConfigError`, e.g. data sharing without a
        scratchpad, or a partition override that is not a multiple of
        N) are skipped and counted, not raised: a wide cross product
        legitimately contains corners that do not exist as machines.

        The space is immutable, so the enumeration is memoized on the
        instance: repeated searches over one space (the autotuner's
        per-workload loop, warm benchmark repeats) pay the config
        construction once.  Callers get a fresh list each time.
        """
        memo = self.__dict__.get("_candidates_memo")
        if memo is not None:
            return list(memo[0]), memo[1]
        out, skipped = self._enumerate()
        object.__setattr__(self, "_candidates_memo", (tuple(out), skipped))
        return out, skipped

    def _enumerate(self) -> tuple[list[Candidate], int]:
        names = [name for name, _ in self.axes]
        value_lists = [values for _, values in self.axes]
        out: list[Candidate] = []
        skipped = 0
        if self.backend == BACKEND_CPU:
            chosen = (value_lists[0] if names
                      else tuple(CPU_MODELS))
            for name in chosen:
                model = CPU_MODELS[name]
                out.append(Candidate(len(out), BACKEND_CPU,
                                     model.label, model))
            return out, 0
        base = self.base
        if base is None:
            base = (HyVEConfig() if self.backend == BACKEND_HYVE
                    else GraphRConfig())
        hyve = self.backend == BACKEND_HYVE
        build = _hyve_candidate if hyve else _graphr_candidate
        # Equal device objects are interned, so the pricing kernel (which
        # resolves each distinct device object once per call) sees only
        # as many devices as the axes produce.
        shared: dict = {}
        for combo in itertools.product(*value_lists):
            assignment = dict(zip(names, combo))
            label = "|".join(
                _axis_label(n, v) for n, v in assignment.items()
            ) or base.label
            try:
                config = build(base, assignment, label)
            except ConfigError:
                skipped += 1
                continue
            if hyve:
                config = replace(config, **{
                    name: shared.setdefault(getattr(config, name),
                                            getattr(config, name))
                    for name in ("reram", "dram", "power_gating")
                })
            out.append(Candidate(len(out), self.backend, label, config))
        return out, skipped


#: Default exhaustive axes per backend: every pricing knob the paper
#: sweeps, plus the named machine (HyVE) / crossbar shape (GraphR).
_DEFAULT_AXES = {
    BACKEND_HYVE: {
        "machine": tuple(NAMED_CONFIGS),
        "density_gbit": (4, 8, 16),
        "bpg_timeout_us": (0.5, 1.0, 5.0),
        "region_hit_rate": (0.7, 0.85, 1.0),
        "random_access_mlp": (4, 8),
        "mlc_bits": (1, 2),
    },
    BACKEND_GRAPHR: {
        "num_crossbar_groups": (4, 8, 16),
        "density_gbit": (4, 8, 16),
        "mlc_bits": (1, 2),
    },
    BACKEND_CPU: {"model": tuple(CPU_MODELS)},
}

#: Structural HyVE axes for the guided engine: N, the SRAM point (which
#: moves P), and placement each change the counts key, so their cross
#: product multiplies schedule expansions — exactly the explosion
#: successive halving is for.
_STRUCTURAL_AXES_HYVE = {
    "machine": tuple(NAMED_CONFIGS),
    "num_pus": (2, 4, 8, 16),
    "sram_bits": tuple(m * 1024 * 1024 * 8 for m in (1, 2, 4)),
    "hash_placement": (True, False),
    "density_gbit": (4, 8, 16),
    "region_hit_rate": (0.7, 0.85, 1.0),
}


def default_space(
    backend: str = BACKEND_HYVE, structural: bool = False
) -> SearchSpace:
    """The stock machine space for one backend.

    ``structural=True`` (the guided engine's default) widens the HyVE
    space with the counts-key axes — N, SRAM point, placement — on top
    of the pricing knobs; the GraphR and CPU spaces are small enough
    that the flag changes nothing there.
    """
    if backend == BACKEND_HYVE and structural:
        return SearchSpace.from_axes(_STRUCTURAL_AXES_HYVE, backend)
    if backend not in _DEFAULT_AXES:
        raise ConfigError(
            f"unknown tuner backend {backend!r}; "
            f"known: {', '.join(BACKENDS)}"
        )
    return SearchSpace.from_axes(_DEFAULT_AXES[backend], backend)
