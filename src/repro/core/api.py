"""High-level GraphPIM evaluation facade.

:class:`GraphPimSystem` wraps the full pipeline — functional workload
execution, trace capture, and timing simulation under the three system
modes — behind a single call, returning an :class:`EvaluationReport`
with the paper's headline metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import SimulationError
from repro.graph.csr import CsrGraph
from repro.sim.config import SystemConfig
from repro.sim.system import (
    RESULT_SCHEMA_VERSION,
    EngineInfo,
    SimResult,
    simulate_with_engine,
)
from repro.workloads.base import WorkloadRun
from repro.workloads.registry import get_workload


@dataclass
class EvaluationReport:
    """Results of evaluating one workload across system modes.

    ``run`` is ``None`` for reports rehydrated from serialized payloads
    (:meth:`from_dict`): traces are not part of the stable schema, only
    their summary statistics are.
    """

    workload_code: str
    run: Optional[WorkloadRun] = None
    results: dict[str, SimResult] = field(default_factory=dict)
    #: Whether each mode fell back from the kernel to the reference
    #: (observability only — results are bit-identical either way, so
    #: this never enters the serialized payload and is empty on
    #: rehydrated reports).
    engine_infos: dict[str, EngineInfo] = field(default_factory=dict)

    @property
    def engine_fallbacks(self) -> int:
        """Modes whose vectorized kernel declined and fell back."""
        return sum(
            1 for info in self.engine_infos.values() if info.fallback
        )

    @property
    def baseline(self) -> SimResult:
        return self.results["Baseline"]

    def speedup(self, mode_label: str = "GraphPIM") -> float:
        """Speedup of ``mode_label`` over the baseline."""
        return self.results[mode_label].speedup_over(self.baseline)

    def bandwidth_flits(self, mode_label: str) -> tuple[int, int]:
        """(request, response) FLIT totals for a mode."""
        stats = self.results[mode_label].hmc_stats
        return stats.total_request_flits, stats.total_response_flits

    def summary(self) -> str:
        """Human-readable one-paragraph summary."""
        if self.run is not None:
            header = (
                f"workload {self.workload_code}: "
                f"{self.run.trace.num_events} trace events, "
                f"{self.run.stats.atomics} atomics "
                f"({self.run.stats.property_atomics} PIM candidates)"
            )
        else:
            header = f"workload {self.workload_code}"
        lines = [header]
        base = self.baseline
        lines.append(
            f"  Baseline : {base.cycles:12.0f} cycles  ipc/core="
            f"{base.ipc / base.config.num_cores:.3f}"
        )
        for label, result in self.results.items():
            if label == "Baseline":
                continue
            lines.append(
                f"  {label:9s}: {result.cycles:12.0f} cycles  "
                f"speedup={result.speedup_over(base):.2f}x"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Serialization (`repro run --json`, runner worker IPC)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Stable JSON-safe payload; round-trips via :meth:`from_dict`.

        The full trace is not serialized (that is :mod:`repro.trace.io`'s
        job); only its summary statistics travel with the report.
        """
        if self.run is not None:
            trace_summary = {
                "num_events": self.run.trace.num_events,
                "num_threads": self.run.trace.num_threads,
                "atomics": self.run.stats.atomics,
                "property_atomics": self.run.stats.property_atomics,
            }
        else:
            trace_summary = None
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "workload_code": self.workload_code,
            "trace": trace_summary,
            "results": {
                label: result.to_dict()
                for label, result in self.results.items()
            },
        }

    @classmethod
    def from_dict(
        cls, data: dict, run: Optional[WorkloadRun] = None
    ) -> "EvaluationReport":
        """Rebuild a report; pass ``run`` to re-attach a live trace."""
        schema = data.get("schema")
        if schema != RESULT_SCHEMA_VERSION:
            raise SimulationError(
                f"unsupported EvaluationReport schema {schema!r} "
                f"(expected {RESULT_SCHEMA_VERSION})"
            )
        return cls(
            workload_code=data["workload_code"],
            run=run,
            results={
                label: SimResult.from_dict(payload)
                for label, payload in data["results"].items()
            },
        )


class GraphPimSystem:
    """One-stop evaluation of workloads on the modeled machine.

    Parameters
    ----------
    config:
        Shared system parameters (cache geometry, HMC, core model); the
        three evaluation modes are derived from it.
    num_threads:
        Virtual threads the workload is partitioned over (= active
        cores in the simulation).
    strict:
        Run the static-analysis pre-flight (:mod:`repro.analysis`)
        before every simulation: the config is validated and each trace
        is linted + race-checked; ERROR findings raise
        :class:`~repro.common.errors.AnalysisError` instead of
        producing skewed results.
    lint_baseline:
        Optional path to a finding-baseline file
        (:mod:`repro.analysis.baseline`).  When set, the strict
        pre-flight subtracts the frozen fingerprints before gating, so
        only new findings raise.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        num_threads: int = 16,
        strict: bool = False,
        lint_baseline: str | None = None,
    ):
        self.config = config or SystemConfig()
        self.num_threads = num_threads
        self.strict = strict
        self.lint_baseline = lint_baseline

    def trace(self, workload_code: str, graph: CsrGraph, **params) -> WorkloadRun:
        """Phase 1: run the workload functionally and capture its trace."""
        workload = get_workload(workload_code)
        return workload.run(graph, num_threads=self.num_threads, **params)

    def evaluate(
        self,
        workload_code: str,
        graph: CsrGraph,
        modes: list[SystemConfig] | None = None,
        strict: bool | None = None,
        **params,
    ) -> EvaluationReport:
        """Phases 1+2: trace once, simulate under every mode.

        ``strict`` overrides the instance-level setting; when active,
        the lint/race pre-flight runs on the captured trace before any
        timing simulation and raises on ERROR findings.
        """
        run = self.trace(workload_code, graph, **params)
        return self.evaluate_trace(run, modes, strict=strict)

    def evaluate_trace(
        self,
        run: WorkloadRun,
        modes: list[SystemConfig] | None = None,
        strict: bool | None = None,
    ) -> EvaluationReport:
        """Phase 2 only: simulate an existing trace under every mode."""
        configs = modes or self.config.evaluation_trio()
        if self._resolve_strict(strict):
            self._preflight(run, configs)
        report = EvaluationReport(
            workload_code=run.workload.code, run=run
        )
        for config in configs:
            result, info = simulate_with_engine(run.trace, config)
            report.results[config.display_name] = result
            report.engine_infos[config.display_name] = info
        return report

    def _resolve_strict(self, strict: bool | None) -> bool:
        """Per-call ``strict`` override falls back to the instance flag."""
        if strict is None:
            return self.strict
        return strict

    def _preflight(
        self, run: WorkloadRun, configs: list[SystemConfig]
    ) -> None:
        """Strict-mode static analysis; raises AnalysisError on ERRORs.

        The trace lint + race pass is content-deduplicated
        (:func:`repro.analysis.preflight_run`): a trace the suite or a
        previous evaluation already checked against the same lint config
        is not walked again.
        """
        from repro.analysis import check_strict, lint_config, preflight_run
        from repro.sim.config import Mode

        for config in configs:
            check_strict(lint_config(config))
        # Lint the trace against the mode that actually offloads, so the
        # PMR command-set and UC rules see the operative flags.
        lint_cfg = next(
            (c for c in configs if c.mode is Mode.GRAPHPIM), self.config
        )
        preflight_run(run, config=lint_cfg, baseline=self.lint_baseline)
