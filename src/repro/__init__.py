"""Usher: static value-flow analysis for accelerating dynamic detection of
uses of undefined values (reproduction of Ye, Sui & Xue, CGO 2014).

The package is organised bottom-up:

- :mod:`repro.ir` — the TinyC intermediate representation (LLVM-IR-like).
- :mod:`repro.tinyc` — a C-subset front-end compiling to the IR.
- :mod:`repro.analysis` — Andersen's pointer analysis, call graph, mod/ref.
- :mod:`repro.memssa` — memory SSA (μ/χ) construction.
- :mod:`repro.vfg` — the value-flow graph and definedness resolution.
- :mod:`repro.core` — the paper's contribution: guided instrumentation
  (Figure 7), the MSan full-instrumentation baseline, and the two
  VFG-based optimizations.
- :mod:`repro.opt` — an LLVM-like optimizer substrate (mem2reg, inlining,
  const/copy propagation, DCE, CSE) arranged into O0+IM / O1 / O2
  pipelines.
- :mod:`repro.runtime` — a shadow-memory interpreter and the overhead
  cost model.
- :mod:`repro.workloads` — the 15 SPEC2000-shaped synthetic benchmarks and
  a random program generator.
- :mod:`repro.bench` — the benchmark matrix: one row per workload ×
  configuration, rendered into every table and figure of the paper.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
