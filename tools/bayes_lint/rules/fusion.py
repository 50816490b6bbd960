"""Kernel-fusion discipline: R007 (scalar lpdf loops), R008 (per-chain
gradient loops). Both reason about loop bodies via source.loop_regions.
"""

from __future__ import annotations

import re

from ..engine import rule
from ..source import Finding, in_dirs, loop_regions

R007_CALL = re.compile(r"\b([A-Za-z_]\w*)\s*\(")


@rule("R007", "no scalar *_lpdf/*_lpmf loops in src/workloads/")
def rule_r007(files, findings, _ctx):
    for sf in files:
        if not in_dirs(sf.relpath, "src/workloads"):
            continue
        text = "\n".join(sf.lines)
        regions = loop_regions(text)
        if not regions:
            continue
        for m in R007_CALL.finditer(text):
            name = m.group(1)
            if not name.endswith(("_lpdf", "_lpmf")):
                continue
            if "_glm_" in name:
                continue  # fused GLM kernels are the fix, not a finding
            if not any(s <= m.start() < e for s, e in regions):
                continue
            lineno = text.count("\n", 0, m.start()) + 1
            if not sf.waived(lineno, "R007"):
                findings.append(Finding(
                    sf.relpath, lineno, "R007",
                    f"scalar {name} in a loop builds one tape node per "
                    "observation; use a fused kernel from "
                    "src/math/vec_kernels.hpp (or waive a reference "
                    "scalar path with justification)"))


R008_CALL = re.compile(r"(?:\.|->)\s*logProbGrad\s*\(")


@rule("R008", "no per-chain logProbGrad loops outside src/samplers/")
def rule_r008(files, findings, _ctx):
    """Calling the K=1 gradient wrapper in a loop re-streams the observed
    data once per iteration — exactly the pattern the batched surface
    (Evaluator::logProbGradBatch) replaces. The sampler layer is exempt:
    its per-iteration loops are the Markov chains themselves, and each
    chain has only one point to evaluate at a time."""
    for sf in files:
        if not in_dirs(sf.relpath, "src"):
            continue
        if in_dirs(sf.relpath, "src/samplers"):
            continue
        text = "\n".join(sf.lines)
        regions = loop_regions(text)
        if not regions:
            continue
        for m in R008_CALL.finditer(text):
            if not any(s <= m.start() < e for s, e in regions):
                continue
            lineno = text.count("\n", 0, m.start()) + 1
            if not sf.waived(lineno, "R008"):
                findings.append(Finding(
                    sf.relpath, lineno, "R008",
                    "logProbGrad in a loop streams the observed data once "
                    "per call; gather the points into a ppl::EvalBatch and "
                    "use Evaluator::logProbGradBatch (or waive with "
                    "justification)"))
