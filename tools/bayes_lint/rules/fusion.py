"""Kernel-fusion discipline: R007 (scalar lpdf loops), which reasons
about loop bodies via source.loop_regions.
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
