"""R010: the src/ include graph is acyclic and matches the layer manifest.

The manifest lives in docs/architecture.md, next to the human-readable
layer diagram, inside a fenced block:

    ```bayes-layers
    freestanding: support/thread_safety.hpp support/timer.hpp
    obs:
    support: obs
    ppl: ad math support
    ```

One line per layer (`layer: allowed-dependency layers...`), plus a
`freestanding:` line naming leaf headers (src-relative) that any layer
may include without creating a layer edge. `#`-comment lines and
`<!-- ... -->` HTML comments are stripped before parsing.

Drift is checked both ways, like R004: a src/ include edge not allowed by
the manifest is a finding at the include site, and a manifest edge (or
layer) with no counterpart in src/ is a finding at the manifest line.
Cycle detection over the file-level include graph runs even without a
manifest. Manifest-line findings are waivable with an HTML-comment
waiver on (or directly above) the line; a waiver without justification
does not suppress.
"""

from __future__ import annotations

import os
import re

from ..engine import rule
from ..source import Finding, in_dirs, parse_waiver_line

INCLUDE_PROBE = re.compile(r'^\s*#\s*include\s*"')
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
FENCE_OPEN = re.compile(r"^```bayes-layers\s*$")
FENCE_CLOSE = re.compile(r"^```\s*$")
HTML_COMMENT = re.compile(r"<!--.*?-->")


class Manifest:
    __slots__ = ("layers", "freestanding", "waivers", "found")

    def __init__(self):
        self.layers = {}        # layer -> (deps set, doc lineno)
        self.freestanding = {}  # src-relative header path -> doc lineno
        self.waivers = {}       # doc lineno -> (rule ids, justification)
        self.found = False

    def waived(self, lineno, rule_id):
        for wline in (lineno, lineno - 1):
            w = self.waivers.get(wline)
            if w and rule_id in w[0] and w[1]:
                return True
        return False


def parse_manifest(doc_path, findings, doc_rel):
    manifest = Manifest()
    try:
        with open(doc_path, encoding="utf-8") as f:
            doc_lines = f.read().splitlines()
    except OSError:
        return manifest
    in_block = False
    for lineno, raw in enumerate(doc_lines, 1):
        w = parse_waiver_line(raw)
        if w:
            manifest.waivers[lineno] = w
        if not in_block:
            if FENCE_OPEN.match(raw):
                in_block = True
                manifest.found = True
            continue
        if FENCE_CLOSE.match(raw):
            in_block = False
            continue
        line = HTML_COMMENT.sub("", raw).strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            findings.append(Finding(
                doc_rel, lineno, "R010",
                f"malformed manifest line '{line}'; expected "
                "'layer: dep dep...' or 'freestanding: path...'"))
            continue
        head, _, tail = line.partition(":")
        head = head.strip()
        items = tail.split()
        if head == "freestanding":
            for path in items:
                manifest.freestanding[path] = lineno
        elif head in manifest.layers:
            findings.append(Finding(
                doc_rel, lineno, "R010",
                f"duplicate manifest entry for layer '{head}'"))
        else:
            manifest.layers[head] = (set(items), lineno)
    return manifest


def layer_of(relpath):
    """'src/obs/x.hpp' -> 'obs'; files directly under src/ have no layer."""
    parts = relpath.split("/")
    return parts[1] if len(parts) > 2 else None


def build_graph(files):
    """File-level include graph over src/: {relpath: [(target, lineno)]}.

    Project includes are quoted and src-rooted (`-I src`); targets that
    resolve to no scanned src/ file (system or generated headers) are
    ignored. Include paths are read from the raw line because the
    stripped text blanks string literals.
    """
    src_files = {sf.relpath: sf for sf in files if in_dirs(sf.relpath, "src")}
    adj = {}
    for rel, sf in src_files.items():
        edges = []
        for lineno, line in enumerate(sf.lines, 1):
            if not INCLUDE_PROBE.match(line):
                continue
            m = INCLUDE_RE.match(sf.raw_lines[lineno - 1])
            if not m:
                continue
            target = "src/" + m.group(1)
            if target in src_files:
                edges.append((target, lineno))
        adj[rel] = edges
    return src_files, adj


def find_cycles(src_files, adj, findings):
    """DFS back-edge detection; one finding per back-edge, reported at
    the include line that closes the cycle."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {rel: WHITE for rel in adj}
    stack = []

    def visit(node):
        color[node] = GRAY
        stack.append(node)
        for target, lineno in adj[node]:
            if color[target] == GRAY:
                cycle = stack[stack.index(target):] + [target]
                if not src_files[node].waived(lineno, "R010"):
                    findings.append(Finding(
                        node, lineno, "R010",
                        "include cycle: " + " -> ".join(cycle)
                        + "; break the cycle (hoist the shared piece into "
                        "a lower layer or a freestanding header)"))
            elif color[target] == WHITE:
                visit(target)
        stack.pop()
        color[node] = BLACK

    for rel in sorted(adj):
        if color[rel] == WHITE:
            visit(rel)


@rule("R010", "src/ include graph is acyclic and obeys the layer manifest")
def rule_r010(files, findings, ctx):
    src_files, adj = build_graph(files)
    find_cycles(src_files, adj, findings)

    doc_path = ctx["arch_doc"]
    doc_rel = os.path.relpath(doc_path, ctx["root"]).replace(os.sep, "/")
    manifest = parse_manifest(doc_path, findings, doc_rel)
    if not manifest.found:
        return  # tree has no layer manifest; layering is unchecked

    # Freestanding headers must exist and must be leaves: including any
    # src/ header would smuggle a hidden layer edge through them.
    for path, lineno in sorted(manifest.freestanding.items()):
        rel = "src/" + path
        if rel not in src_files:
            if not manifest.waived(lineno, "R010"):
                findings.append(Finding(
                    doc_rel, lineno, "R010",
                    f"freestanding header '{path}' does not exist "
                    "under src/"))
            continue
        for target, inc_line in adj[rel]:
            if not src_files[rel].waived(inc_line, "R010"):
                findings.append(Finding(
                    rel, inc_line, "R010",
                    f"freestanding header includes '{target}'; "
                    "freestanding headers must be leaves (no src/ "
                    "includes)"))

    # Forward pass: every cross-layer edge in src/ must be allowed.
    present_layers = {}  # layer -> first file relpath (sorted order)
    for rel in sorted(src_files):
        layer = layer_of(rel)
        if layer is not None:
            present_layers.setdefault(layer, rel)
    used_edges = set()
    unlisted = set()
    for rel in sorted(adj):
        la = layer_of(rel)
        if la is None:
            continue  # files directly under src/ are unconstrained
        for target, lineno in adj[rel]:
            lb = layer_of(target)
            if lb is None or la == lb:
                continue
            if target[len("src/"):] in manifest.freestanding:
                continue
            used_edges.add((la, lb))
            if la not in manifest.layers:
                unlisted.add(la)
                continue
            if lb not in manifest.layers[la][0]:
                if not src_files[rel].waived(lineno, "R010"):
                    allowed = sorted(manifest.layers[la][0])
                    findings.append(Finding(
                        rel, lineno, "R010",
                        f"layering violation: src/{la}/ may not include "
                        f"'{target}' (allowed dependencies of '{la}': "
                        + (" ".join(allowed) if allowed else "none")
                        + "); move the code or update the manifest in "
                        f"{doc_rel}"))

    # Every populated layer directory must appear in the manifest, so the
    # manifest stays a complete map of the tree.
    for layer, first_file in sorted(present_layers.items()):
        if layer not in manifest.layers:
            unlisted.add(layer)
    for layer in sorted(unlisted):
        first_file = present_layers[layer]
        if not src_files[first_file].waived(1, "R010"):
            findings.append(Finding(
                first_file, 1, "R010",
                f"layer 'src/{layer}/' is not in the bayes-layers "
                f"manifest in {doc_rel}; add a '{layer}:' line"))

    # Reverse pass (drift): manifest content with no counterpart in src/.
    for layer, (deps, lineno) in sorted(manifest.layers.items()):
        if layer not in present_layers:
            if not manifest.waived(lineno, "R010"):
                findings.append(Finding(
                    doc_rel, lineno, "R010",
                    f"manifest layer '{layer}' matches no directory under "
                    "src/; remove the line or restore the layer"))
            continue
        for dep in sorted(deps):
            if (layer, dep) not in used_edges:
                if not manifest.waived(lineno, "R010"):
                    findings.append(Finding(
                        doc_rel, lineno, "R010",
                        f"stale manifest edge '{layer}: {dep}' — no "
                        f"src/{layer}/ file includes src/{dep}/; drop the "
                        "dependency or keep it honest"))
