"""Test helpers: digraph JSON documents, curve CSV reading, the exact
DCM law of small degree sequences and the CLI cases.

``digraph_to_json`` and ``digraph_from_json`` write a digraph's out-lists
and seed as JSON and read them back, and ``graph_from_edges`` builds a
fixture digraph edge by edge through them; ``parse_curve_csv`` reads a
written curve CSV back into report rows.  Each refuses a malformed
document with ``BadValue``.
``every_matching`` enumerates the m! equally likely stub matchings of a
DCM sequence, and ``matching_law`` reduces them to the exact law of the
edge-count matrix.
``CLI_CASES`` holds one small run of every CLI experiment, as its argv
after the experiment name; the byte-identity and CLI tests,
``tools/cli_digests.py`` and CI run each of them.
"""

import itertools
import json
import reprlib
from collections import Counter
from typing import Dict, List

import numpy as np

from mixlab.core import ModelKind, integers_in, json_object, validate_degrees
from mixlab.errors import BadValue
from mixlab.report import CURVE_HEADER, ReportRow
from mixlab.rng import RngStream
from mixlab.sampler import Digraph, _finish


def digraph_to_json(g: Digraph) -> str:
    doc = {
        "seed": {"root_seed": g.stream.root_seed,
                 "stream_index": g.stream.stream_index},
        "model": g.seq.model.value,
        "out_edges": [row.tolist()
                      for row in np.split(g.heads, g.offsets[1:-1])],
    }
    return json.dumps(doc)


def digraph_from_json(text: str) -> Digraph:
    """The digraph of a ``digraph_to_json`` document; BadValue if text is
    not one."""
    doc = json_object(text, "digraph document")
    try:
        model = ModelKind(doc["model"])
        out_edges = doc["out_edges"]
        stream = RngStream(doc["seed"]["root_seed"],
                           doc["seed"]["stream_index"])
    except (KeyError, TypeError) as exc:    # TypeError: seed not an object
        raise BadValue("a digraph document needs 'model', 'out_edges' and "
                       "'seed' with 'root_seed' and 'stream_index'") from exc
    if not (isinstance(out_edges, list)
            and all(isinstance(row, list) for row in out_edges)):
        raise BadValue("digraph out_edges must be a list of lists")
    out_degrees = [len(row) for row in out_edges]
    n = len(out_edges)
    heads = integers_in([h for row in out_edges for h in row], 0, n,
                        "edge heads")
    if model is ModelKind.DCM:
        in_degrees = np.bincount(heads, minlength=n)
        seq = validate_degrees(model, out_degrees, in_degrees)
    else:
        if any(len(set(row)) != len(row) for row in out_edges):
            raise BadValue("OCM out-edges must have distinct targets")
        seq = validate_degrees(model, out_degrees)
    return _finish(seq, heads, stream)


def graph_from_edges(out_edges, model="dcm") -> Digraph:
    """The digraph with these out-lists, read through ``digraph_from_json``
    on seed (0, 0)."""
    doc = {"seed": {"root_seed": 0, "stream_index": 0}, "model": model,
           "out_edges": out_edges}
    return digraph_from_json(json.dumps(doc))


def every_matching(seq) -> np.ndarray:
    """The (m!, m) heads table of every stub matching of the DCM sequence
    seq, each as likely as any other: row i takes the head slots in the
    order of the i-th permutation of [0, m)."""
    stubs = np.array(list(itertools.permutations(range(seq.m))))
    return seq.head_slots[stubs]


def matching_law(seq) -> Dict[tuple, float]:
    """Exact law of a DCM draw on seq as its flattened n x n edge-count
    matrix (a tuple of ints), counted over ``every_matching``."""
    heads = every_matching(seq)
    counts = np.zeros((len(heads), seq.n, seq.n), dtype=np.int64)
    np.add.at(counts, (np.arange(len(heads))[:, None], seq.tails, heads), 1)
    law = Counter(map(tuple, counts.reshape(len(heads), -1).tolist()))
    return {key: count / len(heads) for key, count in law.items()}


def parse_curve_csv(text: str) -> List[ReportRow]:
    """Re-read a written curve CSV.  Anything but curve rows under the
    curve header is BadValue."""
    if not isinstance(text, str):
        raise BadValue(f"a curve CSV is text, not {type(text).__name__}")
    lines = [ln for ln in text.strip().split("\n") if ln]
    if not lines or tuple(lines[0].split(",")) != CURVE_HEADER:
        raise BadValue(f"unexpected header {reprlib.repr(lines[:1])}")
    rows = []
    for ln in lines[1:]:
        try:
            a, e, s, th, n_eff = ln.split(",")
            rows.append(ReportRow(abscissa=float(a), estimate=float(e),
                                  std_err=float(s), theory=float(th),
                                  n_effective=int(n_eff)))
        except ValueError:      # a wrong field count or a non-number
            raise BadValue(f"malformed curve row {reprlib.repr(ln)}") from None
    return rows


CLI_CASES = {
    "static-cutoff": ["--generator", "eulerian:3x40", "--beta-grid",
                      "0.5,1.5", "--env-samples", "3",
                      "--start-vertices", "4"],
    "double-cutoff": ["--generator", "eulerian:3x40", "--beta", "0.7",
                      "--s-grid", "0,1,2", "--env-samples", "3",
                      "--start-vertices", "4"],
    "joint": ["--generator", "eulerian:3x40", "--alpha", "0.4",
              "--beta-grid", "0.5,1", "--env-samples", "3",
              "--start-vertices", "3"],
    "marginal": ["--generator", "mix:2x30,3x10", "--alpha", "0.3",
                 "--beta-grid", "0.6,1.2", "--start-vertices", "4",
                 "--gap-replicates", "4"],
    "marginal-crosscheck": ["--generator", "mix:2x30,3x10", "--alpha", "0.2",
                            "--t", "3", "--schedule-samples", "50",
                            "--start-vertices", "0,"],
    "annealed": ["--generator", "eulerian:3x40", "--t-grid", "1,2",
                 "--env-samples", "20", "--start-vertices", "0,1"],
    "weight-lln": ["--generator", "regular:3", "--n", "40", "--model", "ocm",
                   "--t", "4", "--switch-time", "2", "--traj-samples", "60"],
    "diagnostics": ["--generator", "mix:2x30,3x10", "--env-samples", "3"],
    "q-estimate": ["--generator", "mix:2x30,3x10", "--gap-replicates", "3"],
}
