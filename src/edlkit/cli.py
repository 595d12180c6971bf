"""Command-line front end with bit-exact JSON serialization.

Every subcommand reads versioned JSON artifacts (states, graphs,
collections, witnesses), runs one library operation, and prints a single
JSON object ``{command, inputs, result, certificates, flags, timing_ms}``
to stdout.  Exit codes: 0 success, 2 input error, 3 solver failure.  The
subcommand handlers return library values (rationals, arrays, subsets);
``main`` converts them to JSON types once, just before printing.

Numbers may be written as "p/q" strings; they parse to exact rationals and
survive a serialize/parse round trip bit for bit.  Floats round-trip within
1e-15 (JSON emits full repr precision).  All indices are 1-based.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from fractions import Fraction

import numpy as np

from . import graphstate, hypergraph, qcore, symmetric, witness as wit
from .errors import SOLVER_CODES, EdlkitError

STATE_FORMAT = "edlkit-state-v1"
WITNESS_FORMAT = "edlkit-witness-v1"
GRAPH_FORMAT = "edlkit-graph-v1"
# an ASCII integer or "p/q"; any other string is left to the Fraction parser
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?", re.ASCII)


# ---------------------------------------------------------------------------
# number and matrix plumbing
# ---------------------------------------------------------------------------

def _parse_num(x):
    if isinstance(x, str):
        plain = _PLAIN_RATIONAL.fullmatch(x)
        try:
            if plain:
                num, den = plain.groups()
                return Fraction(int(num), int(den) if den else 1)
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise EdlkitError("BAD_FORMAT", "cannot parse %r as a rational" % (x,))
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise EdlkitError("BAD_FORMAT", "expected a number, got %r" % (x,))
    return x


def _matrix_pair(mat):
    arr = np.asarray(mat, dtype=complex)
    return arr.real.tolist(), arr.imag.tolist()


def _matrix_from_pair(doc, key, shape):
    try:
        re_part = np.asarray(doc.get(key + "_real"), dtype=float)
        im = doc.get(key + "_imag")
        im_part = np.zeros_like(re_part) if im is None else np.asarray(im, dtype=float)
    except (TypeError, ValueError):
        raise EdlkitError("BAD_FORMAT", "%s payload is not a numeric array" % key)
    if re_part.shape != shape or im_part.shape != shape:
        raise EdlkitError("DIM_MISMATCH",
                          "%s payload shape %r, expected %r" % (key, re_part.shape, shape))
    return re_part + 1j * im_part


def _is_int_list(x):
    return isinstance(x, list) and all(qcore._is_integer(j) for j in x)


def _index_array(doc, key, what):
    """``doc[key]`` as a list of integer labels, or BAD_FORMAT."""
    labels = doc.get(key) if isinstance(doc, dict) else None
    if not _is_int_list(labels):
        raise EdlkitError("BAD_FORMAT", "%s needs an integer index array %r" % (what, key))
    return labels


def _jsonable(x):
    """Recursive conversion to plain JSON types; rationals become strings and
    non-finite floats ``null``."""
    kind = type(x)
    if kind is str or kind is int or x is None:
        return x
    if kind is float:
        return x if math.isfinite(x) else None
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x) if math.isfinite(x) else None
    if isinstance(x, (complex, np.complexfloating)):
        return {"real": _jsonable(x.real), "imag": _jsonable(x.imag)}
    if isinstance(x, np.ndarray):
        if np.iscomplexobj(x):
            return {"real": _jsonable(x.real.tolist()), "imag": _jsonable(x.imag.tolist())}
        return _jsonable(x.tolist())
    if isinstance(x, qcore.Subset):
        return list(x.indices)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, str):
        return x
    raise EdlkitError("BAD_FORMAT", "cannot serialize %r" % (type(x),))


# ---------------------------------------------------------------------------
# artifact formats
# ---------------------------------------------------------------------------

def state_to_json(obj):
    if isinstance(obj, symmetric.DickeMixture):
        rational = obj.exact
        return {"format": STATE_FORMAT, "n": obj.n, "kind": "dicke_diagonal",
                "rational": rational,
                "lambda": _jsonable(obj.lam)}
    if isinstance(obj, symmetric.SymmetricCoeffs):
        re_part, im_part = _matrix_pair(obj.a)
        return {"format": STATE_FORMAT, "n": obj.n, "kind": "symmetric",
                "a_real": re_part, "a_imag": im_part}
    if isinstance(obj, qcore.PureVector):
        re_part, im_part = _matrix_pair(obj.amplitudes)
        return {"format": STATE_FORMAT, "n": obj.n, "kind": "pure_dense",
                "amp_real": re_part, "amp_imag": im_part}
    if isinstance(obj, qcore.DenseState):
        re_part, im_part = _matrix_pair(obj.matrix)
        return {"format": STATE_FORMAT, "n": obj.n, "kind": "dense",
                "rho_real": re_part, "rho_imag": im_part}
    raise EdlkitError("BAD_KIND", "cannot serialize %r as a state" % (type(obj),))


def _artifact_n(doc, fmt, what):
    """The qubit count ``n`` of a ``what`` file, after checking its format tag."""
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise EdlkitError("BAD_FORMAT", "%s file must carry format=%r" % (what, fmt))
    n = doc.get("n")
    if not qcore._is_integer(n) or n < 1:
        raise EdlkitError("DIM_MISMATCH", "%s file needs a positive integer n" % what)
    return n


def state_from_json(doc):
    n = _artifact_n(doc, STATE_FORMAT, "state")
    kind = doc.get("kind")
    if kind == "dicke_diagonal":
        lam = doc.get("lambda")
        if not isinstance(lam, list) or len(lam) != n + 1:
            raise EdlkitError("DIM_MISMATCH", "lambda must list n+1 = %d weights" % (n + 1))
        return symmetric.DickeMixture(n, tuple(_parse_num(x) for x in lam))
    if kind == "symmetric":
        a = _matrix_from_pair(doc, "a", (n + 1, n + 1))
        return symmetric.SymmetricCoeffs(n, a)
    if kind == "pure_dense":
        amp = _matrix_from_pair(doc, "amp", (1 << n,))
        return qcore.PureVector(n, amp)
    if kind == "dense":
        rho = _matrix_from_pair(doc, "rho", (1 << n, 1 << n))
        return qcore.DenseState(n, rho)
    raise EdlkitError("BAD_KIND", "unknown state kind %r" % (kind,))


def witness_to_json(w):
    blocks = []
    for subset, h in w.blocks:
        re_part, im_part = _matrix_pair(h)
        blocks.append({"subset": list(subset.indices), "h_real": re_part, "h_imag": im_part})
    certs = []
    for subset, p, q in w.certificates:
        p_re, p_im = _matrix_pair(p)
        q_re, q_im = _matrix_pair(q)
        certs.append({"s": list(subset.indices),
                      "p_real": p_re, "p_imag": p_im,
                      "q_real": q_re, "q_imag": q_im})
    return {"format": WITNESS_FORMAT, "n": w.n,
            "alpha": None if w.alpha is None or math.isnan(w.alpha) else float(w.alpha),
            "blocks": blocks, "certificates": certs}


def witness_from_json(doc):
    n = _artifact_n(doc, WITNESS_FORMAT, "witness")
    if not all(isinstance(doc.get(key, []), list) for key in ("blocks", "certificates")):
        raise EdlkitError("BAD_FORMAT", "witness blocks and certificates must be arrays")
    blocks = []
    subset_lists = []
    for b in doc.get("blocks", []):
        labels = _index_array(b, "subset", "witness block")
        subset_lists.append(labels)
        k = len(labels)
        h = _matrix_from_pair(b, "h", (1 << k, 1 << k))
        blocks.append((qcore.Subset.from_indices(n, labels), h))
    if not blocks:
        raise EdlkitError("EMPTY_SUBSET", "witness carries no blocks")
    coll = hypergraph.SubsetCollection.from_lists(n, subset_lists)
    certs = []
    for c in doc.get("certificates", []):
        subset = qcore.Subset.from_indices(n, _index_array(c, "s", "certificate"))
        d = 1 << n
        p = _matrix_from_pair(c, "p", (d, d))
        q = _matrix_from_pair(c, "q", (d, d))
        certs.append((subset, p, q))
    alpha = doc.get("alpha")
    return wit.Witness(n, coll, float("nan") if alpha is None else float(_parse_num(alpha)),
                       blocks, certs)


def graph_from_json(doc):
    n = _artifact_n(doc, GRAPH_FORMAT, "graph")
    edges = doc.get("edges")
    if not isinstance(edges, list) or not all(_is_int_list(e) and len(e) == 2 for e in edges):
        raise EdlkitError("BAD_FORMAT", "graph file needs an array of integer vertex pairs")
    return graphstate.SimpleGraph(n, tuple(tuple(e) for e in edges))


def _collection_labels(doc):
    """All labels of a collection document, or BAD_FORMAT unless it is an
    array of integer index arrays."""
    if not isinstance(doc, list) or not all(_is_int_list(s) for s in doc):
        raise EdlkitError("BAD_FORMAT", "collection file must be an array of index arrays")
    return [j for s in doc for j in s]


def collection_from_json(doc, n=None):
    labels = _collection_labels(doc)
    if n is None:
        if not labels:
            raise EdlkitError("EMPTY_SUBSET", "collection file is empty")
        n = max(labels)
    return hypergraph.SubsetCollection.from_lists(n, doc)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise EdlkitError("BAD_FORMAT", "cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise EdlkitError("BAD_FORMAT", "%s is not valid JSON: %s" % (path, exc))


def _labels(text):
    try:
        out = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise EdlkitError("BAD_FORMAT", "expected comma-separated integers, got %r" % (text,))
    if not out:
        raise EdlkitError("EMPTY_SUBSET", "empty index list")
    return out


# ---------------------------------------------------------------------------
# shared state handling
# ---------------------------------------------------------------------------

def _coeffs_from_dense(mat, n, tol=1e-8):
    """Project a dense matrix onto the symmetric coefficient basis, ``B^T M B``
    with the Dicke basis ``B``; error if ``B a B^T`` loses anything."""
    b = symmetric._dicke_basis(n)
    a = b.T @ mat @ b
    if np.max(np.abs(b @ a @ b.T - mat)) > tol:
        raise EdlkitError("BAD_KIND",
                          "state is not symmetric (support off the Dicke span); use --method sdp")
    return symmetric.SymmetricCoeffs(n, a)


def _dense_matrix(obj):
    if isinstance(obj, (symmetric.DickeMixture, symmetric.SymmetricCoeffs)):
        return symmetric.to_dense(obj).matrix, obj.n
    if isinstance(obj, qcore.PureVector):
        return obj.to_density().matrix, obj.n
    return obj.matrix, obj.n


def _route_record(res):
    """Route, face dimension and gap of a :class:`witness.DeterminationResult`."""
    return {"route": res.route, "face_dim": res.face_dim, "gap": res.gap}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (result, certificates, flags, inputs) as
# library values, which main converts to JSON types once
# ---------------------------------------------------------------------------

def _cmd_edl(args):
    if args.tol is not None:
        qcore._check_tol(args.tol)
    doc = _load_json(args.state)
    state = state_from_json(doc)
    kind = doc["kind"]
    method = args.method
    if method is None:
        method = "analytic" if kind in ("dicke_diagonal", "symmetric") else "sdp"
    inputs = {"state": args.state, "kind": kind, "n": state.n, "method": method, "tol": args.tol}
    if method == "analytic":
        tol = 1e-9 if args.tol is None else args.tol
        if isinstance(state, symmetric.DickeMixture):
            res = symmetric.edl_diagonal(state, tol=tol)
        elif isinstance(state, symmetric.SymmetricCoeffs):
            res = symmetric.edl_symmetric(state, tol=tol)
        else:
            mat, n = _dense_matrix(state)
            res = symmetric.edl_symmetric(_coeffs_from_dense(mat, n), tol=tol)
        result = {"edl": res.value, "method": "analytic"}
        return result, res.certificate, [res.flag], inputs
    if method != "sdp":
        raise EdlkitError("BAD_KIND", "unknown method %r" % (method,))
    tol = wit.DEFAULT_TOL if args.tol is None else args.tol
    mat, _n = _dense_matrix(state)
    k, alpha, w = wit.edl_upper_bound(mat, tol=tol)
    result = {"edl": k, "alpha": alpha, "method": "sdp"}
    if k is None:
        return result, None, ["NOT_DETECTED"], inputs
    result["threshold"] = wit.noise_threshold(alpha, state.n)
    return result, {"witness": witness_to_json(w)}, ["SDP_BOUND"], inputs


def _cmd_sdl(args):
    doc = _load_json(args.state)
    state = state_from_json(doc)
    inputs = {"state": args.state, "kind": doc["kind"], "n": state.n}
    if isinstance(state, symmetric.SymmetricCoeffs) and state.is_diagonal():
        state = state.diagonal_mixture()
    if isinstance(state, symmetric.DickeMixture):
        res = symmetric.sdl_diagonal(state)
        result = {"sdl": res.lo if res.exact else None, "lo": res.lo, "hi": res.hi,
                  "exact": res.exact, "flag": res.flag}
        return result, res.certificate, [res.flag], inputs
    if isinstance(state, qcore.PureVector):
        k, levels = wit.determination_levels(state)
        result = {"sdl": k, "exact": False, "flag": "SDP_NUMERIC",
                  "alphas": {str(a): float(lv.alpha) for a, lv in levels.items()}}
        certs = {"levels": {str(a): {**_route_record(lv), "iterations": lv.iterations}
                            for a, lv in levels.items()}}
        return result, certs, ["SDP_NUMERIC"], inputs
    raise EdlkitError("BAD_KIND",
                      "determination length needs a diagonal symmetric or pure state")


def _cmd_marginal(args):
    state = state_from_json(_load_json(args.state))
    keep = _labels(args.keep)
    inputs = {"state": args.state, "keep": keep, "n": state.n}
    sub = qcore.Subset.from_indices(state.n, keep)
    if isinstance(state, symmetric.DickeMixture):
        # permutation invariance: every k-subset gives the same marginal
        out = symmetric.diagonal_marginal(state, sub.size)
    elif isinstance(state, symmetric.SymmetricCoeffs):
        out = symmetric.symmetric_marginal(state, sub.size)
    else:
        mat, _n = _dense_matrix(state)
        out = qcore.DenseState(sub.size, qcore.partial_trace(mat, sub), validate=False)
    doc = state_to_json(out)
    return {"n": doc["n"], "kind": doc["kind"], "state": doc}, None, [], inputs


def _cmd_witness(args):
    state = state_from_json(_load_json(args.state))
    mat, n = _dense_matrix(state)
    inputs = {"state": args.state, "n": n, "k": args.k}
    collection = hypergraph.all_k_subsets(n, args.k)
    alpha, w = wit.fully_decomposable_alpha(mat, collection)
    doc = witness_to_json(w)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        inputs["out"] = args.out
    result = {"alpha": alpha, "k": args.k}
    flags = []
    if wit.negative_by_margin(alpha):
        result["threshold"] = wit.noise_threshold(alpha, n)
    else:
        result["threshold"] = None
        flags.append("NOT_NEGATIVE")
    return result, {"witness": doc}, flags, inputs


def _cmd_verify_witness(args):
    w = witness_from_json(_load_json(args.witness))
    rho = None
    inputs = {"witness": args.witness, "n": w.n}
    if args.state:
        state = state_from_json(_load_json(args.state))
        rho, _n = _dense_matrix(state)
        inputs["state"] = args.state
    verdict = wit.verify_witness(w, rho)
    result = {"ok": verdict.ok, "trace": verdict.trace,
              "max_decomposition_dev": verdict.max_decomposition_dev,
              "min_certificate_eig": verdict.min_certificate_eig,
              "failures": verdict.failures, "value": verdict.value}
    return result, None, [], inputs


def _cmd_determine(args):
    state = state_from_json(_load_json(args.state))
    if not isinstance(state, qcore.PureVector):
        raise EdlkitError("BAD_KIND", "determine needs a pure_dense state")
    inputs = {"state": args.state, "n": state.n, "k": args.k}
    res = wit.pure_determination_alpha(state, hypergraph.all_k_subsets(state.n, args.k))
    determined = wit.determined_by_margin(res.alpha)
    certs = {"compatible_state": state_to_json(qcore.DenseState(state.n, res.rho, validate=False)),
             **_route_record(res),
             "solver": {"iterations": res.iterations, "primal_residual": res.primal_residual,
                        "dual_residual": res.dual_residual, "penalty": res.penalty}}
    return ({"alpha": res.alpha, "determined": determined, "k": args.k},
            certs, [], inputs)


def _cmd_transitivity(args):
    coll_doc = _load_json(args.collection)
    target = _labels(args.target)
    n = max(_collection_labels(coll_doc) + target)
    coll = collection_from_json(coll_doc, n)
    inputs = {"collection": args.collection, "target": target, "edl": args.edl, "n": n}
    query = hypergraph.TransitivityQuery(coll, tuple(target))
    holds, reasons = hypergraph.transitivity_certificate(query, args.edl)
    return {"holds": holds, "reasons": reasons}, None, [], inputs


def _cmd_min_collection(args):
    inputs = {"n": args.n, "k": args.k}
    count, coll = hypergraph.min_marginal_count(args.n, args.k)
    return {"count": count, "collection": coll.to_lists()}, None, [], inputs


def _cmd_graph_bounds(args):
    graph = graph_from_json(_load_json(args.graph))
    inputs = {"graph": args.graph, "n": graph.n, "edges": [list(e) for e in graph.edges]}
    bounds = graphstate.graph_bounds(graph)
    result = {"lo": bounds.lo, "hi": bounds.hi, "exact_hi": bounds.exact_hi}
    certs = {"orbit_min_max_degree": bounds.orbit.min_max_degree,
             "orbit_visited": bounds.orbit.visited,
             "orbit_exhausted": bounds.orbit.exhausted,
             "witness_edges": [list(e) for e in bounds.orbit.witness.edges]}
    return result, certs, [], inputs


def _cmd_gap_demo(args):
    inputs = {"family": args.family, "n": args.n}
    if args.family == "pure":
        alpha2 = 0.94 if args.alpha2 is None else args.alpha2
        if not alpha2 >= 0:
            raise EdlkitError("BAD_AMPLITUDE", "|alpha|^2 = %r is not a nonnegative number" % alpha2)
        inputs["alpha2"] = alpha2
        res = symmetric.gap_pure_family(args.n, math.sqrt(alpha2))
        result = {"family": "pure", "n": args.n, "edl": res.edl, "sdl": res.sdl, "gap": res.gap}
        certs = {"hankel_m0": res.hankel_m0,
                 "m0_min_eig": res.m0_min_eig,
                 "sigma_lambda": res.sigma.lam,
                 "sigma_compat_dev": res.sigma_compat_dev,
                 "state": state_to_json(res.psi)}
        return result, certs, [], inputs
    if args.family != "mixed":
        raise EdlkitError("BAD_KIND", "family must be pure or mixed")
    defaults = {3: ("1/12", "1/2", "1/3", "1/12"),
                4: ("1/24", "1/3", "1/2", "1/12", "1/24")}
    if args.lam is not None:
        lam = tuple(_parse_num(x) for x in args.lam.split(","))
    elif args.n in defaults:
        lam = tuple(Fraction(x) for x in defaults[args.n])
    else:
        raise EdlkitError("BAD_LAMBDA",
                          "no built-in weights for n=%d; pass --lam" % args.n)
    inputs["lambda"] = lam
    res = symmetric.gap_mixed_family(args.n, symmetric.DickeMixture(args.n, lam))
    result = {"family": "mixed", "n": args.n, "edl": res.edl, "sdl": res.sdl, "gap": res.gap}
    certs = {"quadratic_value": res.quadratic_value,
             "marginal2_value": res.marginal2_value,
             "ghz_block_amp": res.ghz_block_amp,
             "state": state_to_json(res.mix)}
    return result, certs, [], inputs


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="edlkit",
        description="Entanglement detection and state determination lengths "
                    "from small marginals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("edl", help="entanglement detection length")
    p.add_argument("--state", required=True)
    p.add_argument("--method", choices=("analytic", "sdp"))
    p.add_argument("--tol", type=float)
    p.set_defaults(func=_cmd_edl)

    p = sub.add_parser("sdl", help="state determination length")
    p.add_argument("--state", required=True)
    p.set_defaults(func=_cmd_sdl)

    p = sub.add_parser("marginal", help="reduced state on a subset")
    p.add_argument("--state", required=True)
    p.add_argument("--keep", required=True, help="comma-separated 1-based labels")
    p.set_defaults(func=_cmd_marginal)

    p = sub.add_parser("witness", help="fully decomposable witness from k-body marginals")
    p.add_argument("--state", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", help="write the witness JSON here")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify-witness", help="re-check a stored witness")
    p.add_argument("--witness", required=True)
    p.add_argument("--state")
    p.set_defaults(func=_cmd_verify_witness)

    p = sub.add_parser("determine", help="pure-state determination from k-body marginals")
    p.add_argument("--state", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_determine)

    p = sub.add_parser("transitivity", help="marginal-forcing certificate")
    p.add_argument("--collection", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--edl", type=int, required=True)
    p.set_defaults(func=_cmd_transitivity)

    p = sub.add_parser("min-collection", help="fewest connected k-subsets covering n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_min_collection)

    p = sub.add_parser("graph-bounds", help="determination bounds for a graph state")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_graph_bounds)

    p = sub.add_parser("gap-demo", help="families with detection/determination gap")
    p.add_argument("--family", choices=("pure", "mixed"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha2", type=float, help="|alpha|^2 for the pure family")
    p.add_argument("--lam", help="comma-separated weights for the mixed family")
    p.set_defaults(func=_cmd_gap_demo)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        result, certificates, flags, inputs = args.func(args)
    except EdlkitError as exc:
        doc = {"command": args.command,
               "error": {"code": exc.code, "message": exc.message},
               "timing_ms": (time.perf_counter() - start) * 1000.0}
        print(json.dumps(doc, indent=2, allow_nan=False))
        return 3 if exc.code in SOLVER_CODES else 2
    doc = {"command": args.command,
           "inputs": _jsonable(inputs),
           "result": _jsonable(result),
           "certificates": _jsonable(certificates),
           "flags": list(flags),
           "timing_ms": (time.perf_counter() - start) * 1000.0}
    print(json.dumps(doc, indent=2, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
