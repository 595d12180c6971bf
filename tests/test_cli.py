"""End-to-end command-line behavior through in-process main() calls."""

import json
from fractions import Fraction

import numpy as np
import pytest

from edlkit import cli, hypergraph, oracle, qcore, witness
from edlkit.errors import EdlkitError

ENVELOPE_KEYS = {"command", "inputs", "result", "certificates", "flags", "timing_ms"}


def reject_constant(name):
    raise ValueError("non-standard JSON constant %s" % name)


def run(capsys, *argv):
    """Exit code and parsed stdout of one CLI call; stdout must be standard JSON."""
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=reject_constant)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def diagonal_state(n, lam):
    return {"format": cli.STATE_FORMAT, "n": n, "kind": "dicke_diagonal",
            "rational": all(isinstance(x, str) for x in lam), "lambda": list(lam)}


def test_edl_single_dicke(tmp_path, capsys):
    path = write(tmp_path, "state.json", diagonal_state(5, ["0", "0", "1", "0", "0", "0"]))
    code, doc = run(capsys, "edl", "--state", path)
    assert code == 0
    assert set(doc) == ENVELOPE_KEYS
    assert doc["result"]["edl"] == 2
    assert doc["flags"] == ["EXACT"]
    assert doc["timing_ms"] >= 0


def test_sdl_rational_mixture(tmp_path, capsys):
    path = write(tmp_path, "state.json", diagonal_state(4, ["1/2", "0", "1/2", "0", "0"]))
    code, doc = run(capsys, "sdl", "--state", path)
    assert code == 0
    assert doc["result"]["sdl"] == 3
    assert doc["result"]["exact"] is True


def test_sdl_alternative_member_in_input_frame(tmp_path, capsys):
    lam = ["0", "0", "1/3", "1/6", "0", "0", "1/2", "0"]
    path = write(tmp_path, "state.json", diagonal_state(7, lam))
    code, doc = run(capsys, "sdl", "--state", path)
    assert code == 0
    cert = doc["certificates"]
    assert cert["route"] == "lp_bracket" and cert["flipped"] is True
    m, member = cert["alternative_level"], cert["alternative_member"]
    exact = [Fraction(x) for x in lam]
    assert min(member) >= -1e-12 and abs(sum(member) - 1) < 1e-12
    assert max(abs(a - float(b)) for a, b in zip(member, exact)) >= 1e-3
    got = oracle.diagonal_marginal_binomial(member, 7, m)
    want = oracle.diagonal_marginal_binomial(exact, 7, m)
    assert max(abs(a - float(b)) for a, b in zip(got, want)) < 1e-12


def test_marginal_rational_bit_exact(tmp_path, capsys):
    path = write(tmp_path, "state.json", diagonal_state(4, ["1/2", "0", "1/2", "0", "0"]))
    code, doc = run(capsys, "marginal", "--state", path, "--keep", "2,4")
    assert code == 0
    out_state = doc["result"]["state"]
    assert out_state["lambda"] == ["7/12", "1/3", "1/12"]
    # the emitted artifact is itself a valid input; reduce once more
    path2 = write(tmp_path, "marg.json", out_state)
    code, doc2 = run(capsys, "marginal", "--state", path2, "--keep", "1")
    assert code == 0
    lam = [Fraction(x) for x in doc2["result"]["state"]["lambda"]]
    # p(excited) = (1/3)/2 + 1/12
    assert lam == [Fraction(3, 4), Fraction(1, 4)]


def test_marginal_float_round_trip(tmp_path, capsys):
    values = [0.123456789012345, 0.3, 0.576543210987655, 0.0, 0.0]
    path = write(tmp_path, "state.json",
                 {"format": cli.STATE_FORMAT, "n": 4, "kind": "dicke_diagonal",
                  "rational": False, "lambda": values})
    code, doc = run(capsys, "marginal", "--state", path, "--keep", "1,2,3,4")
    assert code == 0
    emitted = doc["result"]["state"]["lambda"]
    assert all(isinstance(x, float) for x in emitted)
    assert max(abs(a - b) for a, b in zip(emitted, values)) < 1e-15


def test_marginal_dense_state(tmp_path, capsys):
    ghz = qcore.ghz_vector(3).to_density().matrix
    doc_in = {"format": cli.STATE_FORMAT, "n": 3, "kind": "dense",
              "rho_real": ghz.real.tolist(), "rho_imag": ghz.imag.tolist()}
    path = write(tmp_path, "ghz.json", doc_in)
    code, doc = run(capsys, "marginal", "--state", path, "--keep", "1,3")
    assert code == 0
    got = np.array(doc["result"]["state"]["rho_real"])
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[3, 3] = 0.5
    assert np.max(np.abs(got - expect)) < 1e-12


def test_edl_symmetric_coeffs(tmp_path, capsys):
    a = np.zeros((4, 4))
    a[0, 0] = a[3, 3] = a[0, 3] = a[3, 0] = 0.25
    a[1, 1] = 0.5
    path = write(tmp_path, "sym.json",
                 {"format": cli.STATE_FORMAT, "n": 3, "kind": "symmetric",
                  "a_real": a.tolist(), "a_imag": np.zeros((4, 4)).tolist()})
    code, doc = run(capsys, "edl", "--state", path)
    assert code == 0
    assert doc["result"]["edl"] == 3
    assert doc["flags"] == ["EXACT"]
    # dense files take the analytic route through their Dicke coefficients
    ghz = qcore.ghz_vector(3).to_density().matrix
    for idx, rho in enumerate((ghz, oracle.dense_from_symmetric(a, 3))):
        path = write(tmp_path, "dense%d.json" % idx,
                     {"format": cli.STATE_FORMAT, "n": 3, "kind": "dense",
                      "rho_real": rho.real.tolist(), "rho_imag": rho.imag.tolist()})
        code, doc = run(capsys, "edl", "--state", path, "--method", "analytic")
        assert code == 0, idx
        assert doc["result"]["edl"] == 3 and doc["flags"] == ["EXACT"], idx
    product = np.outer(qcore.basis_ket(3, "001"), qcore.basis_ket(3, "001")).real
    path = write(tmp_path, "product.json",
                 {"format": cli.STATE_FORMAT, "n": 3, "kind": "dense",
                  "rho_real": product.tolist(), "rho_imag": np.zeros((8, 8)).tolist()})
    code, doc = run(capsys, "edl", "--state", path, "--method", "analytic")
    assert code == 2
    assert doc["error"]["code"] == "BAD_KIND"


def test_edl_sdp_on_pure_state(tmp_path, capsys):
    amp = qcore.ghz_vector(3).amplitudes
    path = write(tmp_path, "psi.json",
                 {"format": cli.STATE_FORMAT, "n": 3, "kind": "pure_dense",
                  "amp_real": amp.real.tolist(), "amp_imag": amp.imag.tolist()})
    code, doc = run(capsys, "edl", "--state", path)
    assert code == 0
    assert doc["inputs"]["method"] == "sdp"
    assert doc["result"]["edl"] == 3
    assert doc["result"]["threshold"] == pytest.approx(4 / 7, abs=1e-3)
    assert doc["flags"] == ["SDP_BOUND"]


def test_sdl_pure_state_reports_level_routes(tmp_path, capsys):
    amp = qcore.PureVector(3, np.array([0, 1, 1, 0, 1, 0, 0, 0]) / np.sqrt(3)).amplitudes
    path = write(tmp_path, "w3.json",
                 {"format": cli.STATE_FORMAT, "n": 3, "kind": "pure_dense",
                  "amp_real": amp.real.tolist(), "amp_imag": amp.imag.tolist()})
    code, doc = run(capsys, "sdl", "--state", path)
    assert code == 0
    assert doc["result"]["sdl"] == 2
    assert doc["flags"] == ["SDP_NUMERIC"]
    levels = doc["certificates"]["levels"]
    assert set(levels) == {"1", "2"}
    assert levels["1"]["route"] == "full_program" and levels["1"]["face_dim"] == 8
    assert levels["1"]["gap"] is None and levels["1"]["iterations"] > 0
    assert levels["2"] == {"route": "face_injective", "face_dim": 2,
                           "gap": pytest.approx(1.0), "iterations": 0}


def test_witness_verify_pipeline(tmp_path, capsys):
    state_path = write(tmp_path, "state.json", diagonal_state(3, ["0", "1/2", "1/2", "0"]))
    out_path = str(tmp_path / "w.json")
    code, doc = run(capsys, "witness", "--state", state_path, "--k", "2",
                    "--out", out_path)
    assert code == 0
    assert doc["result"]["alpha"] < -1e-3
    assert 0 < doc["result"]["threshold"] < 1
    code, doc = run(capsys, "verify-witness", "--witness", out_path,
                    "--state", state_path)
    assert code == 0
    assert doc["result"]["ok"] is True
    assert doc["result"]["value"] < -1e-3


def test_witness_nonnegative_flag(tmp_path, capsys):
    # the maximally mixed diagonal state is separable: no negative witness
    path = write(tmp_path, "state.json", diagonal_state(3, ["1/4", "1/4", "1/4", "1/4"]))
    code, doc = run(capsys, "witness", "--state", path, "--k", "2")
    assert code == 0
    assert doc["result"]["threshold"] is None
    assert "NOT_NEGATIVE" in doc["flags"]


def test_witness_threshold_needs_detection_margin(tmp_path, capsys, monkeypatch):
    # a separable state solved past tol can land a hair below 0; only a value
    # past the margin of edl_upper_bound gets a noise threshold
    path = write(tmp_path, "state.json", diagonal_state(3, ["1/4", "1/4", "1/4", "1/4"]))
    for value, detected in ((-1e-12, False), (-1e-3, True)):
        w = witness.Witness(3, hypergraph.all_k_subsets(3, 2), value, [], [])
        monkeypatch.setattr(witness, "fully_decomposable_alpha", lambda mat, coll, w=w: (w.alpha, w))
        code, doc = run(capsys, "witness", "--state", path, "--k", "2")
        assert code == 0 and doc["result"]["alpha"] == value
        if detected:
            assert doc["result"]["threshold"] == witness.noise_threshold(value, 3)
            assert "NOT_NEGATIVE" not in doc["flags"]
        else:
            assert doc["result"]["threshold"] is None
            assert "NOT_NEGATIVE" in doc["flags"]


def test_witness_file_round_trip(tmp_path, capsys):
    state_path = write(tmp_path, "state.json", diagonal_state(3, ["0", "1/2", "1/2", "0"]))
    out_path = str(tmp_path / "w.json")
    run(capsys, "witness", "--state", state_path, "--k", "2", "--out", out_path)
    with open(out_path) as fh:
        doc = json.load(fh)
    w = cli.witness_from_json(doc)
    again = cli.witness_to_json(w)
    assert again == doc


def test_determine_command(tmp_path, capsys):
    amp = qcore.ghz_vector(3).amplitudes
    path = write(tmp_path, "psi.json",
                 {"format": cli.STATE_FORMAT, "n": 3, "kind": "pure_dense",
                  "amp_real": amp.real.tolist(), "amp_imag": amp.imag.tolist()})
    code, doc = run(capsys, "determine", "--state", path, "--k", "2")
    assert code == 0
    assert doc["result"]["determined"] is False
    assert doc["result"]["alpha"] < 1e-4
    sibling = doc["certificates"]["compatible_state"]
    assert sibling["kind"] == "dense" and len(sibling["rho_real"]) == 8
    solver = doc["certificates"]["solver"]
    assert set(solver) == {"iterations", "primal_residual", "dual_residual", "penalty"}
    assert isinstance(solver["iterations"], int) and solver["iterations"] > 0
    assert max(solver["primal_residual"], solver["dual_residual"]) <= 1e-6
    assert 1e-6 <= solver["penalty"] <= 1e6
    # decided on the face span{|000>, |111>}, with the sibling lifted back to 3 qubits
    assert doc["certificates"]["route"] == "face_program"
    assert doc["certificates"]["face_dim"] == 2 and doc["certificates"]["gap"] > 0
    rho = np.array(sibling["rho_real"]) + 1j * np.array(sibling["rho_imag"])
    ghz = qcore.ghz_vector(3).to_density().matrix
    for keep in ((1, 2), (1, 3), (2, 3)):
        sub = qcore.Subset.from_indices(3, keep)
        assert np.max(np.abs(qcore.partial_trace(rho, sub) - qcore.partial_trace(ghz, sub))) <= 1e-4
    code, doc = run(capsys, "determine", "--state", path, "--k", "3")
    assert code == 0
    assert doc["result"]["determined"] is True
    certs = doc["certificates"]
    assert certs["route"] == "face_rank1" and certs["face_dim"] == 1
    assert certs["solver"] == {"iterations": 0, "primal_residual": 0.0, "dual_residual": 0.0,
                               "penalty": None}


def test_transitivity_command(tmp_path, capsys):
    coll_path = write(tmp_path, "coll.json", [[1, 2, 3], [3, 4, 5]])
    code, doc = run(capsys, "transitivity", "--collection", coll_path,
                    "--target", "2,3,4", "--edl", "3")
    assert code == 0
    assert doc["result"]["holds"] is True
    code, doc = run(capsys, "transitivity", "--collection", coll_path,
                    "--target", "1,2", "--edl", "3")
    assert code == 0
    assert doc["result"]["holds"] is False and doc["result"]["reasons"]


def test_min_collection_command(capsys):
    code, doc = run(capsys, "min-collection", "--n", "5", "--k", "3")
    assert code == 0
    assert doc["result"]["count"] == 2
    assert all(len(s) == 3 for s in doc["result"]["collection"])


def test_graph_bounds_command(tmp_path, capsys):
    path = write(tmp_path, "g.json",
                 {"format": cli.GRAPH_FORMAT, "n": 4,
                  "edges": [[1, 2], [2, 3], [3, 4], [1, 4], [1, 3]]})
    code, doc = run(capsys, "graph-bounds", "--graph", path)
    assert code == 0
    assert (doc["result"]["lo"], doc["result"]["hi"]) == (3, 3)
    assert doc["certificates"]["orbit_min_max_degree"] == 2
    assert doc["certificates"]["witness_edges"]


def test_gap_demo_families(capsys):
    code, doc = run(capsys, "gap-demo", "--family", "pure", "--n", "5")
    assert code == 0
    assert (doc["result"]["edl"], doc["result"]["sdl"], doc["result"]["gap"]) == (2, 4, 2)
    assert doc["certificates"]["m0_min_eig"] < 0
    code, doc = run(capsys, "gap-demo", "--family", "mixed", "--n", "4")
    assert code == 0
    assert doc["result"]["gap"] == 2
    assert doc["certificates"]["quadratic_value"] < 0
    code, doc = run(capsys, "gap-demo", "--family", "mixed", "--n", "3")
    assert code == 0
    assert doc["result"]["gap"] == 1


def test_input_error_paths(tmp_path, capsys):
    code, doc = run(capsys, "edl", "--state", str(tmp_path / "missing.json"))
    assert code == 2
    assert doc["error"]["code"] == "BAD_FORMAT"

    path = write(tmp_path, "short.json", diagonal_state(4, ["1/2", "1/2"]))
    code, doc = run(capsys, "edl", "--state", path)
    assert code == 2
    assert doc["error"]["code"] == "DIM_MISMATCH"

    path = write(tmp_path, "kind.json",
                 {"format": cli.STATE_FORMAT, "n": 2, "kind": "stabilizer"})
    code, doc = run(capsys, "edl", "--state", path)
    assert code == 2
    assert doc["error"]["code"] == "BAD_KIND"

    path = write(tmp_path, "fmt.json", {"n": 2, "kind": "dicke_diagonal"})
    code, doc = run(capsys, "sdl", "--state", path)
    assert code == 2
    assert doc["error"]["code"] == "BAD_FORMAT"

    path = write(tmp_path, "num.json", diagonal_state(2, ["1/0", "0", "0"]))
    code, doc = run(capsys, "edl", "--state", path)
    assert code == 2
    assert doc["error"]["code"] == "BAD_FORMAT"

    # a JSON boolean is not an integer n
    bool_n = [
        ("marginal", "--state",
         {"format": cli.STATE_FORMAT, "n": True, "kind": "dicke_diagonal",
          "lambda": ["1/2", "1/2"]}, "--keep", "1"),
        ("verify-witness", "--witness",
         {"format": cli.WITNESS_FORMAT, "n": True, "alpha": -0.1,
          "blocks": [{"subset": [1], "h_real": [[1, 0], [0, 1]]}]}),
        ("graph-bounds", "--graph", {"format": cli.GRAPH_FORMAT, "n": True, "edges": []}),
    ]
    for idx, (command, flag, payload, *rest) in enumerate(bool_n):
        path = write(tmp_path, "bool_n%d.json" % idx, payload)
        code, doc = run(capsys, command, flag, path, *rest)
        assert code == 2, command
        assert doc["error"]["code"] == "DIM_MISMATCH", command
        assert "%s file" % flag[2:] in doc["error"]["message"], command

    # dense payload that is not a density matrix
    bad = np.eye(4).tolist()
    path = write(tmp_path, "dense.json",
                 {"format": cli.STATE_FORMAT, "n": 2, "kind": "dense",
                  "rho_real": bad, "rho_imag": np.zeros((4, 4)).tolist()})
    code, doc = run(capsys, "edl", "--state", path)
    assert code == 2
    assert doc["error"]["code"] == "NOT_DENSITY"

    # malformed artifacts: each is an input error, not a crash
    eye2 = [[1, 0], [0, 1]]
    malformed = [
        ("transitivity", "--collection", [1, 2], "--target", "1,2", "--edl", "2"),
        ("transitivity", "--collection", {"a": [1]}, "--target", "1,2", "--edl", "2"),
        ("verify-witness", "--witness",
         {"format": cli.WITNESS_FORMAT, "n": 1, "alpha": -0.1,
          "blocks": [{"h_real": eye2}], "certificates": []}),
        ("verify-witness", "--witness",
         {"format": cli.WITNESS_FORMAT, "n": 1, "alpha": -0.1,
          "blocks": [{"subset": [1], "h_real": eye2}],
          "certificates": [{"p_real": eye2, "q_real": eye2}]}),
        ("verify-witness", "--witness",
         {"format": cli.WITNESS_FORMAT, "n": 1, "alpha": "x",
          "blocks": [{"subset": [1], "h_real": eye2}]}),
        ("graph-bounds", "--graph", {"format": cli.GRAPH_FORMAT, "n": 3, "edges": [[1]]}),
        ("marginal", "--state",
         {"format": cli.STATE_FORMAT, "n": 1, "kind": "dense", "rho_real": [[1, 0], [0]]},
         "--keep", "1"),
    ]
    for idx, (command, flag, payload, *rest) in enumerate(malformed):
        path = write(tmp_path, "malformed%d.json" % idx, payload)
        code, doc = run(capsys, command, flag, path, *rest)
        assert code == 2, command
        assert doc["error"]["code"] == "BAD_FORMAT", command

    # non-finite numbers (JSON NaN literals) are refused, not propagated
    nan = float("nan")
    non_finite = [
        ("edl", {"format": cli.STATE_FORMAT, "n": 2, "kind": "dicke_diagonal",
                 "lambda": [0.5, nan, 0.5]}, "BAD_WEIGHT"),
        ("marginal", {"format": cli.STATE_FORMAT, "n": 1, "kind": "symmetric",
                      "a_real": [[0.5, nan], [nan, 0.5]]}, "BAD_WEIGHT"),
        ("marginal", {"format": cli.STATE_FORMAT, "n": 1, "kind": "pure_dense",
                      "amp_real": [1.0, nan]}, "DIM_MISMATCH"),
    ]
    for idx, (command, payload, want) in enumerate(non_finite):
        name = "non_finite%d.json" % idx
        path = write(tmp_path, name, payload)
        assert "NaN" in (tmp_path / name).read_text()
        extra = ["--keep", "1"] if command == "marginal" else []
        code, doc = run(capsys, command, "--state", path, *extra)
        assert code == 2, payload
        assert doc["error"]["code"] == want, payload

    # a marginal on labels outside 1..n is refused for every state kind
    path = write(tmp_path, "dicke.json", diagonal_state(2, ["1", "0", "0"]))
    for keep in ("1,5", "0"):
        code, doc = run(capsys, "marginal", "--state", path, "--keep", keep)
        assert code == 2
        assert doc["error"]["code"] == "BAD_VERTEX"
    # and a repeated label is refused, not read as the one-particle marginal
    code, doc = run(capsys, "marginal", "--state", path, "--keep", "1,1")
    assert code == 2
    assert doc["error"]["code"] == "DIM_MISMATCH"


def test_sdl_rejects_dense_mixed_state(tmp_path, capsys):
    rho = np.eye(8) / 8
    path = write(tmp_path, "dense.json",
                 {"format": cli.STATE_FORMAT, "n": 3, "kind": "dense",
                  "rho_real": rho.tolist(), "rho_imag": np.zeros((8, 8)).tolist()})
    code, doc = run(capsys, "sdl", "--state", path)
    assert code == 2
    assert doc["error"]["code"] == "BAD_KIND"


def test_solver_failures_exit_three(tmp_path, capsys, monkeypatch):
    def boom(*_a, **_k):
        raise EdlkitError("MAX_ITER", "splitting did not converge")

    monkeypatch.setattr(cli.wit, "fully_decomposable_alpha", boom)
    path = write(tmp_path, "state.json", diagonal_state(3, ["0", "1/2", "1/2", "0"]))
    code, doc = run(capsys, "witness", "--state", path, "--k", "2")
    assert code == 3
    assert doc["error"]["code"] == "MAX_ITER"
    assert "converge" in doc["error"]["message"]


def test_edl_rejects_bad_tolerance(tmp_path, capsys, monkeypatch):
    # refused before any work: neither the solver nor the analytic route runs
    def never(*_a, **_k):
        raise AssertionError("ran with a bad tolerance")

    monkeypatch.setattr(cli.wit, "edl_upper_bound", never)
    monkeypatch.setattr(cli.symmetric, "edl_diagonal", never)
    rho = np.eye(8) / 8
    dense = write(tmp_path, "dense.json",
                  {"format": cli.STATE_FORMAT, "n": 3, "kind": "dense",
                   "rho_real": rho.tolist(), "rho_imag": np.zeros((8, 8)).tolist()})
    dicke = write(tmp_path, "dicke.json", diagonal_state(3, ["0", "1", "0", "0"]))
    for path, method in ((dense, "sdp"), (dicke, "analytic")):
        for tol in ("-1", "nan", "inf", "-inf", "-1e-12"):
            code, doc = run(capsys, "edl", "--state", path, "--method", method, "--tol=" + tol)
            assert code == 2, (method, tol)
            assert doc["error"]["code"] == "BAD_TOL", (method, tol)
    # tol = 0 stays legal
    monkeypatch.undo()
    code, doc = run(capsys, "edl", "--state", dicke, "--tol", "0")
    assert code == 0 and doc["result"]["edl"] == 2


def test_gap_demo_rejects_unknown_mixed_size(capsys):
    code, doc = run(capsys, "gap-demo", "--family", "mixed", "--n", "6")
    assert code == 2
    assert doc["error"]["code"] == "BAD_LAMBDA"


def test_gap_demo_rejects_negative_amplitude(capsys):
    code, doc = run(capsys, "gap-demo", "--family", "pure", "--n", "5", "--alpha2", "-1")
    assert code == 2
    assert doc["error"]["code"] == "BAD_AMPLITUDE"


def test_verify_witness_without_certificates_prints_null(tmp_path, capsys):
    h = np.eye(4) / 4
    path = write(tmp_path, "w.json",
                 {"format": cli.WITNESS_FORMAT, "n": 2, "alpha": None, "certificates": [],
                  "blocks": [{"subset": [1, 2], "h_real": h.tolist(), "h_imag": (0 * h).tolist()}]})
    code, doc = run(capsys, "verify-witness", "--witness", path)
    assert code == 0
    assert doc["result"]["ok"] is False
    assert doc["result"]["min_certificate_eig"] is None


def test_edl_sdp_refuses_one_qubit(tmp_path, capsys):
    rho = np.eye(2) / 2
    path = write(tmp_path, "one.json",
                 {"format": cli.STATE_FORMAT, "n": 1, "kind": "dense",
                  "rho_real": rho.tolist(), "rho_imag": (0 * rho).tolist()})
    code, doc = run(capsys, "edl", "--state", path, "--method", "sdp")
    assert code == 2
    assert doc["error"] == {"code": "DIM_MISMATCH", "message": "need n >= 2"}
    with pytest.raises(EdlkitError) as err:
        witness.edl_upper_bound(rho)
    assert err.value.code == "DIM_MISMATCH"


def test_witness_refuses_one_qubit(tmp_path, capsys):
    rho = np.eye(2) / 2
    path = write(tmp_path, "one.json",
                 {"format": cli.STATE_FORMAT, "n": 1, "kind": "dense",
                  "rho_real": rho.tolist(), "rho_imag": (0 * rho).tolist()})
    code, doc = run(capsys, "witness", "--state", path, "--k", "1")
    assert code == 2
    assert doc["error"]["code"] == "DIM_MISMATCH"


def test_jsonable_maps_non_finite_floats_to_null():
    nan, inf = float("nan"), float("inf")
    assert cli._jsonable({"a": nan, "b": [inf, -inf, 1.5], "c": np.float64(nan)}) == \
        {"a": None, "b": [None, None, 1.5], "c": None}
    assert cli._jsonable(np.array([1.0, nan])) == [1.0, None]
    assert cli._jsonable(np.array([complex(1, inf)])) == {"real": [1.0], "imag": [None]}
    assert cli._jsonable(complex(nan, 2)) == {"real": None, "imag": 2.0}


def test_parse_num_agrees_with_fraction_parser():
    # ASCII integers and "p/q" take a fast path; every other string goes to Fraction(x)
    for text in ("3/-4", " 1/2 ", "1/0", "+3/4", "1e3", "0.5", "-0/5", "41/211", "-7", "007/010",
                 "1_000", "١/2", "--1", "1/", "/2", ""):
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(EdlkitError) as err:
                cli._parse_num(text)
            assert err.value.code == "BAD_FORMAT", text
            continue
        got = cli._parse_num(text)
        assert type(got) is Fraction and got == want, text


def test_jsonable_keeps_plain_types_and_converts_numpy_scalars():
    out = cli._jsonable([True, np.bool_(False), 7, np.int64(3), 0.5, np.float64(0.25), "s", None,
                         Fraction(-3, 4)])
    assert out == [True, False, 7, 3, 0.5, 0.25, "s", None, "-3/4"]
    assert [type(x) for x in out] == [bool, bool, int, int, float, float, str, type(None), str]
