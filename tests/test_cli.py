import io
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from pluriflow import cli, nilflow
from pluriflow.brackets import LieBracket, basis_change_action
from pluriflow.catalog import catalog_names, get_entry
from pluriflow.sampling import random_two_step_skt
from pluriflow.serialize import dumps_json, format_float, write_csv


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "pluriflow.cli", *args], capture_output=True, text=True, **kw
    )


def test_check_shrink10_fragment():
    out = run_cli(["check", "catalog:shrink10"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["classification"]["case"] == "vi"
    assert doc["soliton"]["kind"] == "SHRINKING"
    assert doc["soliton"]["alpha"] == 1.0


def test_check_steady10_fragment():
    doc = json.loads(run_cli(["check", "catalog:steady10"]).stdout)
    assert doc["classification"]["case"] == "v"
    assert doc["soliton"]["kind"] == "STEADY"
    assert doc["soliton"]["alpha"] == 0.0


def test_check_sab_fragment():
    doc = json.loads(run_cli(["check", "catalog:s_ab(1, pi/2)"]).stdout)
    assert doc["classification"]["case"] == "iii"
    assert doc["classification"]["unimodular"] is True
    assert doc["soliton"]["kind"] == "EXPANDING"


def test_check_require_skt_exit_code(tmp_path):
    bad = {"a": 0.0, "v": [0.0, 0.0], "A": [[1.0, 0.0], [0.0, 1.0]], "J1": "standard"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    out = run_cli(["check", str(path), "--require-skt"])
    assert out.returncode == 2
    out = run_cli(["check", str(path)])
    assert out.returncode == 0
    assert json.loads(out.stdout)["skt"]["is_skt"] is False


def test_check_schema_violation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 4, "entries": [{"i": 3, "j": 2, "k": 1, "c": 1.0}]}')
    out = run_cli(["check", str(path)])
    assert out.returncode != 0
    assert "i < j" in out.stderr


def test_check_bad_catalog_parameter_exits_cleanly():
    out = run_cli(["check", "catalog:s_ab(ip, 1)"])
    assert out.returncode != 0
    assert "Traceback" not in out.stderr
    assert len(out.stderr.strip().splitlines()) == 1


def test_check_reports_a_nilpotent_almost_abelian_input_in_a_note():
    out = run_cli(["check", "catalog:s_ab(0,0)"])
    assert out.returncode == 0
    assert "Traceback" not in out.stderr
    doc = json.loads(out.stdout)
    assert doc["skt"]["is_skt"] is True
    assert "classification" not in doc
    assert doc["note"].startswith("nilpotent case (a, A) = (0, 0)")
    # zeros print unsigned, however the number was reached
    assert not re.search(r"-0\b(?!\.)", out.stdout), out.stdout
    assert doc["soliton"]["alpha"] == 0.0 and format_float(-0.0) == "0"


def test_input_between_the_skt_criteria_tolerances(tmp_path):
    # closure residual 1.4e-8 above 1e-9, real-part deviation 1e-8 below 1e-7
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps({"a": 1.0, "v": [0.1, 0.0], "A": [[1e-8, 0], [0, 1e-8]], "J1": [[0, -1], [1, 0]]}))
    out = run_cli(["check", str(path)])
    assert out.returncode == 0
    assert "Traceback" not in out.stderr
    assert json.loads(out.stdout)["skt"]["is_skt"] is False
    out = run_cli(["flow", str(path)])
    assert out.returncode == 1
    assert out.stderr.splitlines() == [f"{path}: initial condition is not pluriclosed"]


def test_flow_rejects_bad_nilpotent_input_cleanly(tmp_path):
    inputs = {
        # [e1, e2] = e3, [e1, e3] = e4: the pairwise J is not integrable for it
        "three_step.json": ([[1, 2, 3], [1, 3, 4]], 6, "schema violation: complex structure is not integrable"),
        # [e1, e3] = e2: N_J(e1, e3) = e2 for the pairwise J
        "j_moves_centre.json": ([[1, 3, 2]], 4, "schema violation: complex structure is not integrable"),
        # [e1, e2] = e3, [e1, e3] = e5, [e1, e4] = e6: N_J = 0, and the derived
        # algebra exceeds the centre span(e5, e6)
        "three_step_integrable.json": ([[1, 2, 3], [1, 3, 5], [1, 4, 6]], 6, "not 2-step"),
    }
    for name, (entries, dim, reason) in inputs.items():
        path = tmp_path / name
        path.write_text(json.dumps({"dim": dim, "entries": [{"i": i, "j": j, "k": k, "c": 1} for i, j, k in entries]}))
        out = run_cli(["flow", str(path)])
        assert out.returncode == 1
        lines = out.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{path}: ") and reason in lines[0]


def test_flow_rejects_non_lie_bracket(tmp_path):
    # [e1, e2] = e3, [e3, e4] = e1: the Jacobi sum on (e1, e2, e4) is e1, a
    # quarter of |mu|^2 = 4
    path = tmp_path / "non_lie.json"
    path.write_text(json.dumps({"dim": 4, "entries": [{"i": 1, "j": 2, "k": 3, "c": 1}, {"i": 3, "j": 4, "k": 1, "c": 1}]}))
    out = run_cli(["flow", str(path), "--horizon", "1"])
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.strip().splitlines() == [f"{path}: bracket violates the Jacobi identity"]


def test_check_nilpotent_bracket(tmp_path):
    path = tmp_path / "kodaira.json"
    path.write_text(json.dumps({"dim": 4, "entries": [{"i": 1, "j": 2, "k": 3, "c": 1.0}]}))
    doc = json.loads(run_cli(["check", str(path)]).stdout)
    assert doc["skt"]["is_skt"] is True
    assert abs(doc["tr_P"] + 1.0) < 1e-12
    assert doc["soliton"]["residual"] < 1e-10


def test_check_reports_extinction_time():
    shrink = json.loads(run_cli(["check", "catalog:shrink10"]).stdout)["classification"]
    steady = json.loads(run_cli(["check", "catalog:steady10"]).stdout)["classification"]
    assert shrink["extinction_time"] == 0.5 and shrink["predicted_T"] == "FINITE"
    assert steady["extinction_time"] == float("inf") and steady["predicted_T"] == "INFINITE"


def test_flow_blowup_summary(tmp_path):
    out = run_cli(
        ["flow", "catalog:shrink10", "--horizon", "1", "--samples", "6", "--out", str(tmp_path / "t.csv")]
    )
    assert out.returncode == 0
    assert "BLOWUP" in out.stderr
    assert " T_est=0.5 " in out.stderr  # the exact extinction time 1/2
    header = (tmp_path / "t.csv").read_text().splitlines()[0]
    assert header == "t,a,v_norm,A_norm,c,skt_residual,normality_defect"


def test_flow_steady_horizon(tmp_path):
    out = run_cli(
        ["flow", "catalog:steady10", "--horizon", "100", "--samples", "5", "--out", str(tmp_path / "s.csv")]
    )
    assert "HORIZON" in out.stderr
    rows = (tmp_path / "s.csv").read_text().splitlines()
    first = rows[1].split(",")
    for row in rows[2:]:
        assert row.split(",")[1:] == first[1:]  # all columns constant


def test_flow_nonfinite_field_exits_nonzero(monkeypatch, capsys):
    # the unnormalized 2-step flow shrinks the bracket; below 0.9 times its
    # initial norm the field turns NaN, which must not end like a step collapse
    field = nilflow.NilFlow.field

    def nan_past_limit(self, x):
        out = field(self, x)
        return out if np.linalg.norm(x) > limit else np.full_like(out, np.nan)

    limit = 0.9 * np.sqrt(2.0)  # kodaira: one structure constant 1, ordered-pair norm sqrt(2)
    monkeypatch.setattr(nilflow.NilFlow, "field", nan_past_limit)
    rc = cli.main(["flow", "catalog:kodaira", "--horizon", "100"])
    err = capsys.readouterr().err
    assert rc != 0
    assert err.startswith("terminal NONFINITE at t=")


def test_flow_kodaira_fixed_point():
    out = run_cli(["flow", "catalog:kodaira", "--mode", "normalized", "--horizon", "50"])
    assert "FIXED_POINT" in out.stderr
    assert "soliton_residual=" in out.stderr
    header = out.stdout.splitlines()[0]
    assert header == "t,mu_norm,F,tr_P,center_drift,skt_residual"


def test_flow_summary_counts_field_calls():
    out = run_cli(["flow", "catalog:kodaira", "--horizon", "10"])
    counts = {k: int(re.search(rf" {k}=(\d+)", out.stderr)[1]) for k in ("accepted", "rejected", "field_calls")}
    assert counts["accepted"] > 0
    # the field at the start, one call to pick the first step, twelve per trial
    assert counts["field_calls"] == 2 + 12 * (counts["accepted"] + counts["rejected"])


def test_cli_determinism():
    a = run_cli(["check", "catalog:steady10"])
    b = run_cli(["check", "catalog:steady10"])
    assert a.stdout == b.stdout


def test_sweep_entries_match_check(capsys):
    assert cli.main(["sweep"]) == 0
    sweep = json.loads(capsys.readouterr().out)
    assert list(sweep) == catalog_names()
    for name in catalog_names():
        assert cli.main(["check", f"catalog:{name}"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc.pop("input") == f"catalog:{name}"
        assert dumps_json(doc) == dumps_json(sweep[name]), name


def test_catalog_listing():
    doc = json.loads(run_cli(["catalog"]).stdout)
    names = [row["name"] for row in doc]
    assert names == sorted(names)
    assert "shrink10" in names and "kodaira" in names


def test_verify_identities_inprocess(capsys):
    rc = cli.main(["verify", "--suite", "identities"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True


def test_format_float_17_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"
    x = 1 / 3
    assert float(format_float(x)) == x


def test_dumps_json_stable():
    doc = {"b": [1.0, 2.5], "a": {"x": True, "y": None}}
    assert dumps_json(doc) == dumps_json(doc)
    parsed = json.loads(dumps_json(doc))
    assert parsed == {"b": [1.0, 2.5], "a": {"x": True, "y": None}}


def test_dumps_json_escapes_strings_and_keys():
    text = 'a\nb\tc "q" back\\slash \u00e9\u03bc\u2603'
    doc = {text: [text, {"k": text}], "plain": "x"}
    out = dumps_json(doc)
    assert json.loads(out) == doc
    assert "\u00e9\u03bc\u2603" in out  # non-ASCII text is written as is
    assert dumps_json({"a": "b"}) == '{\n  "a": "b"\n}\n'


def test_check_on_a_path_with_a_tab(tmp_path, capsys):
    path = tmp_path / "in\tput.json"
    path.write_text(json.dumps(get_entry("steady10").data.to_json_dict()))
    assert cli.main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["input"] == str(path)


def test_write_csv_special_values_and_column_types():
    cols = {
        "x": np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 0.1]),
        "n": np.array([1, -2, 0, 3, 2**53 + 1, 7, 10**15], dtype=np.int64),
        "b": np.array([True, False, True, False, True, False, True]),
    }
    buf = io.StringIO()
    text = write_csv(buf, cols)
    assert buf.getvalue() == text
    assert text == (
        "x,n,b\n"
        "NaN,1,1\n"
        "Infinity,-2,0\n"
        "-Infinity,0,1\n"
        "0,3,0\n"
        "4.9406564584124654e-324,9007199254740992,1\n"
        "1e+308,7,0\n"
        "0.10000000000000001,1000000000000000,1\n"
    )
    assert write_csv(io.StringIO(), {"t": [0.5, 2]}) == "t\n0.5\n2\n"
    assert write_csv(io.StringIO(), {}) == "\n"


def _csv_oracle(columns: dict) -> str:
    """The per-value writer: format_float on every cell, row by row."""
    names = list(columns)
    floats = [np.asarray(columns[n], dtype=float).tolist() for n in names]
    lines = [",".join(names)] + [",".join(map(format_float, row)) for row in zip(*floats)]
    return "\n".join(lines) + "\n"


def test_write_csv_matches_the_per_value_writer(rng):
    repeats = rng.choice(rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40), size=(5, 600))
    bits = rng.integers(0, 2**64, size=3000, dtype=np.uint64).view(float)  # every class of double, NaNs too
    cases = [
        {f"c{i}": col for i, col in enumerate(repeats)},
        {"a": np.array([-0.0, 1.0, 0.0, -0.0]), "b": np.array([0.0, -0.0, -0.0, 2.0])},
        {"x": np.array([np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308, np.nan, np.inf])},
        {"bits": bits[:1500], "more": bits[1500:]},
        {"n": np.array([2**53 + 1, 2**62 + 12345, -(2**63), 7], dtype=np.int64), "b": [True, False, True, True]},
        {"t": np.linspace(0.0, 1.0, 129)},
        {"t": [], "a": np.array([])},
        {},
    ]
    for cols in cases:
        assert write_csv(io.StringIO(), cols) == _csv_oracle(cols), list(cols)


def test_write_csv_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError, match=r"'t': 3, 'a': 2"):
        write_csv(io.StringIO(), {"t": [0.0, 1.0, 2.0], "a": [1.0, 2.0]})


def test_flow_rejects_bad_numbers_with_usage_error(capsys):
    bad = [
        ["--horizon", "nan"], ["--horizon", "-1"], ["--horizon", "0"], ["--horizon", "inf"],
        ["--rel-tol", "0"], ["--abs-tol", "-1e-12"], ["--rel-tol", "nan"],
        ["--samples", "-3"], ["--samples", "2.5"],
    ]
    for extra in bad:
        with pytest.raises(SystemExit) as exc:
            cli.main(["flow", "catalog:shrink10", *extra])
        assert exc.value.code == 2, extra
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"argument {extra[0]}" in err, extra


def test_verify_rejects_negative_seed_with_usage_error(capsys):
    for seed in ("-1", "2.5", "x"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "appendix", "--seed", seed])
        assert exc.value.code == 2, seed
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "argument --seed" in err, seed


def test_flow_rejects_non_pluriclosed_almost_abelian(tmp_path):
    path = tmp_path / "generic.json"
    path.write_text(json.dumps({"a": 0.0, "v": [0.0, 0.0], "A": [[1.0, 0.0], [0.0, 1.0]], "J1": "standard"}))
    out = run_cli(["flow", str(path), "--horizon", "1"])
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.strip().splitlines() == [f"{path}: initial condition is not pluriclosed"]


_NAN, _INF = float("nan"), float("inf")
_AA = {"a": 1.0, "v": [0.1, 0.0], "A": [[-0.5, 0.0], [0.0, -0.5]], "J1": [[0.0, -1.0], [1.0, 0.0]]}
_NONFINITE_INPUTS = {
    "nan_j1": ({**_AA, "J1": [[0.0, -1.0], [1.0, _NAN]]}, "schema violation: J^2 != -Id"),
    "nan_A": ({**_AA, "A": [[_NAN, 0.0], [0.0, -0.5]]}, "schema violation: a, v and A must be finite"),
    "inf_v": ({**_AA, "v": [_INF, 0.2]}, "schema violation: a, v and A must be finite"),
    "nan_c": ({"dim": 4, "entries": [{"i": 1, "j": 2, "k": 3, "c": _NAN}]}, "schema violation: structure tensor"),
    # finite input whose field overflows to NaN at the start
    "big_c": ({"dim": 4, "entries": [{"i": 1, "j": 2, "k": 3, "c": 1e200}]}, "terminal NONFINITE at t=0 "),
    # finite input whose |v|^2 overflows
    "big_v": ({**_AA, "v": [1e160, 0.0]}, "the reduced flow overflows: a row is not finite"),
}


@pytest.mark.parametrize(
    "command, name",
    [(c, n) for n in ("nan_j1", "nan_A", "inf_v", "nan_c") for c in ("check", "flow")] + [("flow", "big_c"), ("flow", "big_v")],
)
def test_nonfinite_and_overflowing_input_exits_1(tmp_path, command, name):
    obj, message = _NONFINITE_INPUTS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    out = run_cli([command, str(path)], timeout=30)
    assert out.returncode == 1, out.stderr
    assert "Traceback" not in out.stderr
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1 and message in lines[0], lines


@pytest.mark.parametrize("name", ["big_c", "big_v"])
def test_check_refuses_arithmetic_overflow(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_NONFINITE_INPUTS[name][0]))
    out = run_cli(["check", str(path)], timeout=30)
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.strip().splitlines() == [f"{path}: arithmetic overflow"]


def test_check_allows_an_infinite_extinction_time():
    report = {"classification": {"extinction_time": float("inf")}, "alpha": 0.5}
    assert not cli._overflowed(report)
    assert cli._overflowed({**report, "spectrum": [[0.0, float("nan")]]})
    assert cli._overflowed({"classification": {"extinction_time": float("nan")}})


def test_normalized_flow_names_the_overflow(tmp_path):
    path = tmp_path / "big_c.json"
    path.write_text(json.dumps(_NONFINITE_INPUTS["big_c"][0]))
    out = run_cli(["flow", str(path), "--mode", "normalized"], timeout=30)
    assert out.returncode == 1 and "Traceback" not in out.stderr
    assert out.stderr.strip().splitlines() == [f"{path}: arithmetic overflow: the bracket's norm is not finite"]


# [e1, e3] = [e2, e4] = e5 on R^6 with the pairwise J: 2-step, centre span(e5, e6),
# J integrable, and max|dc| / |mu|^2 = 1/2, so not pluriclosed at any scale
_NON_SKT_TWO_STEP = [(1, 3, 5), (2, 4, 5)]


def _two_step_json(path, entries, scale=1.0):
    path.write_text(json.dumps({"dim": 6, "entries": [{"i": i, "j": j, "k": k, "c": scale} for i, j, k in entries]}))
    return path


def test_check_skt_verdict_is_scale_invariant(tmp_path, rng):
    # dc is quadratic in the bracket: a raw threshold calls a large SKT bracket
    # non-SKT and a small non-SKT bracket SKT
    mu, _ = random_two_step_skt(rng, blocks=4, dim_z=6)
    big = tmp_path / "big_skt.json"
    big.write_text(json.dumps(LieBracket(1e4 * mu.coeffs).to_json_dict()))
    small = _two_step_json(tmp_path / "small_non_skt.json", _NON_SKT_TWO_STEP, scale=1e-5)
    for path, want in ((big, True), (small, False)):
        skt = json.loads(run_cli(["check", str(path)]).stdout)["skt"]
        assert skt["is_skt"] is want, path.name
        # dc_residual stays the raw max coefficient, on the other side of the tolerance
        assert (skt["dc_residual"] < 1e-8) is not want, path.name


def test_flow_rejects_non_pluriclosed_two_step(tmp_path):
    path = _two_step_json(tmp_path / "generic.json", _NON_SKT_TWO_STEP)
    out = run_cli(["flow", str(path), "--horizon", "1"])
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.strip().splitlines() == [f"{path}: initial condition is not pluriclosed"]


def _check_doc(path, capsys):
    assert cli.main(["check", str(path)]) == 0
    return json.loads(capsys.readouterr().out)


def test_check_soliton_fit_is_scale_invariant(tmp_path, capsys):
    # the d = 8 bracket is no soliton (residual 0.73), and alpha and the
    # residual are quadratic in the bracket; a certificate that judged it at
    # a scale-free cutoff could call it a soliton at 1e-9
    mu, _ = random_two_step_skt(np.random.default_rng(3), 2, 4)
    s = 1e-9
    docs = []
    for scale in (1.0, s):
        path = tmp_path / f"bracket_{scale:g}.json"
        path.write_text(json.dumps(LieBracket(scale * mu.coeffs).to_json_dict()))
        docs.append(_check_doc(path, capsys))
    unit, small = docs
    assert small["skt"]["is_skt"] is unit["skt"]["is_skt"] is True
    assert abs(small["soliton"]["alpha"] / s**2 - unit["soliton"]["alpha"]) <= 1e-12 * abs(unit["soliton"]["alpha"])
    assert unit["soliton"]["residual"] > 0.5
    assert abs(small["soliton"]["residual"] / s**2 - unit["soliton"]["residual"]) <= 1e-10 * unit["soliton"]["residual"]


def _rotated_pair(tmp_path):
    # the bracket conjugated by an orthogonal Q, with J = Q J0 Q^t, is the same
    # Hermitian Lie algebra in another orthonormal basis
    rng = np.random.default_rng(4)
    mu, frame = random_two_step_skt(rng, blocks=3, dim_z=4)
    q, _ = np.linalg.qr(rng.standard_normal((mu.dim, mu.dim)))
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(mu.to_json_dict()))
    rotated = tmp_path / "rotated.json"
    rotated.write_text(json.dumps({**basis_change_action(q, mu).to_json_dict(), "J": (q @ frame.J @ q.T).tolist()}))
    return plain, rotated


def test_check_takes_a_rotated_j(tmp_path, capsys):
    plain, rotated = _rotated_pair(tmp_path)
    want, got = _check_doc(plain, capsys), _check_doc(rotated, capsys)
    assert got["skt"]["is_skt"] is want["skt"]["is_skt"] is True
    assert abs(got["tr_P"] - want["tr_P"]) <= 1e-12 * abs(want["tr_P"])
    assert abs(got["soliton"]["alpha"] - want["soliton"]["alpha"]) <= 1e-10 * abs(want["soliton"]["alpha"])


def _flow_table(path, capsys, args):
    assert cli.main(["flow", str(path), *args]) == 0
    out, err = capsys.readouterr()
    header, *rows = out.splitlines()
    return header, np.array([[float(x) for x in row.split(",")] for row in rows]), err.split()


def test_flow_takes_a_rotated_j(tmp_path, capsys):
    # flow runs the rotated bracket through the j-map state, skt_residual and
    # the certificate under the general J; the basis-invariant columns agree
    plain, rotated = _rotated_pair(tmp_path)
    for args, event in ((["--horizon", "1", "--samples", "10"], "HORIZON"),
                        (["--mode", "normalized", "--horizon", "2000", "--samples", "12"], "FIXED_POINT")):
        header, want, want_summary = _flow_table(plain, capsys, args)
        got_header, got, got_summary = _flow_table(rotated, capsys, args)
        assert got_header == header == "t,mu_norm,F,tr_P,center_drift,skt_residual"
        assert want_summary[:2] == got_summary[:2] == ["terminal", event], args
        assert got.shape == want.shape
        # the sample times agree, but for a fixed point's own time
        assert np.array_equal(got[:-1, 0], want[:-1, 0])
        for col in (1, 2, 3):
            assert np.allclose(got[:, col], want[:, col], rtol=1e-9, atol=0), (args, header.split(",")[col])
        # both flows stay pluriclosed: the residual is roundoff against |mu|^2
        assert np.all(got[:, 5] <= 1e-9 * got[:, 1] ** 2)
        if event == "FIXED_POINT":
            residual = [float(w.split("=")[1]) for w in got_summary if w.startswith("soliton_residual=")]
            assert residual and residual[0] < 1e-9


def test_bracket_j_schema_violations(tmp_path):
    j0 = np.array([[0.0, -1.0], [1.0, 0.0]])
    swap = np.zeros((4, 4))
    swap[2, 0] = swap[3, 1] = 1.0
    swap[0, 2] = swap[1, 3] = -1.0
    bad = {
        "shape": (j0, "J must be 4 x 4, got 2 x 2"),
        "square": (2.0 * np.kron(np.eye(2), j0), "J^2 != -Id"),
        "orthogonal": (np.kron(np.eye(2), [[1.0, -2.0], [1.0, -1.0]]), "J is not orthogonal"),
        "nan": (np.full((4, 4), np.nan), "J^2 != -Id"),
        # J e1 = e3, J e2 = e4: N_J(e1, e2) = e3 for the Kodaira bracket
        "integrable": (swap, "complex structure is not integrable"),
    }
    for name, (j, reason) in bad.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"dim": 4, "entries": [{"i": 1, "j": 2, "k": 3, "c": 1.0}], "J": j.tolist()}))
        for command in ("check", "flow"):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, str(path)])
            # a str code exits with status 1
            assert exc.value.code == f"{path}: schema violation: {reason}", (name, command)
    out = run_cli(["check", str(path)])
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.strip().splitlines() == [f"{path}: schema violation: complex structure is not integrable"]
    # N_J of a 1e200 bracket overflows once squared; read at unit scale it does not
    path = tmp_path / "huge_not_integrable.json"
    path.write_text(json.dumps({"dim": 4, "entries": [{"i": 1, "j": 3, "k": 2, "c": 1e200}]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("check", "flow"):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, str(path)])
            assert exc.value.code == f"{path}: schema violation: complex structure is not integrable", command
    # [e1, e3] = e5, [e1, e4] = e6: N_J = 0, and J e2 = -e1 leaves the centre
    # span(e2, e5, e6); check notes it and flow refuses it, whether J is
    # spelled out or left to the default
    centre = {"dim": 6, "entries": [{"i": 1, "j": 3, "k": 5, "c": 1.0}, {"i": 1, "j": 4, "k": 6, "c": 1.0}]}
    for name, obj in (("center_default", centre), ("center_j", {**centre, "J": np.kron(np.eye(3), j0).tolist()})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        out = run_cli(["check", str(path)])
        assert out.returncode == 0
        assert json.loads(out.stdout)["note"] == "complex structure does not preserve the center"
        out = run_cli(["flow", str(path)])
        assert out.returncode == 1
        assert out.stderr.strip().splitlines() == [f"{path}: complex structure does not preserve the center"]
    # every J preserves a trivial centre: [e1, e2] = e1 loads, and check notes it is not 2-step
    path = tmp_path / "affine.json"
    path.write_text(json.dumps({"dim": 2, "entries": [{"i": 1, "j": 2, "k": 1, "c": 1.0}], "J": j0.tolist()}))
    assert cli.main(["check", str(path)]) == 0


_KODAIRA = {"dim": 4, "entries": [{"i": 1, "j": 2, "k": 3, "c": 1.0}]}
_PAIRWISE_J4 = [[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]]
_MISTYPED_INPUTS = {
    "float_dim": ({"dim": 4.5, "entries": []}, "dim must be a JSON integer, got 4.5"),
    "bool_dim": ({"dim": True, "entries": []}, "dim must be a JSON integer, got True"),
    "float_i": ({"dim": 4, "entries": [{"i": 1.7, "j": "2", "k": 3, "c": True}]}, "i must be a JSON integer, got 1.7"),
    "string_j": ({"dim": 4, "entries": [{"i": 1, "j": "2", "k": 3, "c": 1.0}]}, "j must be a JSON integer, got '2'"),
    "bool_c": ({"dim": 4, "entries": [{"i": 1, "j": 2, "k": 3, "c": True}]}, "c must be a JSON number, got True"),
    "string_a": ({**_AA, "a": "1.0"}, "a must be a JSON number, got '1.0'"),
    "bool_v": ({**_AA, "v": [True, 0.0]}, "v must hold only JSON numbers, got True"),
    "string_A": ({**_AA, "A": [[-0.5, "0"], [0.0, -0.5]]}, "A must hold only JSON numbers, got '0'"),
    "bool_J1": ({**_AA, "J1": [[0.0, -1.0], [True, 0.0]]}, "J1 must hold only JSON numbers, got True"),
    "null_J": ({**_KODAIRA, "J": [*_PAIRWISE_J4[:3], [0.0, 0.0, None, 0.0]]}, "J must hold only JSON numbers, got None"),
    "ragged_A": ({**_AA, "A": [[-0.5, 0.0], [0.0]]}, "A must be a rectangular array, got a row [-0.5, 0.0]"),
}


@pytest.mark.parametrize("name", list(_MISTYPED_INPUTS))
def test_mistyped_json_numbers_are_schema_violations(tmp_path, name):
    obj, reason = _MISTYPED_INPUTS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    for command in ("check", "flow"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, str(path)])
        assert exc.value.code == f"{path}: schema violation: {reason}", command


def test_schema_violation_exits_1_with_one_line(tmp_path):
    path = tmp_path / "huge_c.json"
    # a JSON integer too large for a float
    path.write_text('{"dim": 4, "entries": [{"i": 1, "j": 2, "k": 3, "c": 1' + "0" * 400 + "}]}")
    out = run_cli(["check", str(path)])
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.strip().splitlines() == [f"{path}: schema violation: int too large to convert to float"]


def test_json_numbers_of_every_type_load(tmp_path, capsys):
    # integers where floats are read, and the J a bracket file may carry
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({"dim": 4, "entries": [{"i": 1, "j": 2, "k": 3, "c": 1}], "J": [[int(x) for x in r] for r in _PAIRWISE_J4]}))
    assert cli.main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 4
    path.write_text(json.dumps({"a": 1, "v": [0, 0], "A": [[-1, 0], [0, -1]], "J1": [[0, -1], [1, 0]]}))
    assert cli.main(["check", str(path)]) == 0


def test_cli_import_loads_no_scipy():
    code = 'import sys, pluriflow.cli; print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))'
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.strip() == "[]", out.stdout + out.stderr


def test_verify_appendix_loads_no_scipy():
    code = (
        "import contextlib, io, sys, pluriflow.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = pluriflow.cli.main(['verify', '--suite', 'appendix', '--seed', '0'])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.strip() == "0 []", out.stdout + out.stderr
