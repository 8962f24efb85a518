import json

import numpy as np
import pytest

from hamuniv.cli import main, validate_input
from hamuniv.operators import DenseOperator, SystemLayout
from hamuniv.serialize import canonical_json, circuit_to_dict, operator_to_dict

from conftest import cnot_verifier, random_hermitian


def write_json(path, obj):
    path.write_text(canonical_json(obj) + "\n")
    return str(path)


def diag_operator_doc(diag):
    lay = SystemLayout((len(diag),))
    op = DenseOperator(lay, np.diag(diag).astype(complex), hermitian=True)
    return operator_to_dict(op)


class TestSpectrum:
    def test_diagonal_csv(self, tmp_path):
        inp = write_json(tmp_path / "in.json", {"operator": diag_operator_doc([0.0, 1.0])})
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--input", inp, "--output", str(out)]) == 0
        values = [float(line) for line in out.read_text().strip().splitlines()]
        assert values == [0.0, 1.0]

    def test_non_hermitian_rejected(self, tmp_path):
        doc = diag_operator_doc([0.0, 1.0])
        doc["hermitian"] = False
        inp = write_json(tmp_path / "in.json", {"operator": doc})
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--input", inp, "--output", str(out)]) == 2


class TestCompileAndHistory:
    def test_compile_round_trip(self, tmp_path):
        inp = write_json(tmp_path / "c.json", {"circuit": circuit_to_dict(cnot_verifier())})
        out = tmp_path / "compiled.json"
        assert main(["compile", "--input", inp, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["compiled_unitary"]["dim"] == 4

    def test_history_norm(self, tmp_path):
        inp = write_json(tmp_path / "c.json", {"circuit": circuit_to_dict(cnot_verifier())})
        out = tmp_path / "hist.json"
        assert main(["history", "--input", inp, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        vec = np.array([complex(re, im) for re, im in report["vector"]])
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12


class TestHmkCheck:
    def test_cnot_fixture_passes(self, tmp_path):
        inp = write_json(
            tmp_path / "c.json", {"circuit": circuit_to_dict(cnot_verifier()), "kappa": 0.02}
        )
        out = tmp_path / "hmk.json"
        assert main(["hmk-check", "--input", inp, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert len(report["rows"]) == 2

    def test_hypothesis_violation_is_input_error(self, tmp_path):
        inp = write_json(
            tmp_path / "c.json", {"circuit": circuit_to_dict(cnot_verifier()), "kappa": 0.3}
        )
        out = tmp_path / "hmk.json"
        assert main(["hmk-check", "--input", inp, "--output", str(out)]) == 2

    def test_idling_section(self, tmp_path):
        from hamuniv.circuits import idle_prefix

        circuit = idle_prefix(cnot_verifier(trailing_idles=2), 3)
        inp = write_json(
            tmp_path / "c.json",
            {"circuit": circuit_to_dict(circuit), "kappa": 1e-5, "idle_steps": 3},
        )
        out = tmp_path / "hmk.json"
        assert main(["hmk-check", "--input", inp, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["idling"]["pass"] is True
        assert report["idling"]["measured_squared"] <= report["idling"]["bound"] + 1e-9

    def test_env_override(self, tmp_path, monkeypatch):
        # an absurdly small deviation constant makes the CNOT fixture fail
        monkeypatch.setenv("HAMUNIV_C_DEV", "1e-12")
        inp = write_json(
            tmp_path / "c.json", {"circuit": circuit_to_dict(cnot_verifier()), "kappa": 0.02}
        )
        out = tmp_path / "hmk.json"
        assert main(["hmk-check", "--input", inp, "--output", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["pass"] is False


class TestSw:
    @staticmethod
    def two_level_doc():
        lay = SystemLayout((2,))
        h0 = DenseOperator(lay, np.diag([0.0, 1.0]).astype(complex), hermitian=True)
        h1 = DenseOperator(lay, 0.2 * np.array([[0, 1], [1, 0]], dtype=complex), hermitian=True)
        return {
            "h0": operator_to_dict(h0),
            "h1": operator_to_dict(h1),
            "delta": 1.0,
            "minus_dim": 1,
        }

    def test_two_level_instance(self, tmp_path):
        inp = write_json(tmp_path / "sw.json", self.two_level_doc())
        out = tmp_path / "sw_report.json"
        assert main(["sw", "--input", inp, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        closed = (1.0 - np.sqrt(1.0 + 4 * 0.2**2)) / 2
        assert report["h_eff_spectrum"][0] == pytest.approx(closed, abs=1e-12)
        assert report["pass"] is True

    @pytest.mark.parametrize(
        "field, value", [("minus_dim", -1), ("minus_dim", 0), ("minus_dim", 3), ("order", -1)]
    )
    def test_out_of_range_field_rejected(self, tmp_path, capsys, field, value):
        # dim h0 = 2: minus_dim must lie in [1, 2] and order in {0, 1}
        inp = write_json(tmp_path / "sw.json", self.two_level_doc() | {field: value})
        out = tmp_path / "sw_report.json"
        assert main(["sw", "--input", inp, "--output", str(out)]) == 2
        assert f"input.{field}" in capsys.readouterr().err
        assert not out.exists()


class TestVerifySim:
    def _fixture(self, tmp_path, eta_target=None):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 2)
        delta = float(np.linalg.norm(h, 2) + 1.0)
        hp = np.zeros((4, 4), dtype=complex)
        hp[:2, :2] = h
        hp[2:, 2:] = np.diag([2 * delta + 1.0, 2 * delta + 2.0])
        v = np.eye(4, 2, dtype=complex)
        obj = {
            "h": operator_to_dict(DenseOperator(SystemLayout((2,)), h, hermitian=True)),
            "h_prime": operator_to_dict(DenseOperator(SystemLayout((4,)), hp, hermitian=True)),
            "v": {
                "rows": 4,
                "cols": 2,
                "entries": [[float(z.real), float(z.imag)] for z in v.reshape(-1)],
            },
            "delta": delta,
            "beta": [0.0, 1.0],
            "t": [0.5],
        }
        if eta_target is not None:
            obj["targets"] = {"eta": eta_target}
        return write_json(tmp_path / "vs.json", obj)

    def test_exact_block_passes_with_csv(self, tmp_path):
        inp = self._fixture(tmp_path)
        out = tmp_path / "report.json"
        assert main(["verify-sim", "--input", inp, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["eta_measured"] <= 1e-9
        assert report["pass"] is True
        csv = (tmp_path / "report.eigen_table.csv").read_text().splitlines()
        assert csv[0] == "i,lambda_target,j,lambda_sim,difference"
        assert len(csv) == 3

    def test_failed_assertion_exits_one(self, tmp_path):
        inp = self._fixture(tmp_path, eta_target=-1.0)  # impossible target
        out = tmp_path / "report.json"
        assert main(["verify-sim", "--input", inp, "--output", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["pass"] is False


class TestUniversalDemo:
    def _fixture(self, tmp_path):
        obj = {
            "h_target": diag_operator_doc([0.0, 0.0]),
            "a": 2.0,
            "m": 1,
            "L": 1,
            "delta": 1e6,
        }
        return write_json(tmp_path / "demo.json", obj)

    def test_trivial_target_demo(self, tmp_path):
        inp = self._fixture(tmp_path)
        out = tmp_path / "demo_report.json"
        assert main(["universal-demo", "--input", inp, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["epsilon_prime"] <= 1e-8
        csv = (tmp_path / "demo_report.final_table.csv").read_text().splitlines()
        assert csv[0] == "lambda_target,lambda_sim,difference"


class TestValidateInputAndErrors:
    def test_well_formed(self, tmp_path):
        path = write_json(tmp_path / "ok.json", {"a": 1})
        obj, diags = validate_input(path)
        assert obj == {"a": 1} and diags == []

    def test_malformed_json_line_column(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"a": 1,\n  "b": }\n')
        obj, diags = validate_input(str(path))
        assert obj is None
        assert "2:" in diags[0]  # line of the error

    def test_malformed_json_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        out = tmp_path / "out.json"
        assert main(["spectrum", "--input", str(path), "--output", str(out)]) == 2

    def test_cap_exceeded_exit_code(self, tmp_path):
        inp = write_json(tmp_path / "in.json", {"operator": diag_operator_doc([0.0, 1.0, 2.0, 3.0])})
        out = tmp_path / "out.csv"
        assert main(["spectrum", "--input", inp, "--output", str(out), "--cap", "2"]) == 2

    def test_const_override_parsing(self, tmp_path):
        inp = write_json(
            tmp_path / "c.json", {"circuit": circuit_to_dict(cnot_verifier()), "kappa": 0.02}
        )
        out = tmp_path / "hmk.json"
        code = main(
            ["hmk-check", "--input", inp, "--output", str(out), "--const", "c_dev=20"]
        )
        assert code == 0
        assert main(["hmk-check", "--input", inp, "--output", str(out), "--const", "bogus=1"]) == 2


class TestDeterminism:
    def test_identical_seeds_identical_bytes(self, tmp_path):
        inp = write_json(
            tmp_path / "c.json", {"circuit": circuit_to_dict(cnot_verifier()), "kappa": 0.02}
        )
        outs = []
        for k in (1, 2):
            out = tmp_path / f"r{k}.json"
            assert main(["hmk-check", "--input", inp, "--output", str(out), "--seed", "7"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
