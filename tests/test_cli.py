import json

import numpy as np
import pytest

from hamuniv import cli
from hamuniv.circuits import idle_prefix
from hamuniv.cli import main, validate_input
from hamuniv.operators import DenseOperator, SystemLayout
from hamuniv.serialize import canonical_json, circuit_to_dict, operator_to_dict

from conftest import cnot_verifier, random_hermitian, random_verifier


def write_json(path, obj):
    path.write_text(canonical_json(obj) + "\n")
    return str(path)


def diag_operator_doc(diag):
    lay = SystemLayout((len(diag),))
    op = DenseOperator(lay, np.diag(diag).astype(complex), hermitian=True)
    return operator_to_dict(op)


OPERATOR_FIELDS = ("operator", "h0", "h1", "h", "h_prime", "h_target")


def operator_input(name):
    """(command, valid input document) of the command that reads the operator field `name`."""
    if name == "operator":
        return "spectrum", {"operator": diag_operator_doc([0.0, 1.0])}
    if name in ("h0", "h1"):
        return "sw", TestSw.two_level_doc()
    if name in ("h", "h_prime"):
        return "verify-sim", TestVerifySim.doc()
    return "universal-demo", TestUniversalDemo.doc()


class TestSpectrum:
    def test_diagonal_csv(self, tmp_path):
        inp = write_json(tmp_path / "in.json", {"operator": diag_operator_doc([0.0, 1.0])})
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--input", inp, "--output", str(out)]) == 0
        values = [float(line) for line in out.read_text().strip().splitlines()]
        assert values == [0.0, 1.0]

    @pytest.mark.parametrize("name", OPERATOR_FIELDS)
    def test_non_hermitian_rejected(self, tmp_path, capsys, name):
        command, doc = operator_input(name)
        doc[name]["hermitian"] = False
        inp = write_json(tmp_path / "in.json", doc)
        out = tmp_path / "out.json"
        assert main([command, "--input", inp, "--output", str(out)]) == 2
        assert f"input error: input.{name}.hermitian: " in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "part",
        ["a", None, float("nan"), float("inf"), True, 10**400],
        ids=["str", "null", "nan", "inf", "bool", "huge-int"],
    )
    def test_malformed_pair_part_rejected(self, tmp_path, capsys, part):
        doc = diag_operator_doc([0.0, 1.0])
        doc["entries"][3] = [part, 0.0]
        inp = write_json(tmp_path / "in.json", {"operator": doc})
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--input", inp, "--output", str(out)]) == 2
        assert "operator.entries[3]: " in capsys.readouterr().err
        assert not out.exists()


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

    def test_hypothesis_violation_is_input_error(self, tmp_path, capsys):
        inp = write_json(
            tmp_path / "c.json", {"circuit": circuit_to_dict(cnot_verifier()), "kappa": 0.3}
        )
        out = tmp_path / "hmk.json"
        assert main(["hmk-check", "--input", inp, "--output", str(out)]) == 2
        # so is an unknown clock representation, in both commands that read one
        doc = {"circuit": circuit_to_dict(cnot_verifier()), "kappa": 0.02, "rep": "unary"}
        inp = write_json(tmp_path / "rep.json", doc)
        for command in ("hmk-check", "history"):
            assert main([command, "--input", inp, "--output", str(out)]) == 2
            assert ("input error: input.rep: expected one of ['clock-subspace', "
                    "'unary-full-space'], got 'unary'") in capsys.readouterr().err
        assert not out.exists()

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

    def test_unary_report_assembles_no_unary_component(self, tmp_path, monkeypatch):
        built, build = [], cli.build_kitaev

        def spy(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(cli, "build_kitaev", spy)
        doc = {"circuit": circuit_to_dict(idle_prefix(cnot_verifier(), 2)), "idle_steps": 2,
               "rep": "unary-full-space"}
        out = tmp_path / "hmk.json"
        assert main(["hmk-check", "--input", write_json(tmp_path / "c.json", doc),
                     "--output", str(out)]) == 0
        assert [kh.rep.value for kh in built] == ["unary-full-space"]
        assert "parts" not in vars(built[0])

    @pytest.mark.parametrize("kappa", [{}, {"kappa": 1e-5}], ids=["default-kappa", "kappa"])
    def test_acceptance_operator_is_built_once(self, tmp_path, monkeypatch, kappa):
        import hamuniv.kitaev as kitaev

        built, build = [], cli.acceptance_operator

        def counted(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        for module in (cli, kitaev):
            monkeypatch.setattr(module, "acceptance_operator", counted)
        doc = {"circuit": circuit_to_dict(idle_prefix(cnot_verifier(), 2)), "idle_steps": 2}
        out = tmp_path / "hmk.json"
        assert main(["hmk-check", "--input", write_json(tmp_path / "c.json", doc | kappa),
                     "--output", str(out)]) == 0
        assert len(built) == 1

    def test_cap_below_the_unary_dimension_exits_before_assembly(self, tmp_path, capsys):
        # 4 circuit states and T = 3: the clock subspace has 16 states, the unary clock 32
        circuit = circuit_to_dict(idle_prefix(cnot_verifier(), 2))
        for rep, code in (("clock-subspace", 0), ("unary-full-space", 2)):
            inp = write_json(tmp_path / "c.json", {"circuit": circuit, "rep": rep})
            out = tmp_path / f"{rep}.json"
            assert main(["hmk-check", "--input", inp, "--output", str(out), "--cap", "20"]) == code
            assert out.exists() == (code == 0)
        assert "exceeds cap 20" in capsys.readouterr().err

    @pytest.mark.parametrize("rep", ["clock-subspace", "unary-full-space"])
    def test_verifier_accepting_no_witness_certifies_an_empty_space(self, tmp_path, rep):
        # every acceptance eigenvalue lies below completeness: H_MK has no value
        # below the threshold, and the idling block compares two empty spaces
        circuit = idle_prefix(random_verifier(np.random.default_rng(1), 3, 2), 2)
        doc = {"circuit": circuit_to_dict(circuit), "idle_steps": 2, "rep": rep}
        out = tmp_path / "hmk.json"
        assert main(["hmk-check", "--input", write_json(tmp_path / "c.json", doc),
                     "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["low_space_dim"] == 0
        assert report["idling"]["accepting_dim"] == 0
        assert len(report["rows"]) == 4

    def test_non_integral_idle_steps_rejected(self, tmp_path, capsys):
        inp = write_json(
            tmp_path / "c.json",
            {"circuit": circuit_to_dict(cnot_verifier()), "kappa": 1e-5, "idle_steps": 2.7},
        )
        out = tmp_path / "hmk.json"
        assert main(["hmk-check", "--input", inp, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "input error: input.idle_steps: expected an integer, got 2.7" in err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "field, value", [("minus_dim", 1.9), ("order", 0.5), ("minus_dim", True), ("order", "1")]
    )
    def test_non_integral_field_rejected(self, tmp_path, capsys, field, value):
        inp = write_json(tmp_path / "sw.json", self.two_level_doc() | {field: value})
        out = tmp_path / "sw_report.json"
        assert main(["sw", "--input", inp, "--output", str(out)]) == 2
        assert f"input error: input.{field}: expected an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_reads_as_the_integer(self, tmp_path):
        reports = []
        for k, minus_dim in enumerate((1, 1.0)):
            doc = self.two_level_doc() | {"minus_dim": minus_dim}
            inp = write_json(tmp_path / f"sw{k}.json", doc)
            out = tmp_path / f"sw_report{k}.json"
            assert main(["sw", "--input", inp, "--output", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestVerifySim:
    @staticmethod
    def doc(eta_target=None, **v_fields) -> dict:
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
        obj["v"] |= v_fields
        return obj

    def _fixture(self, tmp_path, eta_target=None, **v_fields):
        return write_json(tmp_path / "vs.json", self.doc(eta_target, **v_fields))

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

    @pytest.mark.parametrize("field, value", [("rows", 4.5), ("cols", 2.5)])
    def test_non_integral_isometry_shape_rejected(self, tmp_path, capsys, field, value):
        inp = self._fixture(tmp_path, **{field: value})
        out = tmp_path / "report.json"
        assert main(["verify-sim", "--input", inp, "--output", str(out)]) == 2
        assert f"input error: input.v.{field}: expected an integer" in capsys.readouterr().err
        assert not out.exists()

    # an unflagged operator whose upper triangle disagrees with its lower one:
    # h_prime's (0, 3) entry, or the (0, 1) entry of a 2 x 2 one, set apart from
    # its mirror, in each operator field of every command
    @pytest.mark.parametrize(
        "name, index, value",
        [("h_prime", 3, 5.0), ("h", 1, 7.0)]
        + [(name, 1, 7.0) for name in ("operator", "h0", "h1", "h_target")],
    )
    def test_unflagged_operator_exits_two(self, tmp_path, capsys, name, index, value):
        command, doc = operator_input(name)
        doc[name]["hermitian"] = False
        doc[name]["entries"][index] = [value, 0.0]
        inp = write_json(tmp_path / "vs.json", doc)
        out = tmp_path / "report.json"
        assert main([command, "--input", inp, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "hermitian flag" in err
        assert f"input error: input.{name}.hermitian: " in err
        assert not out.exists()

    def test_large_beta_report_is_finite(self, tmp_path):
        # both partition sums underflow at beta = 1000 unless taken relative to the ground state
        doc = self.doc()
        doc["beta"] = [1000.0]
        inp = write_json(tmp_path / "vs.json", doc)
        out = tmp_path / "report.json"
        assert main(["verify-sim", "--input", inp, "--output", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"report holds {constant}")

        report = json.loads(out.read_text(), parse_constant=refuse)
        assert report["partition_function"][0]["pass"] is True


class TestUniversalDemo:
    @staticmethod
    def doc(**fields) -> dict:
        obj = {
            "h_target": diag_operator_doc([0.0, 0.0]),
            "a": 2.0,
            "m": 1,
            "L": 1,
            "delta": 1e6,
        }
        return obj | fields

    def _fixture(self, tmp_path, **fields):
        return write_json(tmp_path / "demo.json", self.doc(**fields))

    def test_trivial_target_demo(self, tmp_path):
        inp = self._fixture(tmp_path)
        out = tmp_path / "demo_report.json"
        assert main(["universal-demo", "--input", inp, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["epsilon_prime"] <= 1e-8
        csv = (tmp_path / "demo_report.final_table.csv").read_text().splitlines()
        assert csv[0] == "lambda_target,lambda_sim,difference"

    @pytest.mark.parametrize("field", ["m", "L"])
    def test_non_integral_field_rejected(self, tmp_path, capsys, field):
        inp = self._fixture(tmp_path, **{field: 1.5})
        out = tmp_path / "demo_report.json"
        assert main(["universal-demo", "--input", inp, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"input error: input.{field}: expected an integer, got 1.5" in err
        assert not out.exists()

    @pytest.mark.parametrize("delta", [-1, 0])
    def test_non_positive_delta_exits_before_any_solve(self, tmp_path, capsys, monkeypatch, delta):
        import hamuniv.universality as universality

        solves = []
        monkeypatch.setattr(universality, "_low_spectrum", lambda *args, **kw: solves.append(args))
        out = tmp_path / "demo_report.json"
        inp = self._fixture(tmp_path, delta=delta)
        assert main(["universal-demo", "--input", inp, "--output", str(out)]) == 2
        assert f"input error: delta must be positive, got {delta}" in capsys.readouterr().err
        assert solves == [] and not out.exists()

    @pytest.mark.parametrize("tau", [0, -1])
    def test_non_positive_tau_exits_two(self, tmp_path, capsys, tau):
        out = tmp_path / "demo_report.json"
        inp = self._fixture(tmp_path, tau=tau)
        assert main(["universal-demo", "--input", inp, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: tau must be positive, got {tau}")
        assert "Traceback" not in err and not out.exists()


REAL_FIELD_DOCS = {
    "sw": TestSw.two_level_doc,
    "universal-demo": lambda: {
        "h_target": diag_operator_doc([0.0, 0.0]), "a": 2.0, "m": 1, "L": 1, "delta": 1e6
    },
    "hmk-check": lambda: {"circuit": circuit_to_dict(cnot_verifier()), "kappa": 0.02},
    "verify-sim": TestVerifySim.doc,
}


class TestRealFields:
    """A real-valued field takes a finite JSON number; anything else exits 2 at its path."""

    @pytest.mark.parametrize(
        "command, field, value, path",
        [
            ("sw", "delta", None, "input.delta"),
            ("sw", "delta", [1.0], "input.delta"),
            ("sw", "delta", True, "input.delta"),
            ("universal-demo", "kappa", "0.0001", "input.kappa"),
            ("universal-demo", "tau", [1], "input.tau"),
            ("universal-demo", "a", [2.0], "input.a"),
            ("universal-demo", "delta", "x", "input.delta"),
            ("universal-demo", "delta_prime", float("nan"), "input.delta_prime"),
            ("hmk-check", "kappa", "0.02", "input.kappa"),
            ("hmk-check", "circuit.c", "1.0", "circuit.c"),
            ("hmk-check", "circuit.s", None, "circuit.s"),
            ("verify-sim", "delta", None, "input.delta"),
            ("verify-sim", "beta", 1.0, "input.beta"),
            ("verify-sim", "beta", [0.0, "1"], "input.beta[1]"),
            ("verify-sim", "t", [float("inf")], "input.t[0]"),
            ("verify-sim", "targets", [0.1], "input.targets"),
            ("verify-sim", "targets", {"eta": "0.1"}, "input.targets.eta"),
            ("verify-sim", "targets", {"epsilon": False}, "input.targets.epsilon"),
        ],
    )
    def test_non_real_value_exits_two_at_its_path(
        self, tmp_path, capsys, command, field, value, path
    ):
        doc = REAL_FIELD_DOCS[command]()
        *outer, key = field.split(".")
        holder = doc
        for name in outer:
            holder = holder[name]
        holder[key] = value
        out = tmp_path / "report.json"
        assert main([command, "--input", write_json(tmp_path / "in.json", doc),
                     "--output", str(out)]) == 2
        assert f"input error: {path}: expected " in capsys.readouterr().err
        assert not out.exists()

    def test_null_optional_field_takes_its_default(self, tmp_path):
        reports = []
        for k, kappa in enumerate(({}, {"kappa": None})):
            doc = {"circuit": circuit_to_dict(idle_prefix(cnot_verifier(), 2))} | kappa
            out = tmp_path / f"hmk{k}.json"
            assert main(["hmk-check", "--input", write_json(tmp_path / f"c{k}.json", doc),
                         "--output", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_integer_reads_as_the_float(self, tmp_path):
        reports = []
        for k, delta in enumerate((1, 1.0)):
            inp = write_json(tmp_path / f"sw{k}.json", TestSw.two_level_doc() | {"delta": delta})
            out = tmp_path / f"sw_report{k}.json"
            assert main(["sw", "--input", inp, "--output", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


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

    def test_integer_past_the_digit_limit_exit_code(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"operator": {"dim": ' + "1" * 5000 + "}}")
        out = tmp_path / "out.csv"
        assert main(["spectrum", "--input", str(path), "--output", str(out)]) == 2
        assert "4300" in capsys.readouterr().err
        assert not out.exists()

    # a nested container of the wrong kind: (command, field set, its value, path of the error)
    @pytest.mark.parametrize(
        "command, field, value, path",
        [
            ("spectrum", "input.operator.layout.registers", 5, "input.operator.layout.registers"),
            ("spectrum", "input.operator.layout.registers", [5],
             "input.operator.layout.registers[0]"),
            ("spectrum", "input.operator.layout.registers", [{"name": "r", "sites": 0}],
             "input.operator.layout.registers[0].sites"),
            ("spectrum", "input.operator.layout.site_dims", 2, "input.operator.layout.site_dims"),
            ("compile", "circuit.gates", 5, "circuit.gates"),
            ("compile", "circuit.gates", [5], "circuit.gates[0]"),
            ("compile", "circuit.gates.0.targets", 0, "circuit.gates[0].targets"),
            ("compile", "circuit.witness_register", 5, "circuit.witness_register"),
            ("verify-sim", "input.v", 5, "input.v"),
        ],
        ids=["registers-5", "registers-[5]", "sites-0", "site_dims-2", "gates-5", "gates-[5]",
             "targets-0", "witness_register-5", "v-5"],
    )
    def test_malformed_container_exits_two(self, tmp_path, capsys, command, field, value, path):
        doc = {
            "spectrum": {"operator": diag_operator_doc([0.0, 1.0])},
            "compile": {"circuit": circuit_to_dict(cnot_verifier())},
            "verify-sim": TestVerifySim.doc(),
        }[command]
        *keys, last = [int(k) if k.isdigit() else k for k in field.removeprefix("input.").split(".")]
        parent = doc
        for key in keys:
            parent = parent[key]
        parent[last] = value
        inp = write_json(tmp_path / "in.json", doc)
        out = tmp_path / "out.json"
        assert main([command, "--input", inp, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}: expected ")
        assert "Traceback" not in err
        assert not out.exists()

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

    @pytest.mark.parametrize("const", ["dim_cap=2.9", "seed=2.7", "seed=inf"])
    def test_non_integral_integer_constant_rejected(self, tmp_path, capsys, const):
        inp = write_json(tmp_path / "in.json", {"operator": diag_operator_doc([0.0, 1.0])})
        out = tmp_path / "out.csv"
        assert main(["spectrum", "--input", inp, "--output", str(out), "--const", const]) == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not out.exists()


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


def roadmap_demo_doc(a=2.0):
    """The ROADMAP instance: target diag(0, 1/2), m = 2, L = 1, tau = pi (H_MK has D = 3240)."""
    return {"h_target": diag_operator_doc([0.0, 0.5]), "a": a, "m": 2, "L": 1, "tau": float(np.pi)}


class TestRunSettings:
    def test_cap_reaches_the_clock_layout(self, tmp_path, capsys):
        # the target and the verifier (648 states) fit under 1000; H_MK's 3240 does not
        inp = write_json(tmp_path / "demo.json", roadmap_demo_doc())
        out = tmp_path / "demo_report.json"
        assert main(["universal-demo", "--input", inp, "--output", str(out), "--cap", "1000"]) == 2
        assert "exceeds cap 1000" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "demo_report.final_table.csv").exists()

    def test_const_cap_reaches_the_verifier_layout(self, tmp_path, capsys):
        inp = write_json(tmp_path / "demo.json", roadmap_demo_doc())
        out = tmp_path / "demo_report.json"
        args = ["universal-demo", "--input", inp, "--output", str(out), "--const", "dim_cap=100"]
        assert main(args) == 2
        assert "exceeds cap 100" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_precedence(self, tmp_path, monkeypatch):
        inp = write_json(
            tmp_path / "c.json", {"circuit": circuit_to_dict(cnot_verifier()), "kappa": 0.02}
        )
        out = tmp_path / "hmk.json"
        cases = [
            (["--const", "seed=5"], None, 5),
            ([], "9", 9),
            (["--seed", "4", "--const", "seed=5"], None, 4),
            (["--const", "seed=5"], "9", 5),
            (["--seed", "4"], "9", 4),
            ([], None, 0),
        ]
        for args, env_seed, seed in cases:
            if env_seed is None:
                monkeypatch.delenv("HAMUNIV_SEED", raising=False)
            else:
                monkeypatch.setenv("HAMUNIV_SEED", env_seed)
            assert main(["hmk-check", "--input", inp, "--output", str(out)] + args) == 0
            assert json.loads(out.read_text())["seed"] == seed, (args, env_seed)

    def test_cap_flag_overrides_const_and_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HAMUNIV_DIM_CAP", "2")
        inp = write_json(tmp_path / "in.json", {"operator": diag_operator_doc([0.0, 1.0, 2.0])})
        out = tmp_path / "out.csv"
        assert main(["spectrum", "--input", inp, "--output", str(out)]) == 2
        assert main(["spectrum", "--input", inp, "--output", str(out), "--const", "dim_cap=3"]) == 0
        args = ["--const", "dim_cap=3", "--cap", "2"]
        assert main(["spectrum", "--input", inp, "--output", str(out)] + args) == 2

    def test_non_integral_seed_constant_still_rejected_beside_seed_flag(self, tmp_path, capsys):
        inp = write_json(tmp_path / "in.json", {"operator": diag_operator_doc([0.0, 1.0])})
        out = tmp_path / "out.csv"
        args = ["--seed", "4", "--const", "seed=2.7"]
        assert main(["spectrum", "--input", inp, "--output", str(out)] + args) == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not out.exists()
