import json

import numpy as np
import pytest

from hamuniv.circuits import Gate, VerifierCircuit
from hamuniv.cli import main
from hamuniv.operators import DenseOperator, Register, SystemLayout
from hamuniv.serialize import (
    InputFormatError,
    canonical_json,
    circuit_from_dict,
    circuit_to_dict,
    operator_from_dict,
    operator_to_dict,
)

from conftest import cnot_verifier, random_hermitian, random_unitary


class TestOperatorRoundTrip:
    def test_lossless_entries(self, rng):
        lay = SystemLayout((2, 3), registers=(Register("witness", (0, 1), "witness"),))
        h = random_hermitian(rng, 6)
        op = DenseOperator(lay, h, hermitian=True)
        back = operator_from_dict(json.loads(canonical_json(operator_to_dict(op))))
        assert np.array_equal(back.entries, op.entries)  # bitwise round trip
        assert back.hermitian
        assert back.layout.site_dims == (2, 3)
        assert back.layout.register("witness").role == "witness"

    def test_dim_consistency_checked(self, rng):
        op = DenseOperator(SystemLayout((2,)), random_hermitian(rng, 2), hermitian=True)
        doc = operator_to_dict(op)
        doc["dim"] = 3
        with pytest.raises(InputFormatError, match="dim"):
            operator_from_dict(doc)

    def test_hermitian_flag_diagnostic_reports_asymmetry(self):
        doc = {
            "dim": 2,
            "layout": {"site_dims": [2], "registers": []},
            "entries": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            "hermitian": True,
        }
        with pytest.raises(InputFormatError, match="asymmetry"):
            operator_from_dict(doc)

    def test_missing_field_path(self):
        with pytest.raises(InputFormatError, match="missing field 'layout'"):
            operator_from_dict({"dim": 2, "entries": []})


class TestCircuitRoundTrip:
    def test_cnot_circuit(self):
        circuit = cnot_verifier()
        doc = json.loads(canonical_json(circuit_to_dict(circuit)))
        back = circuit_from_dict(doc)
        assert back.n_steps == circuit.n_steps
        assert back.witness_register == circuit.witness_register
        assert back.output_site == circuit.output_site
        assert back.completeness == circuit.completeness
        for g0, g1 in zip(circuit.gates, back.gates):
            assert np.array_equal(g0.unitary.entries, g1.unitary.entries)
            assert g0.targets == g1.targets

    def test_non_unitary_gate_diagnostic_names_gate(self, rng):
        circuit = cnot_verifier()
        doc = circuit_to_dict(circuit)
        doc["gates"][0]["unitary"][0] = [2.0, 0.0]
        with pytest.raises(InputFormatError, match="cnot"):
            circuit_from_dict(doc)

    def test_single_witness_register_name_accepted(self):
        doc = circuit_to_dict(cnot_verifier())
        doc["witness_register"] = "witness"
        back = circuit_from_dict(doc)
        assert back.witness_register == ("witness",)


def test_canonical_json_is_deterministic(rng):
    u = random_unitary(rng, 4)
    doc = {"b": [[float(z.real), float(z.imag)] for z in u.reshape(-1)], "a": 1}
    assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))


def _flag_on_site_two_doc() -> dict:
    """Circuit whose site_dims, flag register, gate targets and output site each hold a 2."""
    layout = SystemLayout(
        (2, 2, 2),
        registers=(Register("witness", (0, 1), "witness"), Register("flag", (2,), "flag")),
    )
    x = Gate.from_matrix(np.array([[0, 1], [1, 0]], dtype=complex), (2,), layout, label="x")
    circuit = VerifierCircuit(
        layout=layout,
        gates=(x,),
        witness_register=("witness",),
        output_site=2,
        completeness=1.0,
        soundness=0.5,
    )
    return circuit_to_dict(circuit)


@pytest.mark.parametrize(
    "command, keys",
    [
        ("compile", ("layout", "site_dims", 2)),
        ("compile", ("layout", "registers", 1, "sites", 0)),
        ("compile", ("gates", 0, "targets", 0)),
        ("compile", ("output_site",)),
        ("spectrum", ("dim",)),
    ],
    ids=["site_dims", "register_sites", "gate_targets", "output_site", "operator_dim"],
)
def test_integer_field_rejects_non_integral_number(tmp_path, capsys, command, keys):
    if command == "spectrum":
        doc = operator_to_dict(DenseOperator(SystemLayout((2,)), np.eye(2), hermitian=True))
        parse = operator_from_dict
    else:
        doc = _flag_on_site_two_doc()
        parse = circuit_from_dict
    holder = doc
    for key in keys[:-1]:
        holder = holder[key]
    assert holder[keys[-1]] == 2
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    holder[keys[-1]] = 2.7
    with pytest.raises(InputFormatError, match="expected an integer, got 2.7"):
        parse(doc)
    inp.write_text(json.dumps(doc))
    assert main([command, "--input", str(inp), "--output", str(out)]) == 2
    assert "expected an integer, got 2.7" in capsys.readouterr().err
    holder[keys[-1]] = 2.0
    parse(doc)
    inp.write_text(json.dumps(doc))
    assert main([command, "--input", str(inp), "--output", str(out)]) == 0
