import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    pairs_to_vector,
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


def pairs_to_vector_loop(pairs, path: str) -> np.ndarray:
    """The per-pair rule that pairs_to_vector vectorizes, kept as its reference."""
    if not isinstance(pairs, list):
        raise InputFormatError(path, "expected a list of [re, im] pairs")
    out = np.empty(len(pairs), dtype=complex)
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InputFormatError(f"{path}[{i}]", "expected a [re, im] pair")
        if not all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in pair):
            raise InputFormatError(f"{path}[{i}]", f"[re, im] parts must be finite numbers: {pair}")
        out[i] = complex(pair[0], pair[1])
    return out


def _outcome(parse, pairs):
    """('ok', the result's bytes) or ('error', path, message)."""
    try:
        return ("ok", parse(pairs, "input.v").tobytes())
    except InputFormatError as exc:
        return ("error", exc.path, exc.message)


_BIG = int(sys.float_info.max)
_PART = st.one_of(
    st.floats(),
    st.integers(-(2**64), 2**64),
    st.sampled_from([_BIG, _BIG + 1, -_BIG - 1, 10**400, -(10**400), True, False, None, "1.5"]),
    st.lists(st.floats(allow_nan=False), max_size=2),
)
_NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers())
_VALID_PAIR = st.lists(_NUMBER, min_size=2, max_size=2)
_PAIR = st.one_of(
    _VALID_PAIR,
    st.lists(st.one_of(_NUMBER, _PART), min_size=2, max_size=2),
    st.lists(_PART, min_size=0, max_size=3),
    st.tuples(_NUMBER, _NUMBER),
    st.tuples(_PART, _PART),
    _PART,
)


@st.composite
def _one_fault(draw):
    """Valid pairs with one part, or one whole pair, redrawn from the faulty kinds."""
    pairs = draw(st.lists(_VALID_PAIR, min_size=1, max_size=6))
    i = draw(st.integers(0, len(pairs) - 1))
    if draw(st.booleans()):
        pairs[i][draw(st.integers(0, 1))] = draw(_PART)
    else:
        pairs[i] = draw(_PAIR)
    return pairs


class TestPairsToVector:
    @settings(max_examples=300, deadline=None)
    @given(
        pairs=st.one_of(
            st.lists(_VALID_PAIR, max_size=6),
            _one_fault(),
            st.lists(st.one_of(_VALID_PAIR, _PAIR), max_size=6),
        )
    )
    def test_matches_the_per_pair_rule(self, pairs):
        assert _outcome(pairs_to_vector, pairs) == _outcome(pairs_to_vector_loop, pairs)

    @pytest.mark.parametrize(
        "pairs",
        [
            {"re": 1.0},
            [[1.0, 0.0], [1.0]],
            [[1.0, 0.0], (1.0, 0.0)],
            [[1.0, 0.0], [True, 0.0]],
            [[1.0, 0.0], [0.0, float("inf")]],
            [[1.0, 0.0], [10**400, 0]],
            [[1.0, 0.0], [[1.0], 0.0], [True, 0.0]],
            [[1.0, 0.0], [0.0, _BIG + 1]],
            [[_BIG, -_BIG], [-0.0, 2**60 + 1]],
            [],
        ],
        ids=[
            "non-list", "wrong-length", "tuple", "bool", "inf", "huge-int", "nested",
            "int-past-float-max", "float-max", "empty",
        ],
    )
    def test_named_cases_match_the_per_pair_rule(self, pairs):
        assert _outcome(pairs_to_vector, pairs) == _outcome(pairs_to_vector_loop, pairs)
