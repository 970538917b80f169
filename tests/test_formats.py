import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geodiscord import (
    ParseError,
    PauliTable,
    StateValidationError,
    bloch_decompose,
    discord_closed_form,
    find_branch_crossings,
    ingest_pauli_table,
    load_pauli_table,
    load_state,
    named_state,
    pauli_table_from_decomposition,
    reconstruct_state,
    save_pauli_table,
    save_state,
    sweep_family,
    write_sweep_csv,
)
from geodiscord.formats import dumps_state
from geodiscord.states import bell, ghz, random_density


class TestStateFiles:
    def test_round_trip_is_byte_identical(self, tmp_path):
        path = tmp_path / "state.json"
        save_state(random_density((2, 2), seed=3), path)
        first = path.read_bytes()
        save_state(load_state(path), path)
        assert path.read_bytes() == first

    def test_loads_bell_state(self, tmp_path):
        path = tmp_path / "bell.json"
        save_state(bell(), path)
        loaded = load_state(path)
        assert loaded.party_dims == (2, 2)
        assert_allclose(loaded.matrix, bell().matrix, atol=0)

    def test_bad_json_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_state(path)

    def test_missing_fields_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2]}', encoding="utf-8")
        with pytest.raises(ParseError):
            load_state(path)

    def test_non_hermitian_names_check(self, tmp_path):
        path = tmp_path / "nh.json"
        path.write_text(
            '{"dims": [2], "matrix": [[[1.0, 0.0], [0.5, 0.0]], '
            "[[0.0, 0.0], [0.0, 0.0]]]}",
            encoding="utf-8",
        )
        with pytest.raises(StateValidationError) as err:
            load_state(path)
        assert err.value.check == "hermiticity"

    def test_non_finite_entry_names_check(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"dims": [2], "matrix": [[[0.5, 0.0], [0.0, 0.0]], '
            "[[0.0, 0.0], [NaN, 0.0]]]}",
            encoding="utf-8",
        )
        with pytest.raises(StateValidationError) as err:
            load_state(path)
        assert err.value.check == "finite"

    def test_wrong_trace_names_check_and_value(self, tmp_path):
        path = tmp_path / "tr.json"
        path.write_text(
            '{"dims": [2], "matrix": [[[0.5, 0.0], [0.0, 0.0]], '
            "[[0.0, 0.0], [0.48, 0.0]]]}",
            encoding="utf-8",
        )
        with pytest.raises(StateValidationError) as err:
            load_state(path)
        assert err.value.check == "trace"
        assert "0.98" in str(err.value)

    # int() reads a string or an object's keys digit by digit and
    # accepts 1.7, 1.0 and true
    @pytest.mark.parametrize(
        "dims", ['"1"', '{"1": 0}', "[1.7]", "[true]", "[1.0]", "1", "null"]
    )
    def test_dims_must_be_a_list_of_integers(self, tmp_path, dims):
        path = tmp_path / "dims.json"
        path.write_text('{"dims": ' + dims + ', "matrix": [[[1, 0]]]}', encoding="utf-8")
        with pytest.raises(ParseError, match="dims"):
            load_state(path)


    def test_state_document_has_one_row_per_line(self, tmp_path):
        rho = random_density((2, 3), seed=9)
        text = dumps_state(rho)
        lines = text.splitlines()
        assert len(lines) == 6 + 5  # braces, dims, "matrix": [, rows, ]
        payload = json.loads(text)
        assert payload["dims"] == [2, 3]
        entries = np.array(payload["matrix"])
        assert np.array_equal(entries[..., 0], rho.matrix.real)
        assert np.array_equal(entries[..., 1], rho.matrix.imag)
        path = tmp_path / "state.json"
        save_state(rho, path)
        assert np.array_equal(load_state(path).matrix, rho.matrix)


class TestPauliTableFiles:
    def test_round_trip(self, tmp_path):
        dec = bloch_decompose(random_density((2, 2), seed=9))
        table = pauli_table_from_decomposition(dec)
        path = tmp_path / "table.csv"
        save_pauli_table(table, path)
        loaded = load_pauli_table(path)
        assert loaded.n_qubits == 2
        for label, value in table.values.items():
            assert abs(loaded.values[label] - value) < 1e-15

    def test_header_required(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("XX,1.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="header"):
            load_pauli_table(path)

    def test_labels_case_insensitive(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("label,value\nxz,0.25\n", encoding="utf-8")
        assert load_pauli_table(path).values == {"XZ": 0.25}

    def test_duplicate_label(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("label,value\nXX,0.5\nXX,0.5\n", encoding="utf-8")
        with pytest.raises(ParseError, match="duplicate"):
            load_pauli_table(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("label,value\nXX,much\n", encoding="utf-8")
        with pytest.raises(ParseError, match="bad value"):
            load_pauli_table(path)

    def test_out_of_range_value(self):
        with pytest.raises(StateValidationError) as err:
            PauliTable(2, {"XX": 1.5})
        assert err.value.check == "pauli-range"

    def test_non_finite_value(self):
        for value in (float("nan"), float("inf")):
            with pytest.raises(StateValidationError) as err:
                PauliTable(2, {"XX": value})
            assert err.value.check == "pauli-finite"

    def test_identity_label_must_be_one(self):
        with pytest.raises(StateValidationError) as err:
            PauliTable(2, {"II": 0.9})
        assert err.value.check == "pauli-identity"

    def test_wrong_length_label(self):
        with pytest.raises(ParseError, match="label"):
            PauliTable(2, {"XXX": 0.5})

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError, match="empty"):
            load_pauli_table(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("label,value\n", encoding="utf-8")
        with pytest.raises(ParseError, match="empty"):
            load_pauli_table(path)

    def test_inconsistent_label_lengths(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("label,value\nXX,0.5\nXYZ,0.5\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_pauli_table(path)

    def test_one_column_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("label,value\nXX,0.5\nYY\n", encoding="utf-8")
        with pytest.raises(ParseError, match="does not have two columns"):
            load_pauli_table(path)

    def test_bad_label_character(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("label,value\nXX,0.5\nXQ,0.5\n", encoding="utf-8")
        with pytest.raises(ParseError, match="bad Pauli label"):
            load_pauli_table(path)

    def test_nan_value_in_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("label,value\nXX,0.5\nYY,nan\n", encoding="utf-8")
        with pytest.raises(StateValidationError) as err:
            load_pauli_table(path)
        assert err.value.check == "pauli-finite"

    def test_first_of_two_bad_entries_is_reported(self):
        with pytest.raises(StateValidationError) as err:
            PauliTable(2, {"XX": 1.5, "XQ": 0.5})
        assert err.value.check == "pauli-range"
        with pytest.raises(ParseError, match="'XQ'"):
            PauliTable(2, {"XQ": 0.5, "XX": 1.5})


def bell_table():
    values = {}
    import itertools

    for chars in itertools.product("IXYZ", repeat=2):
        values["".join(chars)] = 0.0
    values["II"] = 1.0
    values["XX"] = 1.0
    values["YY"] = -1.0
    values["ZZ"] = 1.0
    return PauliTable(2, values)


class TestIngest:
    def test_bell_expectations_give_half_discord(self):
        dec = ingest_pauli_table(bell_table())
        assert abs(discord_closed_form(dec, 1).value - 0.5) < 1e-12
        assert_allclose(dec.t[(1, 2)], np.diag([1.0, -1.0, 1.0]), atol=0)

    def test_all_zero_table_is_maximally_mixed(self):
        import itertools

        values = {
            "".join(chars): 0.0 for chars in itertools.product("IXYZ", repeat=2)
        }
        values["II"] = 1.0
        dec = ingest_pauli_table(PauliTable(2, values))
        assert_allclose(reconstruct_state(dec).matrix, np.eye(4) / 4, atol=1e-15)
        assert discord_closed_form(dec, 1).value < 1e-14

    def test_missing_labels_are_listed(self):
        table = bell_table()
        values = dict(table.values)
        del values["XY"]
        with pytest.raises(StateValidationError) as err:
            ingest_pauli_table(PauliTable(2, values))
        assert err.value.check == "missing-labels"
        assert "XY" in str(err.value)

    def test_identity_label_is_not_required(self):
        values = dict(bell_table().values)
        del values["II"]
        dec = ingest_pauli_table(PauliTable(2, values))
        assert abs(discord_closed_form(dec, 1).value - 0.5) < 1e-12

    def test_non_physical_data_warns_unless_strict(self):
        values = dict(bell_table().values)
        values["ZZ"] = -1.0  # XX=1, YY=-1, ZZ=-1 is not a state
        table = PauliTable(2, values)
        with pytest.warns(UserWarning, match="not a physical state"):
            dec = ingest_pauli_table(table)
        assert dec.n_qubits == 2
        with pytest.raises(StateValidationError):
            ingest_pauli_table(table, strict=True)

    def test_round_trip_from_decomposition(self):
        dec = bloch_decompose(random_density((2, 2, 2), seed=11))
        again = ingest_pauli_table(pauli_table_from_decomposition(dec))
        for k in dec.s:
            assert_allclose(again.s[k], dec.s[k], atol=1e-12)
        for subset in dec.t:
            assert_allclose(again.t[subset], dec.t[subset], atol=1e-12)


class TestSweep:
    def test_ghz_noise_discord_column(self):
        rows = sweep_family("ghz-noise", 0.0, 1.0, 11)
        for row in rows:
            assert abs(row.discords[0] - row.p**2 / 2.0) < 1e-10
            # the chain strips everything in one step on this family
            assert abs(row.q - row.p**2 / 2.0) < 1e-10

    def test_endpoints_match_named_states(self):
        rows = sweep_family("w-ghz", 0.0, 1.0, 5)
        ghz_value = discord_closed_form(bloch_decompose(ghz()), 1).value
        w_value = discord_closed_form(bloch_decompose(named_state("w(3)")), 1).value
        assert abs(rows[0].discords[0] - ghz_value) < 1e-14
        assert abs(rows[-1].discords[0] - w_value) < 1e-14

    def test_csv_format(self, tmp_path):
        rows = sweep_family("ghz-ghzminus", 0.0, 1.0, 5)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "p,d1,d2,d3,q"
        assert len(lines) == 6
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert abs(first[1] - 0.5) < 1e-10
        # 12 significant digits survive the round trip
        mid = [float(x) for x in lines[3].split(",")]
        assert abs(mid[1] - rows[2].discords[0]) < 1e-12

    def test_too_few_steps(self):
        with pytest.raises(ValueError, match="steps"):
            sweep_family("ghz-noise", 0.0, 1.0, 1)

    def test_selected_parts(self):
        rows = sweep_family("ghz-noise", 0.0, 1.0, 3, parts=(2,))
        assert len(rows[0].discords) == 1


class TestBranchCrossing:
    def test_w_ghz_crossing_sits_at_three_quarters(self):
        crossings = find_branch_crossings("w-ghz", part=1, scan_steps=101)
        assert len(crossings) == 1
        assert abs(crossings[0] - 0.75) < 1e-6

    def test_ghz_noise_has_no_crossing(self):
        assert find_branch_crossings("ghz-noise", part=1, scan_steps=51) == []

    @pytest.mark.parametrize("part", [1, 2])
    def test_ghz_ghzminus_endpoint_ties_are_not_crossings(self, part):
        # G = 2I at p = 0 and 1, and z is the strict top axis in between
        assert find_branch_crossings("ghz-ghzminus", part) == []

    def test_w_ghz_crossing_between_grid_points(self):
        # 0.75 is not a point of a 100-step grid on [0, 1]
        crossings = find_branch_crossings("w-ghz", part=1, scan_steps=100)
        assert len(crossings) == 1
        assert abs(crossings[0] - 0.75) < 1e-6


def test_sweep_csv_header_names_the_reported_parties(tmp_path):
    rows = sweep_family("w-ghz", 0.0, 1.0, 3, parts=(2,))
    assert all(row.parts == (2,) for row in rows)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "p,d2,q"
    assert float(lines[1].split(",")[1]) == pytest.approx(rows[0].discords[0], abs=1e-12)
