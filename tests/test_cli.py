import json

from geodiscord.cli import _parser, main
from geodiscord.formats import save_state
from geodiscord.states import random_density


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        state = tmp_path / "w.json"
        code, _, _ = run(capsys, "gen", "--name", "w(3)", "--out", str(state))
        assert code == 0
        parser = _parser()
        code, out, _ = run(capsys, "total", "--state", str(state), "--json")
        assert code == 0
        assert json.loads(out)["order"] == [1, 2, 3]
        assert _parser() is parser


class TestGenAndDiscord:
    def test_gen_then_discord(self, tmp_path, capsys):
        state = tmp_path / "ghz.json"
        code, out, _ = run(capsys, "gen", "--name", "ghz(3)", "--out", str(state))
        assert code == 0
        assert state.exists()
        code, out, _ = run(
            capsys, "discord", "--state", str(state), "--part", "1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"] - 0.5) < 1e-10
        assert payload["method"] == "closed-form"

    def test_discord_with_oracle(self, tmp_path, capsys):
        state = tmp_path / "bell.json"
        run(capsys, "gen", "--name", "bell", "--out", str(state))
        code, out, _ = run(
            capsys,
            "discord",
            "--state",
            str(state),
            "--part",
            "2",
            "--oracle",
            "--grid",
            "41,80,3",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["oracle"]["value"] - 0.5) < 1e-5
        assert payload["oracle"]["gap"] < 1e-5

    def test_human_readable_output(self, tmp_path, capsys):
        state = tmp_path / "bell.json"
        run(capsys, "gen", "--name", "bell", "--out", str(state))
        code, out, _ = run(capsys, "discord", "--state", str(state), "--part", "1")
        assert code == 0
        value_line = next(line for line in out.splitlines() if line.startswith("value:"))
        assert abs(float(value_line.split(":")[1]) - 0.5) < 1e-10

    def test_qudit_state_uses_upper_bound(self, tmp_path, capsys):
        state = tmp_path / "qutrit.json"
        save_state(random_density((3, 2), rank=1, seed=4), state)
        code, out, _ = run(
            capsys, "discord", "--state", str(state), "--part", "2", "--json"
        )
        assert code == 0
        assert json.loads(out)["method"] == "upper-bound"


class TestTotal:
    def test_total_with_order(self, tmp_path, capsys):
        state = tmp_path / "ghz.json"
        run(capsys, "gen", "--name", "ghz(3)", "--out", str(state))
        code, out, _ = run(
            capsys, "total", "--state", str(state), "--order", "2,3,1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["q"] - 0.5) < 1e-10
        assert payload["order"] == [2, 3, 1]
        assert len(payload["steps"]) == 3


class TestSweep:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys,
            "sweep",
            "--family",
            "ghz-noise",
            "--from",
            "0",
            "--to",
            "1",
            "--steps",
            "5",
            "--out",
            str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "p,d1,d2,d3,q"
        assert len(lines) == 6
        assert "wrote 5 rows" in out

    def test_sweep_json_output(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys,
            "sweep",
            "--family",
            "ghz-ghzminus",
            "--from",
            "0",
            "--to",
            "1",
            "--steps",
            "3",
            "--out",
            str(out_csv),
            "--json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3
        assert abs(rows[1]["d1"]) < 1e-12  # midpoint of the family is classical
        assert out_csv.exists()

    def test_unknown_family_is_validation_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "sweep",
            "--family",
            "nope",
            "--from",
            "0",
            "--to",
            "1",
            "--steps",
            "3",
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "unknown family" in err


class TestIngest:
    def write_bell_table(self, tmp_path, zz="1.0"):
        lines = ["label,value"]
        import itertools

        for chars in itertools.product("IXYZ", repeat=2):
            label = "".join(chars)
            if label == "II":
                continue
            value = {"XX": "1.0", "YY": "-1.0", "ZZ": zz}.get(label, "0.0")
            lines.append(f"{label},{value}")
        path = tmp_path / "table.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_ingest_bell_table(self, tmp_path, capsys):
        path = self.write_bell_table(tmp_path)
        code, out, err = run(
            capsys, "ingest", "--pauli", str(path), "--part", "1", "--json"
        )
        assert code == 0
        assert abs(json.loads(out)["value"] - 0.5) < 1e-10
        assert err == ""

    def test_non_physical_warns_but_succeeds(self, tmp_path, capsys):
        path = self.write_bell_table(tmp_path, zz="-1.0")
        code, out, err = run(capsys, "ingest", "--pauli", str(path), "--part", "1")
        assert code == 0
        assert "not a physical state" in err

    def test_strict_rejects_non_physical(self, tmp_path, capsys):
        path = self.write_bell_table(tmp_path, zz="-1.0")
        code, _, err = run(
            capsys, "ingest", "--pauli", str(path), "--part", "1", "--strict"
        )
        assert code == 2
        assert "error:" in err

    def test_missing_label_lists_it(self, tmp_path, capsys):
        path = tmp_path / "partial.csv"
        path.write_text("label,value\nXX,1.0\n", encoding="utf-8")
        code, _, err = run(capsys, "ingest", "--pauli", str(path), "--part", "1")
        assert code == 2
        assert "XY" in err

    def test_header_only_table_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "header.csv"
        path.write_text("label,value\n", encoding="utf-8")
        code, _, err = run(capsys, "ingest", "--pauli", str(path), "--part", "1")
        assert code == 3
        assert "Traceback" not in err

    def test_table_over_dimension_cap_is_validation_error(self, tmp_path, capsys):
        # 18 qubits: the full coefficient tensor would take 512 GiB
        path = tmp_path / "wide.csv"
        path.write_text("label,value\n" + "I" * 18 + ",1\n", encoding="utf-8")
        code, _, err = run(capsys, "ingest", "--pauli", str(path), "--part", "1")
        assert code == 2
        assert "4096" in err
        assert "Traceback" not in err


class TestExitCodes:
    def test_missing_file_is_parse_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "discord", "--state", str(tmp_path / "none.json"), "--part", "1"
        )
        assert code == 3

    def test_invalid_state_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"dims": [2], "matrix": [[[0.5, 0.0], [0.0, 0.0]], '
            "[[0.0, 0.0], [0.48, 0.0]]]}",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "discord", "--state", str(path), "--part", "1")
        assert code == 2
        assert "trace" in err

    def test_non_finite_state_is_validation_error(self, tmp_path, capsys):
        state = tmp_path / "mixed.json"
        run(capsys, "gen", "--name", "max-mixed(2,2)", "--out", str(state))
        payload = json.loads(state.read_text(encoding="utf-8"))
        payload["matrix"][1][2][0] = float("nan")
        state.write_text(json.dumps(payload), encoding="utf-8")
        for argv in (["discord", "--part", "1"], ["total"]):
            code, _, err = run(capsys, *argv, "--state", str(state))
            assert code == 2
            assert "finite" in err

    def test_malformed_state_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        code, _, _ = run(capsys, "discord", "--state", str(path), "--part", "1")
        assert code == 3

    def test_deeply_nested_state_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        depth = 100_000
        path.write_text(
            '{"dims": [2], "matrix": ' + "[" * depth + "]" * depth + "}",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "discord", "--state", str(path), "--part", "1")
        assert code == 3
        assert "Traceback" not in err

    def test_part_out_of_range(self, tmp_path, capsys):
        state = tmp_path / "bell.json"
        run(capsys, "gen", "--name", "bell", "--out", str(state))
        code, _, err = run(capsys, "discord", "--state", str(state), "--part", "5")
        assert code == 2

    def test_gen_over_dimension_cap_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "big.json"
        for name in ("ghz(40)", "max-mixed(100000)"):
            code, _, err = run(capsys, "gen", "--name", name, "--out", str(out))
            assert code == 2, name
            assert "4096" in err
            assert "Traceback" not in err
        assert not out.exists()

    def test_state_over_dimension_cap_is_validation_error(self, tmp_path, capsys):
        # the cap is checked before the (here deliberately tiny) matrix is read
        path = tmp_path / "big.json"
        path.write_text(
            json.dumps({"dims": [2] * 13, "matrix": [[[1.0, 0.0]]]}), encoding="utf-8"
        )
        code, out, err = run(capsys, "discord", "--state", str(path), "--part", "1")
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "4096" in lines[0]

    def test_overflowing_numbers_in_state_are_parse_errors(self, tmp_path, capsys):
        path = tmp_path / "overflow.json"
        for text in (
            '{"dims": [1e400], "matrix": [[[1, 0]]]}',
            '{"dims": [1], "matrix": [[[1' + "0" * 400 + ', 0]]]}',
        ):
            path.write_text(text, encoding="utf-8")
            code, _, err = run(capsys, "discord", "--state", str(path), "--part", "1")
            assert code == 3
            assert "Traceback" not in err

    def test_dims_that_are_not_integers_are_parse_errors(self, tmp_path, capsys):
        state = tmp_path / "bell.json"
        run(capsys, "gen", "--name", "bell", "--out", str(state))
        payload = json.loads(state.read_text(encoding="utf-8"))
        # int() reads each of these as two qubits, or true as a trivial party
        for dims in ("22", {"2": 0, " 2": 0}, [2.7, 2], [2.0, 2.0], [True, True]):
            payload["dims"] = dims
            state.write_text(json.dumps(payload), encoding="utf-8")
            code, out, err = run(capsys, "discord", "--state", str(state), "--part", "1")
            assert code == 3, dims
            assert out == ""
            assert "dims" in err and "Traceback" not in err

    def test_unknown_gen_name(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen", "--name", "mystery", "--out", str(tmp_path / "x.json")
        )
        assert code == 2
        assert "unknown" in err

    def test_bad_grid_argument(self, tmp_path, capsys):
        state = tmp_path / "bell.json"
        run(capsys, "gen", "--name", "bell", "--out", str(state))
        code, _, err = run(
            capsys,
            "discord",
            "--state",
            str(state),
            "--part",
            "1",
            "--oracle",
            "--grid",
            "banana",
        )
        assert code == 2


class TestQubitPartyOracle:
    def test_oracle_on_qubit_party_of_mixed_system(self, tmp_path, capsys):
        state = tmp_path / "qubit_qutrit.json"
        save_state(random_density((2, 3), seed=1), state)
        argv = ["discord", "--state", str(state), "--oracle", "--grid", "41,80,3", "--json"]
        code, out, _ = run(capsys, *argv, "--part", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle"]["gap"] < 1e-5
        assert abs(payload["oracle"]["value"] - payload["value"]) < 1e-5
        code, _, err = run(capsys, *argv, "--part", "2")
        assert code == 2
        assert "qubit" in err


class TestResourceCaps:
    # each would allocate gigabytes before the cap; none may leak a traceback
    def test_oversized_oracle_grid(self, tmp_path, capsys):
        state = tmp_path / "bell.json"
        run(capsys, "gen", "--name", "bell", "--out", str(state))
        for grid in ("200000,200000,0", "41,80,1000000000"):
            code, _, err = run(
                capsys, "discord", "--state", str(state), "--part", "1", "--oracle", "--grid", grid
            )
            assert code == 2
            assert "Traceback" not in err
            assert "cap" in err

    def test_oversized_sweep(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "sweep", "--family", "w-ghz", "--from", "0", "--to", "1",
            "--steps", "100000000000", "--out", str(tmp_path / "sweep.csv"),
        )
        assert code == 2
        assert "Traceback" not in err
        assert "100000 steps" in err
        assert not (tmp_path / "sweep.csv").exists()
