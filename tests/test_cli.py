import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cdgraph import (
    all_degrees_odd,
    canonical_form,
    complete_graph,
    decode_graph6,
    encode_graph6,
    figure2_graph,
    is_regular,
    odd_family,
    verify_section_3,
)
from cdgraph import cli
from cdgraph.cli import main
from conftest import seeded_graphs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_p4_fails_with_citations(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--g6", "Ch")
        assert code == 1
        assert "Theorem 2.3" in out and "Theorem 2.4" in out
        assert "inadmissible" in out

    def test_figure2_passes(self, capsys):
        g6 = encode_graph6(figure2_graph()).decode("ascii")
        code, out, _ = run_cli(capsys, "check", "--g6", g6)
        assert code == 0 and "admissible" in out

    def test_json_output_schema(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--g6", "Ch", "--output", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["overall"] == "inadmissible"
        assert payload["lewis"]["applicable"] is True
        assert [c["id"] for c in payload["checks"]][0] == "palfy"

    def test_json_bytes_stable(self, capsys):
        _, first, _ = run_cli(capsys, "check", "--g6", "Ch", "--output", "json")
        _, second, _ = run_cli(capsys, "check", "--g6", "Ch", "--output", "json")
        assert first == second

    def test_file_and_stdin_input(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "g.g6"
        path.write_text("Ch\n")
        code, _, _ = run_cli(capsys, "check", str(path))
        assert code == 1

        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("Ch\n"))
        code, _, _ = run_cli(capsys, "check")
        assert code == 1

    def test_edgelist_autodetected(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("4\n0 1\n1 2\n2 3\n")
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == 1 and "Theorem 2.3" in out

    def test_edgelist_header_beyond_graph6_range_exits_2(self, capsys, tmp_path):
        from cdgraph import complete_graph
        from cdgraph.formats import encode_edgelist

        path = tmp_path / "big.txt"
        path.write_text(encode_edgelist(complete_graph(63)))
        code, out, err = run_cli(capsys, "check", str(path))
        assert code == 2 and out == "" and "n <= 62" in err

    def test_huge_edgelist_header_on_stdin_exits_2_without_a_graph(self, capsys, monkeypatch):
        # A 10-byte header must be refused before any Graph is sized by it.
        import io

        def no_graph(n, edges=()):
            raise AssertionError(f"Graph({n}) built from an out-of-range header")

        monkeypatch.setattr("cdgraph.formats.Graph", no_graph)
        monkeypatch.setattr("sys.stdin", io.StringIO("1000000000"))
        code, out, err = run_cli(capsys, "check", "-")
        assert code == 2 and out == "" and "n <= 62" in err

    def test_non_ascii_digit_endpoint_on_stdin_exits_2(self, capsys, monkeypatch):
        # `printf '4\n\u0663 1\n0 2\n' | cdgraph check -`: int() would read
        # the Arabic-Indic three as vertex 3.
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("4\n\u0663 1\n0 2\n"))
        code, out, err = run_cli(capsys, "check", "-")
        assert code == 2 and out == ""
        assert err == "error: line 2: non-integer endpoint in '\u0663 1'\n"

    def test_endpoint_past_the_int_digit_limit_exits_2(self, capsys, monkeypatch):
        # int() refuses decimal strings longer than 4,300 digits.
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("4\n" + "1" * 5000 + " 0\n"))
        code, out, err = run_cli(capsys, "check", "-")
        assert code == 2 and out == ""
        assert err.startswith("error: line 2: non-integer endpoint in '1111")

    def test_empty_stdin_exits_2(self, capsys, monkeypatch):
        # `printf '' | cdgraph check -`
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert run_cli(capsys, "check", "-") == (2, "", "error: empty input\n")

    def test_underscore_header_with_edgelist_format_exits_2(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1_0\n0 1\n")
        code, out, err = run_cli(capsys, "check", str(path), "--format", "edgelist")
        assert code == 2 and out == ""
        assert err == "error: edge-list header '1_0' is not a vertex count\n"

    @pytest.mark.parametrize("command", ["check", "lewis"])
    def test_several_graph6_lines_exit_2(self, capsys, tmp_path, monkeypatch, command):
        # One graph per input: a graph6 stream is refused, not checked
        # by its first line.
        import io

        text = "Ch\nC~\n\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, command, "-")
        assert code == 2 and out == "" and err.startswith("error:") and "2 graphs" in err

        path = tmp_path / "two.g6"
        path.write_text(text)
        code, out, err = run_cli(capsys, command, str(path), "--format", "graph6")
        assert code == 2 and out == "" and err.startswith("error:") and "2 graphs" in err

        path.write_text("\nCh\n  \n")  # blank lines around one graph are fine
        code, _, _ = run_cli(capsys, command, str(path))
        assert code == (1 if command == "check" else 0)

    def test_graph6_separators_beyond_blanks_exit_2(self, capsys, monkeypatch, tmp_path):
        # Only "\n" (or "\r\n") ends a line and only spaces and tabs pad
        # one, on stdin and in --g6 alike.
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("Ch\x1c\n"))
        code, out, err = run_cli(capsys, "check", "-")
        assert code == 2 and out == "" and err.startswith("error:")
        code, out, err = run_cli(capsys, "check", "--g6", "\u3000Ch")
        assert code == 2 and out == "" and err.startswith("error:")
        expected = run_cli(capsys, "check", "--g6", "Ch")
        assert expected[0] == 1
        assert run_cli(capsys, "check", "--g6", " \tCh\r\n") == expected
        monkeypatch.setattr("sys.stdin", io.StringIO("\r\nCh \r\n"))
        assert run_cli(capsys, "check", "-") == expected
        path = tmp_path / "g.g6"
        path.write_bytes(b"Ch\r\n")
        assert run_cli(capsys, "check", str(path)) == expected

    def test_endless_stdin_exits_2_after_the_input_limit(self, capsys, monkeypatch):
        # `yes | cdgraph check -`: stdin is read with a size, never whole.
        class EndlessStdin:
            def read(self, size=-1):
                assert size is not None and size >= 0, "stdin read without a size"
                return ("y\n" * (size // 2 + 1))[:size]

        monkeypatch.setattr("sys.stdin", EndlessStdin())
        code, out, err = run_cli(capsys, "check", "-")
        assert code == 2 and out == ""
        assert err == f"error: input is longer than {cli._MAX_INPUT_CHARS} characters\n"

    def test_input_file_one_character_over_the_limit_exits_2(self, capsys, tmp_path):
        path = tmp_path / "padded.g6"
        path.write_text("Ch" + "\n" * (cli._MAX_INPUT_CHARS - 2))
        assert run_cli(capsys, "check", str(path))[0] == 1  # at the limit: P4 is read
        path.write_text("Ch" + "\n" * (cli._MAX_INPUT_CHARS - 1))
        code, out, err = run_cli(capsys, "check", str(path))
        assert code == 2 and out == ""
        assert err == f"error: input is longer than {cli._MAX_INPUT_CHARS} characters\n"

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "--g6", "zz")
        assert code == 2 and "error" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "/nonexistent/path.g6")
        assert code == 2 and "error" in err

    def test_conflicting_inputs_exit_2(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text("Ch\n")
        code, _, _ = run_cli(capsys, "check", str(path), "--g6", "Ch")
        assert code == 2

    @pytest.mark.parametrize("command", ["check", "lewis"])
    def test_g6_with_edgelist_format_exits_2(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--g6", "E~rG", "--format", "edgelist")
        assert code == 2 and out == "" and err.startswith("error:") and "--format edgelist" in err
        expected = run_cli(capsys, command, "--g6", "E~rG")
        assert expected[0] in (0, 1) and expected[1]
        for fmt in ("graph6", "g6", "auto"):
            assert run_cli(capsys, command, "--g6", "E~rG", "--format", fmt) == expected

    def test_empty_graph_rejected_downstream(self, capsys):
        code, _, err = run_cli(capsys, "check", "--g6", "?")
        assert code == 2 and "error" in err

    def test_usage_error_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--unknown-flag"])
        assert exc.value.code == 2


class TestLewis:
    def test_p4_text(self, capsys):
        code, out, _ = run_cli(capsys, "lewis", "--g6", "Ch")
        assert code == 0
        assert "rho4: [3]" in out

    def test_p4_json(self, capsys):
        code, out, _ = run_cli(capsys, "lewis", "--g6", "Ch", "--output", "json")
        payload = json.loads(out)
        assert payload["partition"]["rho2"] == [1]
        assert payload["theorems"]["2.5"]["verdict"] == "discrepancy"

    def test_eulerian_flag(self, capsys):
        _, out, _ = run_cli(
            capsys, "lewis", "--g6", "Ch", "--output", "json", "--eulerian", "even-only"
        )
        assert json.loads(out)["theorems"]["3.2"]["eulerian_mode"] == "even-only"

    def test_inapplicable(self, capsys):
        g6 = encode_graph6(figure2_graph()).decode("ascii")
        code, out, _ = run_cli(capsys, "lewis", "--g6", g6)
        assert code == 0 and "not applicable" in out

    def test_invalid_partition_text_names_violations(self, capsys):
        # C6 from r = 0: neither 1-5 nor 2-4 is an edge, so both cliques
        # fail and the theorems needing a valid partition are left out.
        code, out, _ = run_cli(capsys, "lewis", "--g6", "EhEG")
        assert code == 0
        assert out == (
            "lewis partition (r=0, s=3):\n"
            "  rho1: [0]\n"
            "  rho2: [1, 5]\n"
            "  rho3: [2, 4]\n"
            "  rho4: [3]\n"
            "  valid: False\n"
            "    violated rho12_complete: witness [1, 5]\n"
            "    violated rho34_complete: witness [2, 4]\n"
            "  theorem 2.5: not-applicable\n"
            "  theorem 2.7: not-applicable\n"
            "  theorem 3.3: vacuous-pass\n"
        )


def test_check_and_lewis_take_the_same_options():
    # One loop declares both subcommands; this fails if they drift apart
    # in an option, its choices or its default.
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]

    def options(name):
        return {
            a.dest: (a.option_strings, a.nargs, a.choices, a.default, a.help)
            for a in commands.choices[name]._actions
        }

    assert sorted(options("check")) == ["eulerian", "format", "g6", "help", "input", "output"]
    assert options("check") == options("lewis")
    assert options("check")["eulerian"][2:4] == (("standard", "even-only"), "standard")
    assert commands.choices["check"].get_default("func") is cli._cmd_check
    assert commands.choices["lewis"].get_default("func") is cli._cmd_lewis


class TestConstructAndFamily:
    def test_complete(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "complete", "2")
        assert code == 0 and out.strip() == "A_"

    def test_figure2_edgelist(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "figure2", "--emit", "edgelist")
        assert code == 0 and out.startswith("6\n0 1\n")

    def test_product(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "product", "@", "@")
        assert code == 0 and out.strip() == "A_"

    def test_family_pipes_into_check(self, capsys):
        for n in range(6, 21, 2):
            code, out, _ = run_cli(capsys, "family", "--n", str(n))
            assert code == 0
            g6 = out.strip()
            code, _, _ = run_cli(capsys, "check", "--g6", g6)
            assert code == 0, f"family graph on {n} vertices not admissible"

    def test_family_rejects_odd(self, capsys):
        code, _, err = run_cli(capsys, "family", "--n", "7")
        assert code == 2 and "error" in err

    def test_construct_complete_zero(self, capsys):
        code, _, err = run_cli(capsys, "construct", "complete", "0")
        assert code == 2

    def test_construct_complete_at_graph6_limit(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "complete", "62")
        assert code == 0 and out.startswith("}")  # header byte 62 + 63

    @pytest.mark.parametrize("n", ["63", "1000000000"])
    def test_construct_complete_beyond_graph6_limit_exits_2(self, capsys, monkeypatch, n):
        # Refused before any graph is built: a billion masks must never be sized.
        def no_graph(n):
            raise AssertionError(f"complete_graph({n}) built beyond the limit")

        monkeypatch.setattr("cdgraph.cli.complete_graph", no_graph)
        code, out, err = run_cli(capsys, "construct", "complete", n)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "n <= 62" in err

    @pytest.mark.parametrize("n", ["63", "64", "1000000000"])
    def test_family_beyond_graph6_limit_exits_2(self, capsys, monkeypatch, n):
        def no_graph(n):
            raise AssertionError(f"odd_family({n}) built beyond the limit")

        monkeypatch.setattr("cdgraph.cli.odd_family", no_graph)
        code, out, err = run_cli(capsys, "family", "--n", n)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "n <= 62" in err

    def test_family_at_graph6_limit(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--n", "62")
        assert code == 0 and out.startswith("}")

    @pytest.mark.parametrize("emit", ["graph6", "edgelist"])
    def test_product_beyond_graph6_limit_exits_2(self, capsys, monkeypatch, emit):
        # Two operands of 31 and 32 vertices: refused before the join is built.
        def no_product(a, b):
            raise AssertionError(f"direct_product built {a.n} + {b.n} vertices")

        monkeypatch.setattr("cdgraph.cli.direct_product", no_product)
        a, b = (encode_graph6(complete_graph(n)).decode("ascii") for n in (31, 32))
        code, out, err = run_cli(capsys, "construct", "product", a, b, "--emit", emit)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "n <= 62" in err

    @pytest.mark.parametrize("emit", ["graph6", "edgelist"])
    def test_product_at_graph6_limit(self, capsys, emit):
        k31 = encode_graph6(complete_graph(31)).decode("ascii")
        code, out, _ = run_cli(capsys, "construct", "product", k31, k31, "--emit", emit)
        assert code == 0
        if emit == "graph6":
            assert out.strip() == encode_graph6(complete_graph(62)).decode("ascii")
        else:
            assert out.startswith("62\n") and len(out.splitlines()) == 1 + 62 * 61 // 2


class TestEnumerate:
    def test_summary_n5(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "5", "--summary")
        assert code == 0 and out == verify_section_3(5).to_json() + "\n"
        payload = json.loads(out)
        assert payload["total_nonisomorphic"] == 34
        for flags in (("--filter", "all"), ("--emit", "json"), ("--emit", "graph6")):
            assert run_cli(capsys, "enumerate", "--n", "5", "--summary", *flags) == (0, out, "")

    def test_admissible_stream(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--filter", "admissible")
        assert code == 0
        assert len(out.strip().splitlines()) == 5

    def test_all_odd_stream_json(self, capsys):
        def stream(n):
            code, out, _ = run_cli(
                capsys, "enumerate", "--n", str(n), "--filter", "all-odd", "--emit", "json"
            )
            assert code == 0
            return json.loads(out)["graphs"]

        def form(g):
            return canonical_form(g).decode("ascii")

        assert stream(2) == [form(complete_graph(2))]  # K2 only
        assert stream(4) == ["C~"]  # K4 only
        n6 = stream(6)
        for g in (figure2_graph(), complete_graph(6), odd_family(6)):
            assert form(g) in n6
        assert all(all_degrees_odd(decode_graph6(s)) for s in n6)
        assert form(odd_family(8)) in stream(8)

    def test_full_stream_count(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4")
        assert len(out.strip().splitlines()) == 11

    def test_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--n", "10")
        assert code == 2 and "error" in err

    def test_full_stream_keeps_its_cap_at_n10(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--n", "10", "--filter", "all")
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_admissible_stream_at_n10(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "10", "--filter", "admissible")
        assert code == 0 and len(out.split()) == 12156

    def test_all_odd_stream_at_n10(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "10", "--filter", "all-odd")
        assert code == 0
        graphs = [decode_graph6(line) for line in out.split()]
        assert len(graphs) == 97
        assert all(all_degrees_odd(g) for g in graphs)
        assert sum(not is_regular(g)[0] for g in graphs) == 96

    @pytest.mark.parametrize("n", ["0", "11"])
    def test_summary_out_of_range(self, capsys, n):
        code, out, err = run_cli(capsys, "enumerate", "--n", n, "--summary")
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize(
        "flags",
        [("--filter", "admissible"), ("--filter", "all-odd"), ("--emit", "edgelist")],
    )
    def test_summary_rejects_stream_options(self, capsys, flags):
        code, out, err = run_cli(capsys, "enumerate", "--n", "5", "--summary", *flags)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and flags[0] in err and "--summary" in err

    def test_graph6_emit_spelling(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--emit", "graph6")
        assert code == 0 and len(out.strip().splitlines()) == 4

    def test_edgelist_stream_blocks_are_separated(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--n", "3", "--filter", "admissible", "--emit", "edgelist"
        )
        assert code == 0
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 3
        assert all(block.splitlines()[0] == "3" for block in blocks)


class TestPipelines:
    def test_construct_output_feeds_check(self, capsys):
        for n in range(6, 21, 2):
            code, out, _ = run_cli(capsys, "construct", "complete", str(n))
            g6 = out.strip()
            code, _, _ = run_cli(capsys, "check", "--g6", g6)
            assert code == 0

    def test_family_equals_iterated_product(self, capsys):
        _, fam, _ = run_cli(capsys, "family", "--n", "8")
        _, fig2, _ = run_cli(capsys, "construct", "figure2")
        _, prod, _ = run_cli(capsys, "construct", "product", fig2.strip(), "A_")
        assert fam == prod

    def test_exit_codes_distinguish_verdict_from_usage(self, capsys):
        verdict_fail, _, _ = run_cli(capsys, "check", "--g6", "Ch")
        parse_fail, _, _ = run_cli(capsys, "check", "--g6", "not-a-graph")
        ok = main(["check", "--g6", encode_graph6(odd_family(6)).decode("ascii")])
        assert (ok, verdict_fail, parse_fail) == (0, 1, 2)

    @pytest.mark.parametrize(
        "argv",
        [["enumerate", "--n", "7", "--filter", "all"], ["family", "--n", "8"]],
        ids=["stream", "one-line"],
    )
    def test_closed_reader_exits_141_without_an_error_line(self, argv):
        # As in `cdgraph enumerate --n 7 | head -1`, but with the reader
        # closed before the process starts, so that its first write meets
        # a closed pipe: in the stream's loop, or in the one-line
        # command's final flush.
        src = Path(__file__).resolve().parents[1] / "src"
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "cdgraph.cli", *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(src)},
                timeout=60,
            )
        finally:
            os.close(write)
        assert done.stderr == b""
        assert done.returncode == 141


# sha256 over the exit code and stdout of in-process ``cli.main`` for each
# graph of ``seeded_graphs(1, 212)`` (n = 10..62, four passes), as
# f"{code}\n{stdout}": the JSON bytes may change only on purpose.
OUTPUT_SHA256 = {
    ("check", "standard"): "6eb8ed68325a30af80c1b4d81218621868b772919dbd6c8ddf802eeea04ea16e",
    ("check", "even-only"): "760e4cd044866ad4eb3e11110f7342f3118c8e1235a44682063f9b0b79a3f38c",
    ("lewis", "standard"): "90482e31a625c30b62efb69665738b09d0ba23cd14e460b6a0d711d601504ab6",
    ("lewis", "even-only"): "e6b74daa8b6862bb03a9bdf483bae752062a212ff05f0652d5d0d662b387e2ce",
}


@pytest.fixture(scope="module")
def seeded_graph6():
    return [encode_graph6(g).decode("ascii") for g in seeded_graphs(1, 212)]


@pytest.mark.parametrize("command, mode", OUTPUT_SHA256)
def test_json_output_bytes_are_pinned(capsys, seeded_graph6, command, mode):
    digest = hashlib.sha256()
    for text in seeded_graph6:
        code, out, _ = run_cli(capsys, command, "--g6", text, "--output", "json", "--eulerian", mode)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == OUTPUT_SHA256[command, mode]
