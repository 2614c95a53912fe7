from __future__ import annotations

import pytest

from venngraph.arrio import parse_arr, write_arr
from venngraph.cli import main
from venngraph.hamilton import verify_cycle


@pytest.fixture()
def venn3_file(tmp_path, venn3):
    path = tmp_path / "venn3.arr"
    path.write_text(write_arr(venn3))
    return str(path)


@pytest.fixture()
def weave3_file(tmp_path, weaves):
    path = tmp_path / "weave3.arr"
    path.write_text(write_arr(weaves[3]))
    return str(path)


class TestGen:
    def test_gen_then_validate(self, capsys, tmp_path):
        assert main(["gen", "venn3"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "g.arr"
        path.write_text(text)
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "v-graph: yes" in out

    def test_gen_venn_n(self, capsys):
        assert main(["gen", "venn", "4"]) == 0
        g = parse_arr(capsys.readouterr().out)
        assert g.vertex_count == 14

    def test_gen_weave(self, capsys):
        assert main(["gen", "weave", "2"]) == 0
        g = parse_arr(capsys.readouterr().out)
        assert g.vertex_count == 4

    def test_gen_missing_parameter(self, capsys):
        assert main(["gen", "venn"]) == 2

    def test_gen_bad_parameter(self, capsys):
        assert main(["gen", "weave", "1"]) == 2


class TestChecks:
    def test_validate_weave_fails(self, capsys, weave3_file):
        assert main(["validate", weave3_file]) == 1
        out = capsys.readouterr().out
        assert "v-graph: no" in out
        assert "violations" in out

    def test_venn_check_exit_codes(self, capsys, venn3_file, weave3_file):
        assert main(["venn-check", venn3_file]) == 0
        assert "simple-venn: yes" in capsys.readouterr().out
        assert main(["venn-check", weave3_file]) == 1

    def test_connectivity(self, capsys, venn3_file, weave3_file):
        assert main(["connectivity", venn3_file]) == 0
        assert "connectivity: 4" in capsys.readouterr().out
        assert main(["connectivity", weave3_file]) == 1
        out = capsys.readouterr().out
        assert "connectivity: 2" in out
        assert "cut:" in out

    def test_certify(self, capsys, venn3_file):
        assert main(["certify", venn3_file]) == 0
        out = capsys.readouterr().out
        assert "certified: yes" in out
        assert "fallbacks: 0" in out

    def test_certify_counterexample(self, capsys, weave3_file):
        assert main(["certify", "--k", "3", weave3_file]) == 1
        out = capsys.readouterr().out
        assert "counterexample:" in out

    def test_certify_non_positive_k_is_a_usage_error(self, capsys, venn3_file):
        for k in ("0", "-1"):
            assert main(["certify", "--k", k, venn3_file]) == 2
            captured = capsys.readouterr()
            assert "certified" not in captured.out
            assert "k must be at least 1" in captured.err

    def test_certify_verbose_prints_paths(self, capsys, venn3_file):
        assert main(["certify", "--verbose", venn3_file]) == 0
        out = capsys.readouterr().out
        assert out.count("path: ") >= 12

    def test_paths(self, capsys, venn3_file, venn3):
        u, z, v = venn3.distance2_pairs()[0]
        assert main(["paths", str(u), str(z), str(v), venn3_file]) == 0
        out = capsys.readouterr().out
        assert out.count("path: ") == 4
        assert "case: 1" in out

    def test_paths_bad_triple(self, capsys, venn3_file):
        assert main(["paths", "0", "0", "0", venn3_file]) == 2


class TestHamiltonCli:
    def test_cycle_output(self, capsys, venn3_file, venn3):
        assert main(["hamilton", venn3_file]) == 0
        out = capsys.readouterr().out
        cycle = [int(tok) for tok in out.split()[1:]]
        assert verify_cycle(venn3, cycle)

    def test_weave_still_hamiltonian(self, capsys, weave3_file):
        assert main(["hamilton", weave3_file]) == 0

    def test_budget_is_usage_error(self, capsys, venn3_file):
        assert main(["hamilton", "--budget", "1", venn3_file]) == 2


class TestTransforms:
    def test_extend_pipeline(self, capsys, venn3_file):
        assert main(["extend", venn3_file]) == 0
        g = parse_arr(capsys.readouterr().out)
        assert g.vertex_count == 14

    def test_extend_rejects_weave(self, capsys, weave3_file):
        assert main(["extend", weave3_file]) == 1

    def test_dual_listing(self, capsys, venn3_file):
        assert main(["dual", venn3_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "dual 8 12"
        assert len([l for l in lines if l.startswith("edge ")]) == 12

    def test_render_to_file(self, capsys, tmp_path, venn3_file):
        out_path = tmp_path / "venn3.svg"
        assert main(["render", "--labels", "-o", str(out_path), venn3_file]) == 0
        svg = out_path.read_text()
        assert svg.count("<path") == 12

    def test_render_overlays(self, capsys, venn3_file, venn3):
        u, z, v = venn3.distance2_pairs()[0]
        code = main(
            ["render", "--hamilton", "--paths", str(u), str(z), str(v), venn3_file]
        )
        assert code == 0
        svg = capsys.readouterr().out
        assert svg.count('class="hamilton"') == 6
        assert svg.count('class="cert cert-path-') == 4

    def test_render_weave_layout_fails(self, capsys, weave3_file):
        assert main(["render", weave3_file]) == 1


class TestInputHandling:
    def test_stdin(self, capsys, monkeypatch, venn3):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(write_arr(venn3)))
        assert main(["validate"]) == 0

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/file.arr"]) == 2

    def test_malformed_input(self, capsys, tmp_path):
        path = tmp_path / "bad.arr"
        path.write_text("arrangement 2\nv 0 9.9 0.0 0.3 0.2\n")
        assert main(["validate", str(path)]) == 2
        assert "input error" in capsys.readouterr().err

    def test_closed_stdout_is_a_quiet_broken_pipe(self, capsys, monkeypatch, venn3_file):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert main(["certify", "--verbose", venn3_file]) == 141
        assert capsys.readouterr().err == ""

    def test_huge_header_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "huge.arr"
        path.write_text("arrangement 1000000000000000\n")
        assert main(["validate", str(path)]) == 2
        assert "line 1" in capsys.readouterr().err
