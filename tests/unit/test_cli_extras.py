"""CLI tests for the extension flags: --json, --callgraph, --cache, --imix,
and the wcet subcommand."""

import json

import pytest

from repro.cli import main

APP = """
int a[64];
int w() { int i; for (i = 0; i < 64; i++) { a[i] = i; } return 0; }
int r() { int i; int s = 0; for (i = 0; i < 64; i++) { s += a[i]; } return s; }
int main() { w(); return r() & 15; }
"""


@pytest.fixture()
def app(tmp_path):
    path = tmp_path / "app.mc"
    path.write_text(APP)
    return path


class TestJsonExports:
    def test_tquad_json(self, app, tmp_path, capsys):
        out = tmp_path / "rep.json"
        rc = main(["profile", str(app), "--interval", "500",
                   "--json", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "tquad"
        assert "w" in data["history"]

    def test_gprof_json(self, app, tmp_path, capsys):
        out = tmp_path / "flat.json"
        rc = main(["profile", str(app), "--tool", "gprof",
                   "--json", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "flat"
        names = {r["name"] for r in data["rows"]}
        assert {"w", "r", "main"} <= names

    def test_quad_json(self, app, tmp_path, capsys):
        out = tmp_path / "quad.json"
        rc = main(["profile", str(app), "--tool", "quad",
                   "--json", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "quad"
        assert any(b["producer"] == "w" and b["consumer"] == "r"
                   for b in data["bindings"])


class TestExtraTools:
    def test_cache_flag(self, app, capsys):
        rc = main(["profile", str(app), "--interval", "500", "--cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "miss rate" in out and "TOTAL" in out

    def test_imix_flag(self, app, capsys):
        rc = main(["profile", str(app), "--interval", "500", "--imix"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mem%" in out

    def test_callgraph_flag(self, app, capsys):
        rc = main(["profile", str(app), "--tool", "gprof", "--callgraph"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "-> w" in out or "<- main" in out


class TestShadowFlags:
    def test_legacy_shadow_json_matches_paged(self, app, tmp_path, capsys):
        """The CLI's QUAD JSON equals the per-byte oracle's report."""
        from repro.minic import build_program
        from repro.serialize import quad_to_json
        from tests.reference.quad import run_per_byte_quad

        paged = tmp_path / "paged.json"
        assert main(["profile", str(app), "--tool", "quad",
                     "--json", str(paged)]) == 0
        oracle = run_per_byte_quad(build_program(app.read_text()))
        assert paged.read_text() == quad_to_json(oracle)

    def test_stats_flag_prints_footprint(self, app, capsys):
        rc = main(["profile", str(app), "--tool", "quad", "--stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "QUAD shadow memory:" in out
        assert "shadow pages" in out

    def test_stats_without_quad_exits_2(self, app, capsys):
        rc = main(["profile", str(app), "--stats"])
        assert rc == 2
        assert "--stats requires --tool quad" in capsys.readouterr().err


class TestWcetCommand:
    def test_bound_with_loop_bounds(self, app, capsys):
        rc = main(["wcet", str(app), "r", "--bounds", "r:64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "WCET(r) =" in out
        assert "loop #0" in out

    def test_missing_bounds_lists_loops(self, app, capsys):
        rc = main(["wcet", str(app), "r"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "loops of r" in err

    def test_callee_bounds(self, app, capsys):
        rc = main(["wcet", str(app), "main",
                   "--bounds", "w:64", "--bounds", "r:64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "callee w:" in out
        assert "callee r:" in out
