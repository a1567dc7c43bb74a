"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import _parse_cache, build_parser, main


class TestParser:
    def test_cache_parsing(self):
        config = _parse_cache("4096:64:2")
        assert (config.size, config.line_size, config.associativity) == (
            4096, 64, 2
        )

    def test_cache_parsing_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_cache("nope")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_cache("1000:32:1")  # invalid geometry

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "doom"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "m88ksim" in out and "heap-placed" in out

    def test_stats(self, capsys):
        assert main(["stats", "mgrid"]) == 0
        out = capsys.readouterr().out
        assert "instructions:" in out
        assert "global" in out

    def test_profile_place_pipeline(self, tmp_path, capsys):
        profile_path = tmp_path / "p.json"
        placement_path = tmp_path / "m.json"
        assert main(["profile", "go", "-o", str(profile_path)]) == 0
        assert profile_path.exists()
        assert main([
            "place", "--profile", str(profile_path),
            "-o", str(placement_path),
        ]) == 0
        assert placement_path.exists()
        out = capsys.readouterr().out
        assert "TRG edges" in out
        assert "placed" in out

    def test_profile_sampled(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        assert main(["profile", "go", "-o", str(path), "--sample"]) == 0
        assert "sampled" in capsys.readouterr().out

    def test_run(self, capsys):
        assert main(["run", "mgrid", "--same-input"]) == 0
        out = capsys.readouterr().out
        assert "original" in out and "ccdp" in out and "reduction" in out

    def test_run_with_random_and_cache(self, capsys):
        assert main(["run", "go", "--random", "--cache", "4096:32:1"]) == 0
        out = capsys.readouterr().out
        assert "random" in out
        assert "4K/32B/direct" in out

    def test_map(self, capsys):
        assert main(["map", "fpppp"]) == 0
        out = capsys.readouterr().out
        assert "natural placement" in out
        assert "CCDP placement" in out
        assert "conflicts" in out


class TestSummaryAndTables:
    def test_summary(self, capsys):
        assert main(["summary", "mgrid"]) == 0
        out = capsys.readouterr().out
        assert "TRG edges" in out
        assert "popular @99%" in out

    def test_tables_subcommand_runs_a_small_table(self, capsys):
        assert main(["tables", "table3"]) == 0
        out = capsys.readouterr().out
        assert "mgrid" in out

    def test_tables_rejects_unknown(self):
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            main(["tables", "table99"])

    def test_place_with_linker_script(self, tmp_path, capsys):
        profile_path = tmp_path / "p.json"
        placement_path = tmp_path / "m.json"
        script_path = tmp_path / "layout.ld"
        assert main(["profile", "fpppp", "-o", str(profile_path)]) == 0
        assert main([
            "place", "--profile", str(profile_path),
            "-o", str(placement_path), "--script", str(script_path),
        ]) == 0
        text = script_path.read_text()
        assert "SECTIONS" in text
        assert "__stack_start" in text


class TestStoreCommands:
    def test_tables_programs_subset(self, capsys):
        assert main(["tables", "table2", "--programs", "compress"]) == 0
        out = capsys.readouterr().out
        assert "compress" in out
        assert "deltablue" not in out

    def test_tables_programs_rejects_unknown(self, capsys):
        assert main(["tables", "table2", "--programs", "doom"]) == 2
        assert "unknown programs" in capsys.readouterr().err

    def test_tables_programs_rejects_unsupported_table(self, capsys):
        assert (
            main(["tables", "sampling", "--programs", "compress,go"]) == 2
        )
        assert "does not take" in capsys.readouterr().err

    def test_warm_rerun_hits_and_matches(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        argv = [
            "tables", "table2", "--programs", "compress",
            "--cache-dir", store_dir,
        ]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert " misses=0 " in warm.err

    def test_no_cache_skips_store(self, tmp_path, capsys):
        assert main([
            "tables", "table3", "--programs", "compress", "--no-cache",
        ]) == 0
        captured = capsys.readouterr()
        assert "[store]" not in captured.err

    def test_cache_stats_gc_clear(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main([
            "run", "compress", "--cache-dir", store_dir,
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out and "placement" in out
        assert main([
            "cache", "gc", "--max-bytes", "0", "--cache-dir", store_dir,
        ]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", store_dir]) == 0
        assert "removed 0 entries" in capsys.readouterr().out


class TestBenchCommand:
    @pytest.mark.parametrize(
        "flag",
        [
            "--placement",
            "--store",
            "--dag",
            "--cache-dir=x",
            "--no-cache",
            "--trace-scale",
            "--scales=1",
            "--backends=shm",
        ],
    )
    def test_folded_bench_modes_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", flag])
