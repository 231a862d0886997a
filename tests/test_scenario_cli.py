"""Scenario file parsing and the command line interface."""

import hashlib
import json
from pathlib import Path

import pytest

from sentinet import Engine, load_topology
from sentinet.cli import main
from sentinet.engine import ConfigError
from sentinet.scenario import load_scenario

TINY = """
[topology]
node_count = 24
seed = 5

[cells]
cell_types = 3
packet_checkers_per_type = 6
node_checkers_per_type = 1

[security]
min_security = 2

[traffic]
packets_per_step = 1
infection_probability = 0.5
internal_attack_rate = 1

[run]
strategy = protocols
duration = 40
seed = 9

[sweep]
seeds = 1 2
strategies = uninformed notification
"""


@pytest.fixture
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY, encoding="utf-8")
    return path


class TestScenarioParsing:
    def test_round_trip_fields(self, tiny_scenario):
        scenario = load_scenario(tiny_scenario)
        assert scenario.config.topology.node_count == 24
        assert scenario.config.cell_types == 3
        assert scenario.config.duration == 40
        assert scenario.config.strategy == "protocols"
        assert scenario.sweep_seeds == [1, 2]
        assert scenario.sweep_strategies == ["uninformed", "notification"]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nduraton = 5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="duraton"):
            load_scenario(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[cheese]\nkind = brie\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="cheese"):
            load_scenario(path)

    def test_invariants_enforced_at_parse_time(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[security]\nmin_security = -1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="min_security"):
            load_scenario(path)

    def test_config_for_overrides_strategy_and_seed(self, tiny_scenario):
        scenario = load_scenario(tiny_scenario)
        config = scenario.config_for("uninformed", 77)
        assert config.strategy == "uninformed"
        assert config.seed == 77
        # The original stays untouched.
        assert scenario.config.seed == 9

    def test_shipped_scenarios_parse(self):
        root = Path(__file__).resolve().parent.parent / "scenarios"
        for name in ("reference.ini", "fragmented.ini"):
            scenario = load_scenario(root / name)
            assert scenario.config.duration >= 1


class TestCli:
    def test_validate_ok(self, tiny_scenario, capsys):
        assert main(["validate", str(tiny_scenario)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_bad_value_exits_1_and_names_key(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[security]\nmin_security = -1\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "min_security" in capsys.readouterr().err

    def test_validate_start_fragment_beyond_fragment_count_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[cells]\nstart_fragment = 3\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "start_fragment" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "topology,key",
        [
            ("node_count = 20\nfragment_count = 2\nbridges_per_fragment_pair = 2\n", "bridges_per_fragment_pair"),
            (
                "node_count = 4\nworkstation_fraction = 0\nserver_fraction = 0.85\nrouter_fraction = 0.15\n",
                "role mix",
            ),
        ],
    )
    def test_validate_topology_generation_cannot_build_exits_1(self, tmp_path, capsys, topology, key):
        path = tmp_path / "bad.ini"
        path.write_text(f"[topology]\n{topology}", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["validate"], ["run", "--out-dir", "out"], ["sweep", "--out-dir", "out"]])
    def test_file_that_is_not_utf8_exits_1(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.ini"
        path.write_bytes(b"[run]\nstrategy = trails # caf\xe9\n")
        assert main([command[0], str(path), *command[1:]]) == 1
        assert capsys.readouterr().err.startswith("error: malformed scenario file: ")
        assert not (tmp_path / "out").exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.ini")]) == 2

    def test_run_writes_summary_and_timeseries(self, tiny_scenario, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(tiny_scenario), "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["strategy"] == "protocols"
        assert summary["duration"] == 40
        lines = (out / "timeseries.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 41  # header + one row per step
        assert lines[0].startswith("t,detections_cum")

    def test_run_twice_is_byte_identical(self, tiny_scenario, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(tiny_scenario), "--out-dir", str(out_a)]) == 0
        assert main(["run", str(tiny_scenario), "--out-dir", str(out_b)]) == 0
        for name in ("summary.json", "timeseries.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_verbose_writes_both_logs(self, tiny_scenario, tmp_path):
        out = tmp_path / "v"
        assert main(["run", str(tiny_scenario), "--out-dir", str(out), "--verbose"]) == 0
        assert (out / "traffic.csv").read_text(encoding="utf-8").startswith("t,packet_id")
        assert (out / "trails.csv").read_text(encoding="utf-8").startswith("t,node,link,cell_type,value")
        # The log bytes are pinned: a change to the engine's trail layout or
        # traffic bookkeeping must not change what the logs say. trails.csv
        # holds one row per trail bump.
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("trails.csv", "traffic.csv")
        }
        assert digests == {
            "trails.csv": "7ad3cac5d54c11796afaae9d72aa848393ca61cc60cb865c5f36363b22b8c061",
            "traffic.csv": "e71a07799218f87af61f5628c380927279672d90a023f5c832ee9cb87338a380",
        }

    def test_verbose_log_that_cannot_be_opened_exits_2(self, tiny_scenario, tmp_path, capsys):
        out = tmp_path / "v"
        (out / "trails.csv").mkdir(parents=True)
        assert main(["run", str(tiny_scenario), "--out-dir", str(out), "--verbose"]) == 2
        assert "cannot write results" in capsys.readouterr().err

    def test_sweep_rows_and_comparison(self, tiny_scenario, tmp_path):
        out = tmp_path / "sweep"
        assert main(["sweep", str(tiny_scenario), "--out-dir", str(out)]) == 0
        rows = (out / "runs.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 5  # header + 2 strategies x 2 seeds
        body = [line.split(",")[:2] for line in rows[1:]]
        assert body == sorted(body)  # ordered by (strategy, seed)
        comparison = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()
        assert comparison[0].startswith("strategy,mean_detection_rate")
        assert len(comparison) == 3

    def test_sweep_parallel_matches_serial(self, tiny_scenario, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert main(["sweep", str(tiny_scenario), "--out-dir", str(serial)]) == 0
        assert main(["sweep", str(tiny_scenario), "--out-dir", str(parallel), "--jobs", "2"]) == 0
        assert (serial / "runs.csv").read_bytes() == (parallel / "runs.csv").read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-4", "two"])
    def test_sweep_jobs_below_one_is_a_usage_error(self, tiny_scenario, tmp_path, capsys, jobs):
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", str(tiny_scenario), "--out-dir", str(out), "--jobs", jobs])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_topology(self, tiny_scenario, tmp_path):
        out = tmp_path / "net.topo"
        assert main(["gen-topology", str(tiny_scenario), str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("nodes 24\n")
        assert "edge" in text
        topo = load_topology(out)
        assert topo.node_count == 24
        # The written file is the topology a run of the same scenario uses.
        ran = Engine(load_scenario(tiny_scenario).config).topology
        assert topo.roles == ran.roles
        assert topo.edges == ran.edges
