"""CLI tests (fast paths; experiment smoke tests use tiny sizes)."""

import pytest

from repro.cli import build_parser, main
from repro.messaging import Transport

pytestmark = pytest.mark.integration


class TestParser:
    def test_transport_parsing(self):
        args = build_parser().parse_args(["transfer", "--transport", "udt"])
        assert args.transport is Transport.UDT

    def test_bad_transport_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["transfer", "--transport", "carrier-pigeon"])

    @pytest.mark.parametrize("argv, valid", [
        (["transfer", "--setup", "bogus"], "EU2US"),
        (["latency", "--setup", "bogus"], "EU2US"),
        (["obs", "--setup", "bogus"], "EU2US"),
        (["chaos", "--targets", "sender", "bogus"], "net-rcv"),
    ])
    def test_bad_setup_or_target_exits_2_naming_the_valid_values(
        self, argv, valid, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "bogus" in err and valid in err
        assert "Traceback" not in err

    def test_unknown_check_workload_exits_2_naming_the_workloads(self, capsys):
        # Regression: died with a ValueError traceback (exit 1) whose
        # message also listed fleet, cc and chaos campaigns.
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "--workload", "nope"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert ("invalid choice: 'nope' (choose from 'fig1', 'fig2', 'fig8', 'fig9-data', "
                "'fig9-tcp', 'obs-demo')") in err
        assert "fleet" not in err and "chaos" not in err

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["latency"])
        assert args.setup == "EU2AU"
        assert args.data_transport is None


class TestCommands:
    def test_setups_lists_all(self, capsys):
        assert main(["setups"]) == 0
        out = capsys.readouterr().out
        for name in ("Local", "EU-VPC", "EU2US", "EU2AU"):
            assert name in out

    def test_unknown_figure_errors(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_transfer_smoke(self, capsys):
        code = main([
            "transfer", "--setup", "EU-VPC", "--transport", "tcp",
            "--size-mb", "24", "--runs", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "24 MB over tcp on EU-VPC" in out
        assert "95% CI" in out

    def test_latency_smoke(self, capsys):
        code = main(["latency", "--setup", "EU-VPC", "--transfer-mb", "24"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tcp ping only on EU-VPC" in out

    @pytest.mark.parametrize("argv, expected", [
        # one Figure 8 cell under load: what latency's --transfer-mb sizes
        (["latency", "--setup", "EU-VPC", "--data-transport", "udt", "--transfer-mb", "8"],
         "tcp ping + udt data on EU-VPC"),
        # the star-incast campaign ROADMAP item 4 measures, at any size
        (["fleet", "run", "--pattern", "incast", "--hosts", "8", "--flows", "20",
          "--seeds", "1", "--horizon", "30"], "fleet: ok=1 failed=0"),
    ], ids=["latency-data-transport", "fleet-run-pattern"])
    def test_flags_that_are_the_only_route_to_a_claim(self, argv, expected, capsys):
        assert main(argv) == 0
        assert expected in capsys.readouterr().out

    def test_learn_smoke(self, capsys):
        code = main(["learn", "--value-function", "approx", "--duration", "15"])
        assert code == 0
        out = capsys.readouterr().out
        assert "TD learner (approx)" in out
        assert "TCP ref" in out

    def test_cc_list(self, capsys):
        code = main(["cc", "list"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("reno", "cubic", "bbr", "udt", "udp", "ledbat"):
            assert name in out
        assert "[aio]" not in out  # real sockets pace UDT-lite by DAIMD only
