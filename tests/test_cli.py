"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_info_command(capsys):
    assert main(["info", "orc"]) == 0
    out = capsys.readouterr().out
    assert "orc" in out
    assert "state_bits" in out
    assert "bypass" in out


def test_info_sim_geometry(capsys):
    assert main(["info", "secure", "--geometry", "sim"]) == 0
    out = capsys.readouterr().out
    assert "secure" in out


def test_check_finds_alert_on_orc(capsys):
    rc = main(["check", "orc", "--k", "2"])
    out = capsys.readouterr().out
    assert rc == 1  # P-alert exit code
    assert "P-alert" in out


def test_check_uncached_secure_proves(capsys):
    rc = main(["check", "secure", "--uncached", "--k", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "proved" in out


def test_methodology_insecure_exit_code(capsys):
    rc = main(["methodology", "orc", "--k", "2"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "insecure" in out


def test_parser_rejects_unknown_variant():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["info", "bogus"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_solver_flags_uniform_across_sat_commands():
    """check / methodology / sweep share one solver flag set."""
    parser = build_parser()
    for argv in (
        ["check", "secure", "--no-preprocess", "--stats", "--json",
         "--jobs", "2", "--cache-dir", "/tmp/c", "--conflict-limit", "9"],
        ["methodology", "secure", "--no-preprocess", "--stats", "--json",
         "--jobs", "2", "--cache-dir", "/tmp/c", "--conflict-limit", "9"],
        ["sweep", "--no-preprocess", "--stats", "--json",
         "--jobs", "2", "--cache-dir", "/tmp/c", "--conflict-limit", "9"],
    ):
        args = parser.parse_args(argv)
        assert args.no_preprocess and args.stats and args.json
        assert args.jobs == 2 and args.cache_dir == "/tmp/c"
        assert args.conflict_limit == 9
    args = parser.parse_args(["attack", "orc", "secure", "--stats",
                              "--json"])
    assert args.stats and args.json


def test_check_json_output(capsys):
    import json

    rc = main(["check", "orc", "--k", "1", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert data["status"] == "alert"
    assert data["alert"]["kind"] == "P"
    assert "scenario" in data


def test_methodology_json_and_cache(tmp_path, capsys):
    import json

    cache_dir = str(tmp_path / "proofs")
    rc = main(["methodology", "orc", "--k", "1", "--json",
               "--cache-dir", cache_dir])
    first = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert first["verdict"] in ("insecure", "undecided", "secure_bounded")
    assert first["stats"]["engine_cache_hits"] == 0
    main(["methodology", "orc", "--k", "1", "--json",
          "--cache-dir", cache_dir])
    second = json.loads(capsys.readouterr().out)
    assert second["stats"]["engine_cache_hits"] > 0
    assert second["verdict"] == first["verdict"]
    assert second["p_alerts"] == first["p_alerts"]


def test_sweep_command(capsys):
    rc = main(["sweep", "--variants", "secure,orc", "--k", "1",
               "--scenarios", "cached"])
    out = capsys.readouterr().out
    assert rc == 2  # the orc bypass leaks within a single frame
    assert "secure/cached/k=1" in out
    assert "orc/cached/k=1" in out
    assert "insecure" in out


def test_sweep_rejects_unknown_variant(capsys):
    rc = main(["sweep", "--variants", "nope"])
    assert rc == 64


def test_attack_stats_flag(capsys):
    rc = main(["attack", "orc", "secure", "--stats"])
    out = capsys.readouterr().out
    assert rc == 0  # the secure design leaks nothing
    assert "probes" in out
    assert "no leak" in out


# ----------------------------------------------------------------------
# Usage-error fail-fast (--jobs) and distributed flags
# ----------------------------------------------------------------------
def test_sweep_jobs_zero_fails_fast(capsys):
    rc = main(["sweep", "--variants", "secure", "--k", "1", "--jobs", "0"])
    assert rc == 64
    err = capsys.readouterr().err
    assert "usage error" in err and "--jobs" in err


def test_sweep_jobs_negative_fails_fast(capsys):
    rc = main(["sweep", "--variants", "secure", "--k", "1", "--jobs", "-3"])
    assert rc == 64
    assert "--jobs" in capsys.readouterr().err


def test_check_and_methodology_reject_nonpositive_jobs(capsys):
    assert main(["check", "secure", "--jobs", "0"]) == 64
    assert main(["methodology", "secure", "--jobs", "-1"]) == 64


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_malformed_env_jobs_is_usage_error(monkeypatch, capsys, value):
    """REPRO_ENGINE_JOBS gets the same fail-fast treatment as --jobs:
    a typo must not silently fall back to one in-process worker."""
    monkeypatch.delenv("REPRO_ENGINE_CONNECT", raising=False)
    monkeypatch.setenv("REPRO_ENGINE_JOBS", value)
    assert main(["check", "secure", "--uncached", "--k", "1"]) == 64
    err = capsys.readouterr().err
    assert "usage error" in err and "REPRO_ENGINE_JOBS" in err
    assert repr(value) in err


def test_malformed_env_cache_max_bytes_is_usage_error(monkeypatch, capsys,
                                                      tmp_path):
    monkeypatch.delenv("REPRO_ENGINE_CONNECT", raising=False)
    monkeypatch.setenv("REPRO_ENGINE_CACHE_MAX_BYTES", "12k")
    rc = main(["check", "secure", "--uncached", "--k", "1",
               "--cache-dir", str(tmp_path)])
    assert rc == 64
    err = capsys.readouterr().err
    assert "REPRO_ENGINE_CACHE_MAX_BYTES" in err and "'12k'" in err


def test_connect_rejects_malformed_address(capsys):
    rc = main(["check", "secure", "--connect", "not-an-address"])
    assert rc == 64
    assert "HOST:PORT" in capsys.readouterr().err


def test_connect_conflicts_with_jobs(capsys):
    rc = main(["methodology", "secure", "--connect", "h:1", "--jobs", "2"])
    assert rc == 64
    assert "--connect" in capsys.readouterr().err


def test_connect_unreachable_broker_exits_69(capsys):
    rc = main(["check", "secure", "--k", "1",
               "--connect", "127.0.0.1:1"])
    assert rc == 69
    assert "cannot reach broker" in capsys.readouterr().err


def test_serve_and_worker_parsers():
    parser = build_parser()
    args = parser.parse_args(["serve", "--port", "0",
                              "--heartbeat-timeout", "2.5"])
    assert args.port == 0 and args.heartbeat_timeout == 2.5
    args = parser.parse_args(["worker", "--connect", "h:1",
                              "--cache-dir", "/tmp/c", "--name", "w9"])
    assert args.connect == "h:1" and args.name == "w9"
    with pytest.raises(SystemExit):
        parser.parse_args(["worker"])  # --connect is required


def test_connect_flag_uniform_across_sat_commands():
    parser = build_parser()
    for argv in (
        ["check", "secure", "--connect", "h:1"],
        ["methodology", "secure", "--connect", "h:1"],
        ["sweep", "--connect", "h:1"],
    ):
        assert parser.parse_args(argv).connect == "h:1"


def test_explicit_jobs_overrides_env_connect(monkeypatch):
    """REPRO_ENGINE_CONNECT is a default, not a mandate: an explicit
    --jobs routes back to the local pool instead of erroring (or
    touching the unreachable broker address)."""
    monkeypatch.setenv("REPRO_ENGINE_CONNECT", "127.0.0.1:1")
    rc = main(["check", "secure", "--uncached", "--k", "1", "--jobs", "1"])
    assert rc == 0  # solved locally; the dead broker was never dialed


def test_explicit_connect_with_jobs_still_errors(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_ENGINE_CONNECT", raising=False)
    rc = main(["check", "secure", "--connect", "h:1", "--jobs", "2"])
    assert rc == 64
    assert "--connect" in capsys.readouterr().err


def test_serve_port_in_use_exits_69(capsys):
    import socket

    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    port = blocker.getsockname()[1]
    try:
        rc = main(["serve", "--port", str(port)])
    finally:
        blocker.close()
    assert rc == 69
    assert "cannot listen" in capsys.readouterr().err


def test_connect_port_out_of_range_is_usage_error(capsys):
    rc = main(["check", "secure", "--connect", "127.0.0.1:99999"])
    assert rc == 64
    assert "port out of range" in capsys.readouterr().err


def test_serve_rejects_flappy_heartbeat_timeout(capsys):
    rc = main(["serve", "--port", "0", "--heartbeat-timeout", "0.5"])
    assert rc == 64
    assert "heartbeat" in capsys.readouterr().err
