import pytest

import onmapf.bench
from onmapf.bench import build_parser, main

MAP_1X2 = "height 1\nwidth 2\nmap\n..\n"
SCEN_SINGLE = "1 0 0 0 0 1\n"
CNF_SAT2 = "p cnf 2 3\n1 2 0\n-1 2 0\n1 -2 0\n"
CNF_UNSAT1 = "p cnf 1 3\n1 0\n1 0\n-1 0\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_line_sequence(capsys):
    assert main(["solve", "--family", "line", "--m", "4", "--policy", "sequence"]) == 0
    out = capsys.readouterr().out
    assert "flowtime 34, makespan 16, latency 18" in out


def test_solve_opt_rational_new(capsys):
    rc = main(["solve", "--family", "line", "--m", "4", "--policy", "opt-rational",
               "--mode", "new", "--objective", "flowtime"])
    assert rc == 0
    assert "flowtime 34" in capsys.readouterr().out


def test_solve_single_agent_map(tmp_path, capsys):
    map_path = write(tmp_path, "empty1x2.map", MAP_1X2)
    scen_path = write(tmp_path, "single.scen", SCEN_SINGLE)
    rc = main(["solve", "--map", map_path, "--scen", scen_path, "--policy", "sequence"])
    assert rc == 0
    assert "flowtime 1, makespan 1, latency 0" in capsys.readouterr().out


def test_ratio_report_and_steps_bytes(tmp_path, capsys):
    out_dir = tmp_path / "ratio"
    assert main(["ratio", "--family", "line", "--m", "4", "--policy", "sequence",
                 "--objective", "latency", "--out", str(out_dir)]) == 0
    assert (out_dir / "report.csv").read_text().splitlines()[1] == (
        "sequence,new-single,latency,4,34,16,18,0,1,0,18,9,2.0,9"
    )
    assert (out_dir / "steps.csv").read_text() == (
        "k,time,flowtime,makespan,flow_bound,make_bound,flow_ok,make_ok,fallback\n"
        "1,0,4,4,4,4,1,1,0\n"
        "2,1,11,8,16,8,1,1,0\n"
        "3,2,21,12,36,12,1,1,0\n"
        "4,3,34,16,64,16,1,1,0\n"
    )

    out_dir = tmp_path / "replay"
    assert main(["solve", "--family", "line", "--m", "4", "--policy", "custom-irrational",
                 "--out", str(out_dir)]) == 0
    assert (out_dir / "report.csv").read_text().splitlines()[1] == (
        "replay-optimal,new-single,flowtime,4,25,11,9,0,0,0,,,,"
    )
    assert (out_dir / "steps.csv").read_text().splitlines()[2] == "2,1,14,11,16,8,1,0,0"
    capsys.readouterr()


def test_solve_writes_byte_stable_reports(tmp_path, capsys):
    contents = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        rc = main(["solve", "--family", "line", "--m", "4", "--policy", "sequence",
                   "--out", str(out_dir)])
        assert rc == 0
        contents.append(
            tuple((out_dir / f).read_bytes() for f in ("plan.csv", "report.csv", "steps.csv"))
        )
    assert contents[0] == contents[1]
    report = (tmp_path / "a" / "report.csv").read_text().splitlines()
    assert report[0].startswith("policy,mode,objective,agents,flowtime")
    assert ",34,16,18,0," in report[1]


def test_ratio_line_sequence_flowtime(capsys):
    rc = main(["ratio", "--family", "line", "--m", "4", "--policy", "sequence",
               "--objective", "flowtime"])
    assert rc == 0
    assert "34/25 = 1.36" in capsys.readouterr().out


def test_ratio_2x2_makespan_and_latency(capsys):
    rc = main(["ratio", "--family", "2x2-adversary", "--policy", "opt-rational",
               "--mode", "all", "--objective", "makespan"])
    assert rc == 0
    assert "3/2 = 1.5" in capsys.readouterr().out
    rc = main(["ratio", "--family", "2x2-adversary", "--policy", "opt-rational",
               "--mode", "all", "--objective", "latency"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1/0 = inf (additive gap 1)" in out


def test_ratio_oracle_runs_on_the_grid_family(capsys):
    rc = main(["ratio", "--family", "grid-random", "--m", "6", "--seed", "1",
               "--objective", "flowtime"])
    assert rc == 0  # 6 agents on an 8x8 grid: bounded by the node budget alone
    assert "flowtime ratio: 105/36" in capsys.readouterr().out


def test_ratio_forced_oracle_never_below_one(capsys):
    rc = main(["ratio", "--family", "grid-random", "--m", "3", "--seed", "0",
               "--objective", "flowtime"])
    assert rc == 0
    ratio_line = [l for l in capsys.readouterr().out.splitlines() if "ratio:" in l][0]
    alg, opt = (int(x) for x in ratio_line.split()[2].split("/"))
    assert alg >= opt > 0  # the oracle is a true lower bound


def test_sweep_values_and_monotone_check(capsys):
    rc = main(["sweep", "--m-list", "2,4,6",
               "--policies", "sequence,opt-rational:new-single:flowtime"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "m,policy,flowtime,makespan,ratio_flow,ratio_make"
    seq = [line for line in lines if line.startswith(("2,sequence", "4,sequence", "6,sequence"))]
    assert [line.split(",")[4] for line in seq] == ["1.0", "1.36", "1.85"]
    opt = [line for line in lines if "opt-rational(new-single:flowtime)" in line]
    # forced into the very same behavior as the naive baseline
    assert [line.split(",")[2:] for line in opt] == [line.split(",")[2:] for line in seq]
    assert "monotone-ratio-check: ok" in out


def test_sweep_monotone_check_ignores_the_m_list_order(capsys):
    # Rows keep the --m-list order; the check compares the distinct m >= 4
    # in increasing order, so a descending or repeated list passes too.
    for m_list in ("8,6", "6,6"):
        assert main(["sweep", "--m-list", m_list]) == 0, m_list
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines[1:-1]] == m_list.split(",")
        assert lines[-1] == "monotone-ratio-check: ok"


def test_sweep_without_family_writes_to_out(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--m-list", "2,4", "--out", str(out_dir)]) == 0
    table = (out_dir / "sweep.csv").read_text().splitlines()
    assert table[0] == "m,policy,flowtime,makespan,ratio_flow,ratio_make"
    assert [row.split(",")[:2] for row in table[1:]] == [["2", "sequence"], ["4", "sequence"]]
    assert "wrote sweep.csv" in capsys.readouterr().out


def test_sweep_empty_policy_list(capsys):
    assert main(["sweep", "--m-list", "2,4", "--policies", ""]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "m,policy,flowtime,makespan,ratio_flow,ratio_make"
    assert len([line for line in out.splitlines() if line and "," in line]) == 1


def test_sweep_rejects_bad_policy_with_empty_m_list(capsys):
    # every descriptor is parsed before any run, so no m is needed to reject one
    for m_list in ("", "2"):
        assert main(["sweep", "--m-list", m_list, "--policies", "sequence,bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad policy descriptor 'bogus'\n"


def test_sweep_checks_every_m_before_running(capsys):
    # every --m-list entry is checked before any run, even with no policy
    cases = (("3", "line family needs an even m >= 2, got 3"),
             ("2,0", "line family needs an even m >= 2, got 0"),
             ("2,x", "bad --m-list entry 'x'"))
    for m_list, message in cases:
        for policies in ("", "sequence"):
            assert main(["sweep", "--m-list", m_list, "--policies", policies]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"


def test_sweep_rejects_an_m_list_naming_no_m(capsys):
    # with no m to run, the monotone-ratio check would pass over nothing
    for m_list in ("", ","):
        for policies in ("", "sequence"):
            assert main(["sweep", "--m-list", m_list, "--policies", policies]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: --m-list names no m\n"


def test_reduce_sat_roundtrip(tmp_path, capsys):
    cnf = write(tmp_path, "sat2.cnf", CNF_SAT2)
    out_dir = tmp_path / "red"
    assert main(["reduce-sat", "--cnf", cnf, "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "agents 7" in out and "distance-3-audit: ok" in out
    for name in ("graph.txt", "agents.scen", "labels.txt"):
        assert (out_dir / name).exists()
    labels = (out_dir / "labels.txt").read_text().splitlines()
    assert labels[0].split() == ["0", "v_1"]
    # the emitted files are themselves a solvable instance
    rc = main(["solve", "--graph", str(out_dir / "graph.txt"),
               "--scen", str(out_dir / "agents.scen"),
               "--policy", "opt-rational", "--mode", "new", "--objective", "makespan"])
    assert rc == 0
    assert "makespan 3" in capsys.readouterr().out


def test_reduce_sat_rejects_bad_occurrences(tmp_path, capsys):
    cnf = write(tmp_path, "bad.cnf", "p cnf 2 2\n1 2 0\n-1 -2 0\n")
    assert main(["reduce-sat", "--cnf", cnf, "--out", str(tmp_path / "x")]) == 2
    assert "occurs 2 times" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["p cnf 0 0", "p cnf -3 0"])
def test_reduce_sat_rejects_a_variable_count_below_one(header, tmp_path, capsys):
    cnf = write(tmp_path, "empty.cnf", header + "\n")
    assert main(["reduce-sat", "--cnf", cnf, "--out", str(tmp_path / "x")]) == 2
    assert "variable count must be at least 1" in capsys.readouterr().err


def test_validate_exit_codes(tmp_path, capsys):
    good_map = write(tmp_path, "good.map", MAP_1X2)
    scen = write(tmp_path, "good.scen", SCEN_SINGLE)
    assert main(["validate", "--map", good_map, "--scen", scen]) == 0

    bad_map = write(tmp_path, "bad.map", "height 1\nwidth 2\nmap\n.@@\n")
    assert main(["validate", "--map", bad_map]) == 2  # row length mismatch parses wrong
    capsys.readouterr()

    split_map = write(tmp_path, "split.map", "height 1\nwidth 3\nmap\n.@.\n")
    assert main(["validate", "--map", split_map]) == 1  # parses, but disconnected
    assert capsys.readouterr().err == "validation failure: unblocked cells are not connected\n"

    split_graph = write(tmp_path, "split.graph", "vertices 4\n0 1\n2 3\n")
    assert main(["validate", "--graph", split_graph]) == 1
    assert capsys.readouterr().err == "validation failure: graph is not connected\n"


def test_config_errors(capsys):
    assert main(["solve", "--family", "line"]) == 2  # missing --m
    assert main(["solve", "--family", "line", "--m", "3"]) == 2  # odd m
    assert main(["solve", "--family", "line", "--m", "2", "--map", "x"]) == 2
    assert main(["solve"]) == 2  # no source at all
    capsys.readouterr()
    assert main(["validate", "--scen", "x"]) == 2
    assert "validate needs --map or --graph" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["solve", "ratio"])
@pytest.mark.parametrize("m", ["0", "-2"])
def test_grid_random_needs_a_positive_agent_count(verb, m, capsys):
    assert main([verb, "--family", "grid-random", "--m", m]) == 2
    assert "--family grid-random needs --m >= 1 (agent count)" in capsys.readouterr().err


def test_verbs_reject_flags_they_do_not_read(capsys):
    for argv in (["sweep", "--m", "8", "--m-list", "2"], ["sweep", "--seed", "1"],
                 ["sweep", "--force"], ["ratio", "--force"], ["sweep", "--map", "x"],
                 ["sweep", "--family", "grid-random"],
                 ["validate", "--map", "x", "--out", "x"],
                 ["validate", "--map", "x", "--node-budget", "5"],
                 ["validate", "--family", "line"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


def test_unknown_flag_reports_the_verb_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--m", "8"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: onmapf sweep ")
    assert err.endswith("onmapf sweep: error: unrecognized arguments: --m 8\n")


def test_unknown_flag_before_the_verb_reports_the_top_level_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--bogus", "solve", "--family", "line", "--m", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: onmapf [-h] ")
    assert err.endswith("onmapf: error: unrecognized arguments: --bogus\n")
    # the same flag after the verb still gets the verb's usage
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--family", "line", "--m", "2", "--bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: onmapf solve ")
    assert err.endswith("onmapf solve: error: unrecognized arguments: --bogus\n")


def test_flags_are_never_abbreviated(capsys):
    # Without exact flags, "--m" would read as "--map" and "--fam" as "--family".
    for argv in (["validate", "--m", "2"],
                 ["solve", "--fam", "line", "--m", "2", "--rat"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


def test_solve_budget_exhaustion_is_validation_failure(capsys):
    rc = main(["solve", "--family", "line", "--m", "4", "--policy", "opt-rational",
               "--mode", "new", "--objective", "flowtime", "--node-budget", "2"])
    assert rc == 1
    assert "validation failure" in capsys.readouterr().err


def test_node_budget_below_one_is_a_config_error(capsys):
    for argv in (["solve", "--family", "line", "--m", "4", "--policy", "opt-rational"],
                 ["ratio", "--family", "line", "--m", "4", "--policy", "opt-rational"],
                 ["sweep", "--m-list", "4", "--policies", "opt-rational:all:makespan"]):
        for budget in ("-5", "0"):
            assert main(argv + ["--node-budget", budget]) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            message = f"--node-budget must be a positive pop count, got {budget}"
            assert captured.err == f"error: {message}\n"


def test_custom_irrational_replays_the_optimum(capsys):
    rc = main(["solve", "--family", "line", "--m", "4", "--policy", "custom-irrational",
               "--objective", "flowtime"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "flowtime 25, makespan 11" in out
    assert "rational at every step: NO" in out
    rc = main(["solve", "--family", "line", "--m", "4", "--policy", "custom-irrational",
               "--objective", "flowtime", "--rationalize"])
    assert rc == 0
    assert "rational at every step: yes" in capsys.readouterr().out


def test_custom_irrational_unavailable_against_adversary(capsys):
    rc = main(["solve", "--family", "2x2-adversary", "--policy", "custom-irrational"])
    assert rc == 2
    assert "adaptive" in capsys.readouterr().err


def test_custom_irrational_solves_the_optimum_once(tmp_path, capsys, monkeypatch):
    calls = []
    solve = onmapf.bench.offline_optimal

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(onmapf.bench, "offline_optimal", counted)
    out_dir = tmp_path / "replay"
    assert main(["ratio", "--family", "grid-random", "--m", "3",
                 "--policy", "custom-irrational", "--out", str(out_dir)]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.splitlines()[:2] == [
        "policy replay-optimal: flowtime 18, makespan 16, latency 0; conflicts 0; "
        "rational at every step: yes",
        "flowtime ratio: 18/18 = 1.0 (additive gap 0)",
    ]
    assert (out_dir / "report.csv").read_text().splitlines()[1] == (
        "replay-optimal,new-single,flowtime,3,18,16,0,0,1,0,18,18,1.0,0"
    )
    assert (out_dir / "steps.csv").read_text() == (
        "k,time,flowtime,makespan,flow_bound,make_bound,flow_ok,make_ok,fallback\n"
        "1,4,6,10,6,10,1,1,0\n"
        "2,7,15,16,30,19,1,1,0\n"
        "3,9,18,16,54,22,1,1,0\n"
    )
    # an oracle that exhausts the node budget still fails before anything
    # is printed
    assert main(["ratio", "--family", "grid-random", "--m", "6",
                 "--policy", "custom-irrational", "--node-budget", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "joint search exceeded 1 pops" in captured.err
    assert len(calls) == 2


def _call(argv, capsys):
    """(exit code, stdout, stderr) of one in-process ``main`` call."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_parser_is_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
    ratio_2x2 = ["ratio", "--family", "2x2-adversary", "--policy", "opt-rational",
                 "--mode", "all", "--objective", "makespan"]
    solve_all = ["solve", "--family", "line", "--m", "4", "--policy", "opt-rational",
                 "--mode", "all"]
    calls = [ratio_2x2 + ["--rationalize"], ratio_2x2, ["sweep", "--m", "8"],
             ["sweep", "--m-list", "2"], solve_all + ["--node-budget", "5"], solve_all]
    first = []
    for argv in calls:  # each on a freshly built parser
        build_parser.cache_clear()
        first.append(_call(argv, capsys))
    reused = [_call(argv, capsys) for argv in calls]  # one parser for all
    assert reused == first

    assert [rc for rc, _, _ in reused] == [0, 0, 2, 0, 1, 0]
    assert reused[0][1].startswith("policy opt-rational(all:makespan)+rationalized: ")
    assert reused[1][1].startswith("policy opt-rational(all:makespan): ")
    assert reused[2][2].startswith("usage: onmapf sweep ")
    assert reused[4][2] == "validation failure: joint search exceeded 5 pops\n"
    assert "flowtime 25," in reused[5][1]
