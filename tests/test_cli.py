"""End-to-end tests for the command-line interface."""

import json

import numpy as np
import pytest

from balancenet.cli import EXIT_BUDGET, EXIT_INPUT, main


def write_price_csv(path, n_days=30):
    """Two co-moving tickers, one anti-mover, one noise ticker."""
    rng = np.random.default_rng(0)
    steps = rng.normal(0.001, 0.02, size=n_days - 1)
    noise = rng.normal(0, 0.02, size=n_days - 1)
    lines = ["date,AAA,BBB,CCC,DDD"]
    a = b = c = d = 100.0
    lines.append(f"2020-01-01,{a},{b},{c},{d}")
    for day in range(1, n_days):
        a *= float(np.exp(steps[day - 1]))
        b *= float(np.exp(steps[day - 1] * 1.1))
        c *= float(np.exp(-steps[day - 1]))
        d *= float(np.exp(noise[day - 1]))
        lines.append(f"2020-01-{day + 1:02d},{a!r},{b!r},{c!r},{d!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


def test_build_net_detect_stats_pipeline(tmp_path, capsys):
    csv = write_price_csv(tmp_path / "prices.csv")
    net = tmp_path / "net"
    assert main(["build-net", "--in", str(csv), "--out", str(net)]) == 0
    assert (net / "edges.tsv").is_file()
    meta = json.loads((net / "meta.json").read_text())
    assert meta["n"] == 4
    assert meta["alpha_level"] == 0.05
    assert meta["tickers"] == ["AAA", "BBB", "CCC", "DDD"]

    module_path = tmp_path / "module.json"
    assert main(["detect", "--net", str(net), "--sigma", "0.7", "--out", str(module_path)]) == 0
    report = json.loads(module_path.read_text())
    assert report["sigma"] == 0.7
    assert report["size"] == len(report["nodes"])
    assert sorted(report["faction_a"] + report["faction_b"]) == report["nodes"]

    stats_path = tmp_path / "stats.json"
    assert main(
        ["stats", "--net", str(net), "--module", str(module_path), "--out", str(stats_path)]
    ) == 0
    stats = json.loads(stats_path.read_text())
    assert set(stats) == {"xi_plus", "xi_minus", "mu_plus", "mu_minus", "lscbm_size", "varsigma"}
    assert stats["lscbm_size"] == report["size"]
    capsys.readouterr()


def test_stats_tsv_column_order(tmp_path, capsys):
    csv = write_price_csv(tmp_path / "prices.csv")
    net = tmp_path / "net"
    main(["build-net", "--in", str(csv), "--out", str(net)])
    out = tmp_path / "stats.tsv"
    assert main(["stats", "--net", str(net), "--out", str(out), "--format", "tsv"]) == 0
    header = out.read_text().splitlines()[0].split("\t")
    assert header == ["xi_plus", "xi_minus", "mu_plus", "mu_minus", "lscbm_size", "varsigma"]
    capsys.readouterr()


def test_reruns_are_byte_identical(tmp_path, capsys):
    csv = write_price_csv(tmp_path / "prices.csv")
    net1, net2 = tmp_path / "n1", tmp_path / "n2"
    main(["build-net", "--in", str(csv), "--out", str(net1)])
    main(["build-net", "--in", str(csv), "--out", str(net2)])
    assert (net1 / "edges.tsv").read_bytes() == (net2 / "edges.tsv").read_bytes()
    assert (net1 / "meta.json").read_bytes() == (net2 / "meta.json").read_bytes()

    g1, g2 = tmp_path / "g1", tmp_path / "g2"
    args = ["gen-random", "--n", "30", "--alpha-edge", "0.5", "--beta-edge", "0.2", "--rng-seed", "7"]
    main(args + ["--out", str(g1)])
    main(args + ["--out", str(g2)])
    assert (g1 / "edges.tsv").read_bytes() == (g2 / "edges.tsv").read_bytes()
    capsys.readouterr()


def test_omitted_seed_is_printed(tmp_path, capsys):
    out = tmp_path / "g"
    assert main(["gen-random", "--n", "10", "--alpha-edge", "0.9", "--beta-edge", "0.05", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "rng-seed: " in printed


def test_plant_oracle_detect_agree(tmp_path, capsys):
    out = tmp_path / "inst"
    assert main(
        ["plant", "--n", "14", "--n-a", "2", "--n-b", "3", "--rng-seed", "5", "--out", str(out)]
    ) == 0
    truth = json.loads((out / "truth.json").read_text())
    expected = sorted(truth["truth_a"] + truth["truth_b"])

    oracle_out = tmp_path / "oracle.json"
    assert main(["oracle", "--net", str(out), "--out", str(oracle_out)]) == 0
    assert json.loads(oracle_out.read_text())["nodes"] == expected

    detect_out = tmp_path / "detect.json"
    assert main(["detect", "--net", str(out), "--out", str(detect_out)]) == 0
    assert json.loads(detect_out.read_text())["nodes"] == expected
    capsys.readouterr()


def test_sim_accuracy_report(tmp_path, capsys):
    out = tmp_path / "acc.json"
    code = main(
        [
            "sim-accuracy", "--n", "60", "--n-a", "6", "--n-b", "9",
            "--trials", "3", "--rng-seed", "11", "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["accuracy"] == 1.0
    assert report["trials"] == 3
    capsys.readouterr()


def test_sim_scaling_tsv_rows(tmp_path, capsys):
    out = tmp_path / "scal.tsv"
    code = main(
        [
            "sim-scaling", "--regime", "dense", "--b", "2", "--n-grid", "40,80",
            "--trials", "2", "--rng-seed", "7", "--format", "tsv", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].split("\t")[0] == "n"
    assert len(lines) == 3
    capsys.readouterr()


def test_sim_scaling_json_report(tmp_path, capsys):
    out = tmp_path / "scal.json"
    code = main(
        [
            "sim-scaling", "--regime", "general", "--n-grid", "40,80",
            "--trials", "2", "--rng-seed", "3", "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["regime"] == "general"
    assert [row["n"] for row in report["rows"]] == [40, 80]
    capsys.readouterr()


def test_sigma_sweep(tmp_path, capsys):
    inst = tmp_path / "inst"
    main(["plant", "--n", "20", "--n-a", "3", "--n-b", "3", "--rng-seed", "2", "--out", str(inst)])
    out = tmp_path / "sweep.json"
    assert main(["sigma-sweep", "--net", str(inst), "--steps", "6", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 6
    assert rows[0]["sigma"] == 0.4
    assert rows[-1]["sigma"] == 0.9
    for row in rows:
        assert row["varsigma"] == row["size"] / 20
    # from 0.7 up only the planted core edges survive thresholding
    assert [row["size"] for row in rows if row["sigma"] >= 0.7] == [6, 6, 6]
    capsys.readouterr()


def test_input_error_exit_code(tmp_path, capsys):
    code = main(["build-net", "--in", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "x")])
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("message", ["Unable to allocate 3.0 GiB for an array", ""])
def test_memory_error_exit_code(tmp_path, capsys, monkeypatch, message):
    def no_memory(params):
        raise MemoryError(message)

    monkeypatch.setattr("balancenet.cli.sample_signed", no_memory)
    argv = ["gen-random", "--n", "20000", "--alpha-edge", "0.6", "--beta-edge", "0.3", "--rng-seed", "1"]
    code = main([*argv, "--out", str(tmp_path / "x")])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and message in err
    assert err.count("\n") == 1
    assert not (tmp_path / "x").exists()


def test_malformed_csv_exit_code(tmp_path, capsys):
    prices = tmp_path / "p.csv"
    prices.write_text("date,AAA\n2020-01-01," + "1" * 200_000 + "\n")
    code = main(["build-net", "--in", str(prices), "--out", str(tmp_path / "x")])
    assert code == EXIT_INPUT
    assert f"error: cannot read price file {prices}" in capsys.readouterr().err


def test_non_utf8_csv_exit_code(tmp_path, capsys):
    prices = tmp_path / "p.csv"
    prices.write_bytes(b"date,AAA\n2020-01-01,1.0\n\xff\xfe\n")
    code = main(["build-net", "--in", str(prices), "--out", str(tmp_path / "x")])
    assert code == EXIT_INPUT
    assert f"error: cannot read price file {prices}" in capsys.readouterr().err


def test_budget_exit_code(tmp_path, capsys):
    net = tmp_path / "big"
    main(["gen-random", "--n", "30", "--alpha-edge", "0.5", "--beta-edge", "0.2", "--rng-seed", "1", "--out", str(net)])
    code = main(["oracle", "--net", str(net), "--out", str(tmp_path / "o.json")])
    assert code == EXIT_BUDGET
    capsys.readouterr()


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--net", "x"])  # missing --out
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["build-net", "--in", "x", "--out", "y", "--format", "tsv"])  # writes no report
    assert exc.value.code == 2


def test_bad_edge_file_exit_code(tmp_path, capsys):
    net = tmp_path / "net"
    main(["gen-random", "--n", "10", "--alpha-edge", "0.5", "--beta-edge", "0.2", "--rng-seed", "1", "--out", str(net)])
    with (net / "edges.tsv").open("a") as fh:
        fh.write("0\t1\tnan\n")
    code = main(["detect", "--net", str(net), "--out", str(tmp_path / "m.json")])
    assert code == EXIT_INPUT
    assert "not in [-1, 1]" in capsys.readouterr().err


def test_stats_module_out_of_range_exit_code(tmp_path, capsys):
    csv = write_price_csv(tmp_path / "prices.csv")
    net = tmp_path / "net"
    main(["build-net", "--in", str(csv), "--out", str(net)])
    module_path = tmp_path / "module.json"
    module_path.write_text(json.dumps({"faction_a": [0, 1, 4], "faction_b": [], "sigma": 0.7}))
    code = main(["stats", "--net", str(net), "--module", str(module_path), "--out", str(tmp_path / "s.json")])
    assert code == EXIT_INPUT
    assert "outside 0..3" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_bad_meta_exit_code(tmp_path, capsys):
    net = tmp_path / "net"
    main(["gen-random", "--n", "10", "--alpha-edge", "0.5", "--beta-edge", "0.2", "--rng-seed", "1", "--out", str(net)])
    meta = json.loads((net / "meta.json").read_text())
    del meta["n"]
    (net / "meta.json").write_text(json.dumps(meta))
    code = main(["detect", "--net", str(net), "--out", str(tmp_path / "m.json")])
    assert code == EXIT_INPUT
    assert "n must be a non-negative integer" in capsys.readouterr().err


def test_stats_module_bad_entries_exit_code(tmp_path, capsys):
    csv = write_price_csv(tmp_path / "prices.csv")
    net = tmp_path / "net"
    main(["build-net", "--in", str(csv), "--out", str(net)])
    module_path = tmp_path / "module.json"
    module_path.write_text(json.dumps({"faction_a": ["x"], "faction_b": [], "sigma": 0.7}))
    code = main(["stats", "--net", str(net), "--module", str(module_path), "--out", str(tmp_path / "s.json")])
    assert code == EXIT_INPUT
    assert "faction_a must be a list of integers" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()
