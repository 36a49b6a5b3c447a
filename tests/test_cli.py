"""End-to-end tests for the command-line interface."""

import io
import json
import os
import subprocess
import sys
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

import balancenet
from balancenet.cli import EXIT_BUDGET, EXIT_INPUT, main
from balancenet.corrnet import EDGE_DTYPE, ValidatedCorrMatrix, load_validated, save_validated
from balancenet.randgen import SignedModelParams, sample_signed


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
    assert (net / "edges.npy").is_file()
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


def write_factor_panel(path, n_tickers=300, n_days=244, seed=11):
    """A seeded multi-factor panel: a market factor plus one of ten sector
    factors per ticker, with sector loadings uniform in [0.3, 2.5] and 15% of
    them negative, so that some modules have two factions."""
    rng = np.random.default_rng(seed)
    t_len = n_days - 1
    market = rng.standard_normal(t_len)
    factors = rng.standard_normal((10, t_len))
    sector = rng.integers(0, 10, n_tickers)
    loading = rng.uniform(0.3, 2.5, n_tickers) * np.where(rng.random(n_tickers) < 0.15, -1.0, 1.0)
    beta = rng.uniform(0.2, 1.0, n_tickers)
    noise = rng.standard_normal((n_tickers, t_len))
    returns = 0.01 * (beta[:, None] * market + loading[:, None] * factors[sector] + noise)
    prices = 100.0 * np.exp(np.hstack([np.zeros((n_tickers, 1)), np.cumsum(returns, axis=1)]))
    days = [(date(2015, 1, 2) + timedelta(days=d)).isoformat() for d in range(n_days)]
    lines = [",".join(["date", *(f"S{k:03d}" for k in range(n_tickers))])]
    lines += [",".join([day, *(f"{p:.6f}" for p in prices[:, d])]) for d, day in enumerate(days)]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_chain_results_on_a_factor_panel_are_pinned(tmp_path, capsys):
    # computed with the whole-matrix Pearson product and the dense network,
    # before both became tiles and edges; the stats to 12 significant digits
    csv = write_factor_panel(tmp_path / "prices.csv")
    net, module_path, stats_path = tmp_path / "net", tmp_path / "module.json", tmp_path / "stats.json"
    assert main(["build-net", "--in", str(csv), "--out", str(net)]) == 0
    assert main(["detect", "--net", str(net), "--out", str(module_path)]) == 0
    assert main(["stats", "--net", str(net), "--module", str(module_path), "--out", str(stats_path)]) == 0
    assert "edges=18059 dropped=0" in capsys.readouterr().out
    module = json.loads(module_path.read_text())
    assert (module["faction_a"], module["faction_b"]) == (
        [16, 27, 74, 77, 145, 159, 185, 188, 201, 207, 209, 220, 275, 277],
        [227],
    )
    stats = json.loads(stats_path.read_text())
    assert {k: float(f"{v:.12g}") for k, v in stats.items()} == {
        "lscbm_size": 15,
        "mu_minus": -0.463135650839,
        "mu_plus": 0.268110074104,
        "varsigma": 0.05,
        "xi_minus": 0.0260423634337,
        "xi_plus": 0.376610925307,
    }


def test_chain_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the Pearson tiles are BLAS products, whose last bits may move with the
    # thread count; the edges kept and the reports must not
    csv = write_factor_panel(tmp_path / "prices.csv")
    src = str(Path(balancenet.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        out = tmp_path / threads
        net, module_path, stats_path = out / "net", out / "module.json", out / "stats.json"
        for argv in (
            ["build-net", "--in", str(csv), "--out", str(net)],
            ["detect", "--net", str(net), "--out", str(module_path)],
            ["stats", "--net", str(net), "--module", str(module_path), "--out", str(stats_path)],
        ):
            subprocess.run([sys.executable, "-m", "balancenet.cli", *argv], env=env, check=True, capture_output=True)
        outputs.append((load_validated(net).edges.size, module_path.read_bytes(), stats_path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 18059


def test_reports_carry_the_sigma_given(tmp_path, capsys):
    inst = tmp_path / "inst"
    main(["plant", "--n", "14", "--n-a", "3", "--n-b", "3", "--sigma", "0.5", "--rng-seed", "5", "--out", str(inst)])
    capsys.readouterr()
    texts = {}
    for command in ("detect", "oracle"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--net", str(inst), "--sigma", "0.5", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"{command}: sigma=0.5 size=6 -> {out}\n"
        texts[command] = out.read_text()
    assert texts["detect"] == texts["oracle"]
    assert json.loads(texts["detect"]) == {
        "sigma": 0.5,
        "size": 6,
        "nodes": [1, 3, 7, 9, 10, 13],
        "faction_a": [1, 7, 13],
        "faction_b": [3, 9, 10],
        "all_positive": False,
    }

    sweep = tmp_path / "sweep.json"
    argv = ["sigma-sweep", "--net", str(inst), "--sigma-min", "0.3", "--sigma-max", "0.8", "--steps", "6"]
    assert main(argv + ["--out", str(sweep)]) == 0
    rows = json.loads(sweep.read_text())
    assert [row["sigma"] for row in rows] == [0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    assert [row["size"] for row in rows] == [6] * 6
    capsys.readouterr()


def _printed_edges(printed):
    return int(printed.split(" edges=")[1].split()[0])


def test_printed_edge_counts_match_the_upper_triangle(tmp_path, capsys):
    net = tmp_path / "net"
    main(["build-net", "--in", str(write_price_csv(tmp_path / "prices.csv")), "--out", str(net)])
    printed = capsys.readouterr().out
    values = load_validated(net).values
    assert _printed_edges(printed) == np.count_nonzero(np.triu(values, k=1)) > 0

    g = tmp_path / "g"
    main(["gen-random", "--n", "30", "--alpha-edge", "0.5", "--beta-edge", "0.2", "--rng-seed", "7", "--out", str(g)])
    printed = capsys.readouterr().out
    values = load_validated(g).values
    assert _printed_edges(printed) == np.count_nonzero(np.triu(values, k=1)) > 0


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
    assert (net1 / "edges.npy").read_bytes() == (net2 / "edges.npy").read_bytes()
    assert (net1 / "meta.json").read_bytes() == (net2 / "meta.json").read_bytes()

    g1, g2 = tmp_path / "g1", tmp_path / "g2"
    args = ["gen-random", "--n", "30", "--alpha-edge", "0.5", "--beta-edge", "0.2", "--rng-seed", "7"]
    main(args + ["--out", str(g1)])
    main(args + ["--out", str(g2)])
    assert (g1 / "edges.npy").read_bytes() == (g2 / "edges.npy").read_bytes()
    capsys.readouterr()


def test_gen_random_writes_the_float_matrix_bytes(tmp_path, capsys):
    args = ["gen-random", "--n", "300", "--alpha-edge", "0.5", "--beta-edge", "0.2", "--rng-seed", "7"]
    main(args + ["--out", str(tmp_path / "net")])
    # the command reads its edges from the planes; the reference takes the
    # upper triangle of a float64 copy of the signs with a unit diagonal
    values = sample_signed(SignedModelParams(n=300, alpha_edge=0.5, beta_edge=0.2, seed=7)).signs.astype(float)
    np.fill_diagonal(values, 1.0)
    save_validated(ValidatedCorrMatrix.from_values(values), tmp_path / "ref")
    for name in ("edges.npy", "meta.json"):
        assert (tmp_path / "net" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
    capsys.readouterr()


def test_gen_random_makes_no_float_copy(tmp_path, capsys):
    n = 2000
    args = ["gen-random", "--n", str(n), "--alpha-edge", "0.1", "--beta-edge", "0.05", "--rng-seed", "3"]
    tracemalloc.start()
    try:
        main(args + ["--out", str(tmp_path / "net")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # sample_signed's temporaries fit (about 0.45 bytes per cell); one float64 copy does not
    assert peak <= 2 * n * n
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


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--steps", "1"], "--steps must be >= 2"),
        (["--sigma-max", "1.5"], "--sigma-min and --sigma-max must lie in (0, 1]"),
        (["--sigma-min", "0"], "--sigma-min and --sigma-max must lie in (0, 1]"),
        (["--sigma-min", "nan"], "--sigma-min and --sigma-max must lie in (0, 1]"),
    ],
)
def test_sigma_sweep_checks_its_arguments_before_loading(tmp_path, capsys, flags, message):
    # the network does not exist, so only a check made before loading it can name the flag
    out = tmp_path / "sweep.json"
    code = main(["sigma-sweep", "--net", str(tmp_path / "missing"), *flags, "--out", str(out)])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
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
    edges = np.load(net / "edges.npy")
    edges["w"][3] = np.nan
    np.save(net / "edges.npy", edges)
    code = main(["detect", "--net", str(net), "--out", str(tmp_path / "m.json")])
    assert code == EXIT_INPUT
    assert "edges.npy: row 3: weight nan is not in [-1, 1]" in capsys.readouterr().err


def _npy(array):
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


def _huge_count_file():
    """144 bytes: a header that promises 10**12 records, then one record."""
    buf = io.BytesIO()
    header = {"descr": np.lib.format.dtype_to_descr(EDGE_DTYPE), "fortran_order": False, "shape": (10**12,)}
    np.lib.format.write_array_header_1_0(buf, header)
    buf.write(np.array([(0, 1, 0.5)], dtype=EDGE_DTYPE).tobytes())
    assert buf.tell() == 144
    return buf.getvalue()


GOOD_EDGES = _npy(np.array([(0, 1, 0.5), (1, 2, -0.5)], dtype=EDGE_DTYPE))
MALFORMED_EDGE_FILES = {
    "wrong-dtype": _npy(np.array([(0, 1, 0.5)], dtype=[("i", "<i8"), ("j", "<i8"), ("w", "<f8")])),
    "big-endian": _npy(np.array([(0, 1, 0.5)], dtype=EDGE_DTYPE.newbyteorder(">"))),
    "2-d": _npy(np.array([[(0, 1, 0.5)]], dtype=EDGE_DTYPE)),
    "object": _npy(np.array([0, 1, 0.5], dtype=object)),
    "unsorted": _npy(np.array([(1, 2, 0.5), (0, 1, 0.5)], dtype=EDGE_DTYPE)),
    "repeated": _npy(np.array([(0, 1, 0.5), (0, 1, 0.5)], dtype=EDGE_DTYPE)),
    "i-ge-j": _npy(np.array([(1, 1, 0.5)], dtype=EDGE_DTYPE)),
    "j-ge-n": _npy(np.array([(0, 3, 0.5)], dtype=EDGE_DTYPE)),
    "nan": _npy(np.array([(0, 1, np.nan)], dtype=EDGE_DTYPE)),
    "1.5": _npy(np.array([(0, 1, 1.5)], dtype=EDGE_DTYPE)),
    "-1.5": _npy(np.array([(0, 1, -1.5)], dtype=EDGE_DTYPE)),
    "empty-file": b"",
    "truncated": GOOD_EDGES[:-8],
    "huge-count": _huge_count_file(),
}


@pytest.mark.parametrize("command", ["detect", "stats", "oracle"])
@pytest.mark.parametrize("case", list(MALFORMED_EDGE_FILES))
def test_malformed_edge_file_exit_code(tmp_path, capsys, command, case):
    net = tmp_path / "net"
    save_validated(ValidatedCorrMatrix.from_values(np.eye(3)), net)
    (net / "edges.npy").write_bytes(MALFORMED_EDGE_FILES[case])
    code = main([command, "--net", str(net), "--out", str(tmp_path / "out.json")])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {net / 'edges.npy'}: ") and err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()
    if case == "huge-count":  # refused before anything the size of the header's count is allocated
        assert "Failed to read all data: the header's shape (1000000000000,) needs 16000000000000 bytes" in err


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


def test_stats_module_repeated_node_exit_code(tmp_path, capsys):
    net = tmp_path / "net"
    main(["gen-random", "--n", "10", "--alpha-edge", "0.5", "--beta-edge", "0.2", "--rng-seed", "1", "--out", str(net)])
    module_path = tmp_path / "module.json"
    module_path.write_text(json.dumps({"faction_a": [1, 1, 2], "faction_b": []}))
    code = main(["stats", "--net", str(net), "--module", str(module_path), "--out", str(tmp_path / "s.json")])
    assert code == EXIT_INPUT
    assert "a faction lists a node twice" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_stats_module_must_be_balanced_at_its_sigma(tmp_path, capsys):
    net = tmp_path / "net"
    main(["gen-random", "--n", "30", "--alpha-edge", "0.05", "--beta-edge", "0.05", "--rng-seed", "1", "--out", str(net)])
    module_path, out = tmp_path / "module.json", tmp_path / "s.json"

    def stats(net, faction_a, faction_b, sigma, *flags):
        module_path.write_text(json.dumps({"faction_a": faction_a, "faction_b": faction_b, "sigma": sigma}))
        return main(["stats", "--net", str(net), "--module", str(module_path), "--out", str(out), *flags])

    capsys.readouterr()
    assert stats(net, list(range(20)), [], 0.7) == EXIT_INPUT
    assert f"{module_path}: not a balanced module of the network at sigma=0.7" in capsys.readouterr().err
    assert not out.exists()

    # factions {0, 1} and {2} at cuts up to 0.5; no edge above it
    tri = tmp_path / "tri"
    values = np.array([[1.0, 0.5, -0.5], [0.5, 1.0, -0.5], [-0.5, -0.5, 1.0]])
    save_validated(ValidatedCorrMatrix.from_values(values), tri)
    assert stats(tri, [2], [0, 1], 0.5) == 0
    assert stats(tri, [0, 1], [2], None, "--sigma", "0.5") == 0
    out.unlink()
    assert stats(tri, [0, 1], [2], None, "--sigma", "0.6") == EXIT_INPUT
    assert stats(tri, [0, 1], [2], 0.6, "--sigma", "0.5") == EXIT_INPUT
    assert stats(tri, [0, 1, 2], [], 0.5) == EXIT_INPUT
    assert stats(tri, [0, 2], [1], 0.5) == EXIT_INPUT
    assert stats(tri, [0, 1], [], 0.5) == EXIT_INPUT
    assert not out.exists()
    assert stats(tri, [], [], 0.6) == 0
    capsys.readouterr()


def test_bad_meta_exit_code(tmp_path, capsys):
    net = tmp_path / "net"
    main(["gen-random", "--n", "10", "--alpha-edge", "0.5", "--beta-edge", "0.2", "--rng-seed", "1", "--out", str(net)])
    meta = json.loads((net / "meta.json").read_text())
    del meta["n"]
    (net / "meta.json").write_text(json.dumps(meta))
    code = main(["detect", "--net", str(net), "--out", str(tmp_path / "m.json")])
    assert code == EXIT_INPUT
    assert "n must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "stats", "oracle"])
@pytest.mark.parametrize("case", ["truncated", "not-utf-8"])
def test_unreadable_meta_file_exit_code(tmp_path, capsys, command, case):
    net = tmp_path / "net"
    save_validated(ValidatedCorrMatrix.from_values(np.eye(3)), net)
    meta = (net / "meta.json").read_bytes()
    (net / "meta.json").write_bytes(meta[: len(meta) // 2] if case == "truncated" else b"\xff" + meta)
    code = main([command, "--net", str(net), "--out", str(tmp_path / "out.json")])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {net / 'meta.json'}: ") and err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


def test_stats_module_bad_entries_exit_code(tmp_path, capsys):
    csv = write_price_csv(tmp_path / "prices.csv")
    net = tmp_path / "net"
    main(["build-net", "--in", str(csv), "--out", str(net)])
    module_path = tmp_path / "module.json"
    capsys.readouterr()
    for report, message in [
        ({"faction_a": ["x"], "faction_b": [], "sigma": 0.7}, "faction_a must be a list of integers"),
        ({"faction_a": [0, 1, 2], "faction_b": [], "sigma": 1.5}, "sigma must be null or a number in (0, 1], got 1.5"),
    ]:
        module_path.write_text(json.dumps(report))
        code = main(["stats", "--net", str(net), "--module", str(module_path), "--out", str(tmp_path / "s.json")])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {module_path}: module report: {message}\n"
        assert not (tmp_path / "s.json").exists()
