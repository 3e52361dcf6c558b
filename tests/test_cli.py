"""CLI: config parsing, deterministic CSV output, figure/table properties."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from xvaband import claims, cli, closed_form, drivers, lattice, pde
from xvaband.cli import build_config, figure_config, parse_config_text

BENCH_TEXT = """
# benchmark
fund_lend = 0.05
fund_borrow = 0.08
repo_lend = 0.05
repo_borrow = 0.05
coll_earn = 0.01
coll_pay = 0.01
discount = 0.01
mu_own = 0.21
mu_cpty = 0.16
loss_own = 0.5
loss_cpty = 0.5
alpha = 0.9
spot = 1.0
sigma = 0.2
kind = call
strike = 1.0
maturity = 1.0
"""

SYMMETRIC_TEXT = """
fund_lend = 0.08
fund_borrow = 0.08
repo_lend = 0.05
repo_borrow = 0.05
coll_earn = 0.01
coll_pay = 0.01
discount = 0.05
mu_own = 0.16
mu_cpty = 0.21
loss_own = 0.5
loss_cpty = 0.5
alpha = 0.25
"""


@pytest.fixture
def bench_cfg_path(tmp_path):
    p = tmp_path / "bench.cfg"
    p.write_text(BENCH_TEXT)
    return str(p)


def test_parse_config_roundtrip():
    values = parse_config_text(BENCH_TEXT)
    cfg = build_config(values)
    assert cfg.model.rates.fund_borrow == 0.08
    assert cfg.model.alpha == 0.9
    assert cfg.model.credit.mu_own == 0.21
    assert cfg.claim.kind == "call"
    assert cfg.nx == cli.DEFAULT_NX and cfg.steps == 500


def test_default_pde_grid_is_accurate_on_the_benchmark():
    """At the default grid the PDE lies within 5e-7 of strike of the CLI's
    lattice, extrapolated from 500, 250 and 125 steps (measured against a
    1600² PDE: 1.9e-7 at 800 x 100 uniform in time, 7e-8 at 400 x 400; the
    default 800 x 50, graded in time, lies 2.5e-8 and 1.6e-8 from the
    lattice, seller and buyer, and 8.6e-9 and 1.7e-8 from the lattice
    extrapolated from 16000, 8000 and 4000 steps)."""
    cfg = build_config(parse_config_text(BENCH_TEXT))
    res = cli.evaluate_point(cfg.model, cfg.claim, "pde", nx=cli.DEFAULT_NX,
                             nt=cli.DEFAULT_NT)[0]
    seller, buyer = lattice.solve_extrapolated([cfg.model], cfg.claim,
                                               cli.DEFAULT_STEPS)[0]
    assert abs(res.xva_seller - seller.adjustment) <= 5e-7 * cfg.claim.strike
    assert abs(res.xva_buyer - buyer.adjustment) <= 5e-7 * cfg.claim.strike


def test_pde_point_marks_a_custom_claim_from_its_agent_surface():
    """The mark of a PDE point is that of its two strategies, the PDE's
    agent surface at (0, spot), also for a custom claim."""
    cfg = build_config(parse_config_text(BENCH_TEXT))
    spread = claims.ClaimSpec(kind="custom", strike=1.0, maturity=1.0,
                              payoff_fn=lambda s: np.clip(s - 1.0, 0.0, 0.2))
    res = cli.evaluate_point(cfg.model, spread, "pde")[0]
    assert res.mark == res.strategy_seller.mark == res.strategy_buyer.mark


def test_parse_config_full_precision():
    values = parse_config_text("fund_lend = 0.012345678901234567")
    assert values["fund_lend"] == float("0.012345678901234567")


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_text("volatility = 0.2")


def test_parse_config_names_the_line_of_a_bad_number():
    with pytest.raises(ValueError, match=r"^config line 3: fund_lend must be a "
                                         r"number, got '0\.0x'$"):
        parse_config_text("# rates\nspot = 1.0\nfund_lend = 0.0x")
    with pytest.raises(ValueError, match=r"^config line 1: nx must be an "
                                         r"integer, got '1e3'$"):
        parse_config_text("nx = 1e3")


def test_parse_config_rejects_repeat():
    with pytest.raises(ValueError, match="repeated"):
        parse_config_text("spot = 1.0\nspot = 2.0")


def test_credit_all_or_none():
    with pytest.raises(ValueError, match="credit keys"):
        build_config(parse_config_text(
            "fund_lend = 0.05\nfund_borrow = 0.08\nrepo_lend = 0.05\n"
            "repo_borrow = 0.05\ncoll_earn = 0.01\ncoll_pay = 0.01\n"
            "discount = 0.01\nmu_own = 0.2"))


def test_default_free_config():
    cfg = build_config(parse_config_text(
        "fund_lend = 0.08\nfund_borrow = 0.08\nrepo_lend = 0.05\n"
        "repo_borrow = 0.05\ncoll_earn = 0.01\ncoll_pay = 0.01\n"
        "discount = 0.05\nalpha = 0.5"))
    assert cfg.model.credit is None


def test_value_command_all_engines(bench_cfg_path, capsys):
    rc = cli.main(["value", "--config", bench_cfg_path, "--engine", "all",
                   "--nx", "120", "--nt", "60", "--steps", "150"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "engine=pde" in out and "engine=lattice" in out
    assert "cross-engine deltas" in out


def test_value_out_writes_one_row_per_engine(tmp_path, bench_cfg_path, capsys):
    """``value --out`` writes the header and one row per engine, each the
    engine's :func:`cli.evaluate_point` result at 10 digits."""
    out = tmp_path / "value.csv"
    rc = cli.main(["value", "--config", bench_cfg_path, "--engine", "all",
                   "--nx", "120", "--nt", "60", "--steps", "150",
                   "--out", str(out)])
    assert rc == 0
    assert f"wrote 2 rows to {out}\n" in capsys.readouterr().out
    cfg = build_config(parse_config_text(BENCH_TEXT))
    results = cli.evaluate_point(cfg.model, cfg.claim, "all", nx=120, nt=60,
                                 steps=150)
    assert [r.engine for r in results] == ["pde", "lattice"]
    lines = out.read_text().splitlines()
    assert lines[0] == ("engine_idx,xva_seller,xva_buyer,width,xi_stock,xi_I,"
                        "xi_C,funding_dollars")
    assert len(lines) == 1 + len(results)
    for idx, (line, r) in enumerate(zip(lines[1:], results)):
        st = r.strategy_seller
        want = [idx, r.xva_seller, r.xva_buyer, r.width, st.stock_shares,
                st.bond_own_shares, st.bond_cpty_shares, st.funding_dollars]
        assert line == ",".join(cli._fmt(v) for v in want)


def test_value_warns_on_an_inverted_band(tmp_path, bench_cfg_path, capsys):
    # on the benchmark config the seller is below the buyer by about 2e-6
    argv = ["value", "--engine", "lattice", "--steps", "50"]
    assert cli.main(argv + ["--config", bench_cfg_path]) == 0
    out, err = capsys.readouterr()
    assert "warning" not in out and "width=-1.775063399e-06" in out
    assert err == ("warning: inverted band from the lattice engine: seller "
                   "0.02012334784 < buyer 0.0201251229\n")
    wide = tmp_path / "wide.cfg"
    wide.write_text(BENCH_TEXT.replace("fund_borrow = 0.08",
                                       "fund_borrow = 0.15"))
    assert cli.main(argv + ["--config", str(wide)]) == 0
    assert capsys.readouterr().err == ""


def test_value_warns_when_engines_disagree(bench_cfg_path, capsys):
    argv = ["value", "--config", bench_cfg_path, "--engine", "all"]
    assert cli.main(argv + ["--nx", "6", "--nt", "2", "--steps", "4"]) == 0
    out, err = capsys.readouterr()
    assert "|pde-lattice|: 0.001031837512 / 0.001182024215" in out
    assert "warning" not in out
    assert ("warning: the pde and lattice engines differ by 0.001182024215, "
            "more than 0.0001 of the strike\n") in err
    assert cli.main(argv + ["--nx", "120", "--nt", "60",
                            "--steps", "150"]) == 0
    assert "engines differ" not in capsys.readouterr().err


def test_value_closed_engine_requires_symmetry(bench_cfg_path, capsys):
    rc = cli.main(["value", "--config", bench_cfg_path, "--engine", "closed"])
    assert rc == 1
    assert "symmetric" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, message", [
    ("value", BENCH_TEXT.replace("fund_lend = 0.05", "fund_lend 0.05"),
     "config line 3: expected 'key = value', got 'fund_lend 0.05'"),
    ("value", BENCH_TEXT + "engine = bogus\n",
     f"engine must be one of {cli.ENGINES}, got 'bogus'"),
    ("convergence", BENCH_TEXT, "convergence study requires symmetric rates "
     "(the closed form is the reference)"),
    ("value", None, "--config is required for this command"),
], ids=["line-without-equals", "bogus-engine", "asymmetric-convergence",
        "value-without-config"])
def test_refusals_exit_1_with_their_message(tmp_path, capsys, command, text,
                                            message):
    argv = [command]
    if text is not None:
        p = tmp_path / "refused.cfg"
        p.write_text(text)
        argv += ["--config", str(p)]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_band_csv_deterministic(tmp_path, bench_cfg_path):
    out1 = tmp_path / "band1.csv"
    out2 = tmp_path / "band2.csv"
    args = ["band", "--config", bench_cfg_path, "--engine", "lattice",
            "--steps", "120"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    header = b1.decode().splitlines()[0]
    assert header == "alpha,xva_buyer,xva_seller,width,xi_stock,xi_I,xi_C,funding_dollars"


def test_band_sweep_contents(tmp_path, bench_cfg_path):
    out = tmp_path / "band.csv"
    rc = cli.main(["band", "--config", bench_cfg_path, "--engine", "lattice",
                   "--steps", "150", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    alphas = [float(r[0]) for r in rows]
    assert alphas == sorted(alphas)
    assert alphas[0] == 0.0 and alphas[-1] == 1.0 and len(alphas) == 21
    for r in rows:
        width = float(r[3])
        # columns carry 10 significant digits
        assert width == pytest.approx(float(r[2]) - float(r[1]), abs=1e-9)
        assert all(math.isfinite(float(v)) for v in r)


def test_band_custom_sweep_parameter(tmp_path, bench_cfg_path):
    p = tmp_path / "rf.cfg"
    p.write_text(BENCH_TEXT + "\nsweep_param = fund_borrow\n"
                 "sweep_start = 0.08\nsweep_stop = 0.15\nsweep_points = 3\n")
    out = tmp_path / "rf.csv"
    rc = cli.main(["band", "--config", str(p), "--engine", "lattice",
                   "--steps", "150", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("fund_borrow,")
    widths = [float(line.split(",")[3]) for line in lines[1:]]
    assert widths == sorted(widths)  # width grows with the borrow rate


def test_band_custom_sweep_requires_range(bench_cfg_path, capsys):
    import pathlib
    text = pathlib.Path(bench_cfg_path).read_text() + "\nsweep_param = fund_borrow\n"
    p = pathlib.Path(bench_cfg_path).parent / "norange.cfg"
    p.write_text(text)
    rc = cli.main(["band", "--config", str(p), "--engine", "lattice"])
    assert rc == 1
    assert "sweep_start" in capsys.readouterr().err


def test_band_reversed_range_comes_out_ascending(tmp_path, capsys):
    p = tmp_path / "reversed.cfg"
    p.write_text(BENCH_TEXT + "\nsweep_start = 1\nsweep_stop = 0\n")
    rc = cli.main(["band", "--config", str(p), "--engine", "lattice",
                   "--steps", "20"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("alpha,")
    alphas = [float(line.split(",")[0]) for line in lines[1:]]
    assert len(alphas) == 21
    assert alphas == sorted(alphas) and alphas[0] == 0.0 and alphas[-1] == 1.0


def test_figure_reversed_range_comes_out_ascending(tmp_path, capsys):
    p = tmp_path / "reversed.cfg"
    p.write_text("sweep_start = 0.15\nsweep_stop = 0.05\nsweep_points = 5\n")
    rc = cli.main(["figure", "decomposition-vs-funding", "--config", str(p)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    funds = [float(line.split(",")[0]) for line in lines[1:]]
    assert funds == [0.05, 0.075, 0.1, 0.125, 0.15]


def test_figure_and_table_refuse_a_sweep_param_off_their_axis(tmp_path,
                                                              capsys):
    sweep = "sweep_start = 0.08\nsweep_stop = 0.1\nsweep_points = 2\n"
    p = tmp_path / "other.cfg"
    p.write_text("sweep_param = fund_borrow\n" + sweep)
    assert cli.main(["figure", "band-vs-collateral", "--config", str(p),
                     "--engine", "lattice", "--steps", "20"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "sweep_param 'fund_borrow' is not swept here: the axis is alpha" \
        in err
    p.write_text(BENCH_TEXT + "sweep_param = mu_own\n")
    assert cli.main(["table", "--config", str(p), "--engine", "lattice",
                     "--steps", "20"]) == 1
    assert "the axis is alpha, fund_borrow" in capsys.readouterr().err
    # the figure's own axis stays accepted
    p.write_text("sweep_param = alpha\n" + sweep)
    assert cli.main(["figure", "band-vs-collateral", "--config", str(p),
                     "--engine", "lattice", "--steps", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines] == ["alpha", "0.08", "0.1"]


def test_symmetric_band_width_vanishes(tmp_path):
    p = tmp_path / "sym.cfg"
    # symmetric rates with symmetric credit: the two sides coincide
    p.write_text(SYMMETRIC_TEXT.replace("mu_own = 0.16", "mu_own = 0.21")
                 .replace("loss_own = 0.5", "loss_own = 0.5"))
    out = tmp_path / "sym.csv"
    rc = cli.main(["band", "--config", str(p), "--engine", "lattice",
                   "--steps", "120", "--out", str(out)])
    assert rc == 0
    for line in out.read_text().splitlines()[1:]:
        assert abs(float(line.split(",")[3])) < 1e-12


def test_table_command(tmp_path, bench_cfg_path, capsys):
    rc = cli.main(["table", "--config", bench_cfg_path, "--engine", "lattice",
                   "--steps", "200"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("alpha,fund_borrow,xva_seller,xva_buyer,"
                        "funding_seller,funding_buyer")
    assert len(lines) == 1 + 12  # 8 grid cells + 4 extra borrow-rate rows


def test_figure_defaults_match_captions():
    cfg = figure_config("xva-vs-funding-defaults")
    assert cfg.model.rates.repo_lend == 0.05
    assert cfg.model.rates.coll_earn == 0.01
    assert cfg.model.credit.mu_own == 0.16
    assert cfg.model.credit.mu_cpty == 0.21
    assert cfg.model.credit.loss_own == 0.5
    cfg = figure_config("xva-vs-funding-riskier")
    assert cfg.model.credit.mu_own == 0.51 == cfg.model.credit.mu_cpty
    cfg = figure_config("decomposition-vs-funding")
    assert cfg.model.alpha == 0.25
    assert cfg.model.credit.mu_cpty == 0.25
    cfg = figure_config("band-vs-collateral")
    assert cfg.model.rates.discount == 0.01
    assert cfg.model.credit.mu_own == 0.21


def test_figure_unknown_id():
    with pytest.raises(ValueError):
        figure_config("fig42")


def test_figure_decomposition_funding_dominates_at_high_rate(tmp_path):
    out = tmp_path / "dec.csv"
    rc = cli.main(["figure", "decomposition-vs-funding", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    last = rows[-1]  # highest funding rate
    assert abs(float(last[1])) > abs(float(last[2]))
    # components add up to the total, in percent of the mark
    for r in rows:
        assert float(r[1]) + float(r[2]) == pytest.approx(float(r[3]), abs=1e-8)


def test_figure_single_point_sweep(tmp_path):
    p = tmp_path / "one.cfg"
    p.write_text("sweep_points = 1\nsweep_start = 0.08\nsweep_stop = 0.08\n")
    out = tmp_path / "one.csv"
    rc = cli.main(["figure", "xva-vs-funding-defaults", "--config", str(p),
                   "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 2


def test_figure_repo_buyer_flat(tmp_path):
    p = tmp_path / "repo.cfg"
    p.write_text("sweep_points = 4\nnx = 120\nnt = 60\n")
    out = tmp_path / "repo.csv"
    rc = cli.main(["figure", "xva-vs-repo", "--config", str(p),
                   "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    buyer_at_05 = [float(r[5]) for r in rows]  # repo_lend = 0.05 series
    assert max(buyer_at_05) - min(buyer_at_05) < 1e-9


def test_figure_leaves_nan_where_a_series_has_no_model(tmp_path):
    """``xva-vs-repo`` values no model whose repo borrow rate is below the
    series' lend rate: swept from 0.03, its ``_rl0.05`` cells are NaN below
    0.05 and every other cell is finite."""
    p = tmp_path / "repo.cfg"
    p.write_text("sweep_start = 0.03\nsweep_stop = 0.06\nsweep_points = 4\n"
                 "nx = 40\nnt = 10\n")
    out = tmp_path / "repo.csv"
    assert cli.main(["figure", "xva-vs-repo", "--config", str(p),
                     "--out", str(out)]) == 0
    header, *lines = out.read_text().splitlines()
    header = header.split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines]
    assert [row[0] for row in rows] == [0.03, 0.04, 0.05, 0.06]
    for row in rows:
        for name, cell in zip(header[1:], row[1:]):
            missing = name.endswith("_rl0.05") and row[0] < 0.05
            assert math.isnan(cell) == missing, (row[0], name)


def test_figure_nodefault_stock_hedge_monotonicity(tmp_path):
    out = tmp_path / "nodef.csv"
    rc = cli.main(["figure", "xva-vs-funding-nodefault", "--out", str(out)])
    assert rc == 0
    rows = [list(map(float, line.split(",")))
            for line in out.read_text().splitlines()[1:]]
    # uncollateralized series: adjustment negative, stock hedge decreasing
    # in the funding rate; hedge increasing in the collateral level
    xva_a0 = [r[1] for r in rows]
    shares_a0 = [r[2] for r in rows]
    shares_a1 = [r[10] for r in rows]
    assert all(v < 0 for v in xva_a0)
    assert all(b < a for a, b in zip(shares_a0, shares_a0[1:]))
    for r in rows:
        assert r[10] > r[2]


def test_figure_band_vs_collateral_smoke(tmp_path):
    p = tmp_path / "small.cfg"
    p.write_text("sweep_points = 3\nsteps = 120\nengine = lattice\n")
    out = tmp_path / "band_fig.csv"
    rc = cli.main(["figure", "band-vs-collateral", "--config", str(p),
                   "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[0] == "alpha"
    # widths at the higher borrow rate dominate
    for line in lines[1:]:
        vals = dict(zip(header, map(float, line.split(","))))
        assert vals["width_rb0.15"] > vals["width_rb0.08"]


def test_validate_exit_codes(tmp_path, bench_cfg_path, capsys):
    assert cli.main(["validate", "--config", bench_cfg_path]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text(BENCH_TEXT.replace("fund_lend = 0.05", "fund_lend = 0.09")
                   + "\nallow_violations = true\n")
    assert cli.main(["validate", "--config", str(bad)]) == 0  # flag in config
    bad2 = tmp_path / "bad2.cfg"
    bad2.write_text(BENCH_TEXT.replace("coll_earn = 0.01", "coll_earn = 0.10"))
    rc = cli.main(["validate", "--config", str(bad2), "--allow-violations"])
    assert rc == 0
    capsys.readouterr()


def test_validate_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "viol.cfg"
    bad.write_text(BENCH_TEXT.replace("coll_earn = 0.01", "coll_earn = 0.10")
                   + "\nallow_violations = true\n")
    # allowed violations are reported but do not fail the run
    rc = cli.main(["validate", "--config", str(bad)])
    out = capsys.readouterr().out
    assert rc == 0
    assert ("[FAIL] (valuation) max(collateral rates) <= fund_borrow: "
            "0.1 vs 0.08") in out.splitlines()
    # a config that builds but fails the full validator fails the run
    text = BENCH_TEXT.replace("repo_lend = 0.05", "repo_lend = 0.03")
    ok_but_fails_market = tmp_path / "m.cfg"
    ok_but_fails_market.write_text(text.replace("fund_lend = 0.05",
                                                "fund_lend = 0.02"))
    rc = cli.main(["validate", "--config", str(ok_but_fails_market)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def test_vanilla_value_run_does_not_import_quadrature(tmp_path):
    """scipy.integrate serves custom claims alone: a vanilla valuation
    leaves it unimported, and a custom claim imports it when it prices."""
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(BENCH_TEXT)
    script = textwrap.dedent(f"""
        import sys
        import numpy as np
        from xvaband import ClaimSpec, agent_value, cli
        assert cli.main(["value", "--config", {str(cfg)!r}, "--nx", "60",
                         "--nt", "20"]) == 0
        assert "scipy.integrate" not in sys.modules
        model = cli.build_config(
            cli.parse_config_text(open({str(cfg)!r}).read())).model
        custom = ClaimSpec(kind="custom", strike=1.0, maturity=1.0,
                           payoff_fn=lambda s: np.maximum(s - 1.0, 0.0))
        vanilla = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
        got = agent_value(model, custom, 0.0, 1.0).value
        assert abs(got - agent_value(model, vanilla, 0.0, 1.0).value) < 1e-8
        assert "scipy.integrate" in sys.modules
        """)
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr


def test_validate_reports_a_model_that_fails_a_necessary_condition(
        tmp_path, capsys):
    """A config the model itself refuses still gets the full report."""
    bad = tmp_path / "bad.cfg"
    bad.write_text(BENCH_TEXT.replace("fund_lend = 0.05", "fund_lend = 0.09"))
    rc = cli.main(["validate", "--config", str(bad)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL] (necessary) fund_lend <= fund_borrow" in out
    assert "(market)" in out and "(valuation)" in out


def test_missing_rate_keys():
    with pytest.raises(ValueError, match="missing rate keys"):
        build_config(parse_config_text("spot = 1.0"))


def test_value_symmetric_runs_three_engines(tmp_path, capsys):
    p = tmp_path / "sym.cfg"
    p.write_text(SYMMETRIC_TEXT)
    rc = cli.main(["value", "--config", str(p), "--engine", "all",
                   "--nx", "120", "--nt", "60", "--steps", "200"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("closed", "pde", "lattice"):
        assert f"engine={name}" in out


@pytest.mark.parametrize("text, engines",
                         [(SYMMETRIC_TEXT, ("closed", "pde", "lattice")),
                          (BENCH_TEXT, ("pde", "lattice"))],
                         ids=["symmetric", "benchmark"])
def test_all_engines_are_the_single_engine_valuations_in_turn(text, engines):
    # the closed forms join only where the rates are symmetric
    cfg = build_config(parse_config_text(text))
    sizes = dict(nx=40, nt=10, steps=20)
    got = cli.evaluate_point(cfg.model, cfg.claim, "all", **sizes)
    want = [result for engine in engines for result in
            cli.evaluate_point(cfg.model, cfg.claim, engine, **sizes)]
    assert [r.engine for r in got] == list(engines)
    assert repr(got) == repr(want)  # every field, bit for bit


def test_a_result_keeps_the_solution_it_was_read_from():
    """The adjustments of a result are its solution's at (0, spot), bit for
    bit: the PDE's surfaces, the lattice's (seller, buyer) pair; the closed
    forms keep none.  Both strategies hold the same mark."""
    cfg = build_config(parse_config_text(SYMMETRIC_TEXT))
    spot = cfg.model.equity.spot
    closed, pde_res, lat = cli.evaluate_point(cfg.model, cfg.claim, "all",
                                              nx=40, nt=10, steps=20)
    assert closed.solution is None
    assert [pde.xva_at(pde_res.solution, 0.0, spot, side).hex()
            for side in drivers.SIDES] == [pde_res.xva_seller.hex(),
                                           pde_res.xva_buyer.hex()]
    assert [sol.adjustment for sol in lat.solution] == [lat.xva_seller,
                                                        lat.xva_buyer]
    assert [sol.side for sol in lat.solution] == list(drivers.SIDES)
    for res in (closed, pde_res, lat):
        assert res.mark.hex() == res.strategy_buyer.mark.hex()


def test_numerical_failure_exit_code(tmp_path, capsys):
    p = tmp_path / "stiff.cfg"
    p.write_text(BENCH_TEXT.replace("mu_own = 0.21", "mu_own = 0.9")
                 .replace("mu_cpty = 0.16", "mu_cpty = 0.9"))
    rc = cli.main(["value", "--config", str(p), "--engine", "lattice",
                   "--steps", "4"])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, least",
                         [("nx", 2, 3), ("nt", 0, 1), ("sweep_points", 0, 1)])
def test_bad_sizes_name_the_key(key, value, least):
    with pytest.raises(ValueError,
                       match=rf"^{key} must be >= {least}, got {value}$"):
        build_config(parse_config_text(BENCH_TEXT + f"{key} = {value}\n"))


def refusal(tmp_path, capsys, text):
    """The exit code and stderr of ``band`` on a config of ``text``."""
    p = tmp_path / "refused.cfg"
    p.write_text(text)
    rc = cli.main(["band", "--config", str(p), "--engine", "lattice",
                   "--steps", "20"])
    captured = capsys.readouterr()
    assert captured.out == ""
    return rc, captured.err


def test_a_custom_kind_is_refused_by_its_key(tmp_path, capsys):
    # no config key can give a payoff function
    text = BENCH_TEXT.replace("kind = call", "kind = custom")
    assert refusal(tmp_path, capsys, text) == (
        1, "error: kind must be 'call' or 'put', got 'custom': custom payoffs "
        "are valued through the library, ClaimSpec(payoff_fn=...)\n")


@pytest.mark.parametrize("key, value", [("sweep_start", "nan"),
                                        ("sweep_stop", "inf")])
def test_a_non_finite_sweep_bound_is_refused_by_its_key(tmp_path, capsys,
                                                        key, value):
    assert refusal(tmp_path, capsys, BENCH_TEXT + f"{key} = {value}\n") == (
        1, f"error: {key} must be finite, got {value}\n")


@pytest.mark.parametrize("param", ["spot", "sigma", "fund_borow"])
def test_a_sweep_param_no_sweep_can_vary_is_refused(tmp_path, capsys, param):
    text = BENCH_TEXT + (f"sweep_param = {param}\nsweep_start = 0.1\n"
                         "sweep_stop = 0.2\n")
    assert refusal(tmp_path, capsys, text) == (
        1, "error: sweep_param must name a rate, a credit parameter or "
        f"alpha, got {param!r}\n")


def test_a_credit_sweep_of_a_default_free_model_is_refused_by_its_key(
        tmp_path, capsys):
    text = "".join(line + "\n" for line in BENCH_TEXT.splitlines()
                   if not line.startswith(("mu_", "loss_")))
    text += "sweep_param = mu_own\nsweep_start = 0.1\nsweep_stop = 0.2\n"
    assert refusal(tmp_path, capsys, text) == (
        1, "error: sweep_param 'mu_own' is a credit parameter, and the model "
        "has no credit block\n")


@pytest.mark.parametrize("key, value", [("sweep_start", "-0.5"),
                                        ("sweep_stop", "1.5")])
def test_a_sweep_bound_outside_its_range_is_refused_by_its_key(
        tmp_path, capsys, key, value):
    text = BENCH_TEXT + f"sweep_param = alpha\n{key} = {value}\n"
    assert refusal(tmp_path, capsys, text) == (
        1, f"error: {key} = {value}: alpha must lie in [0, 1], got {value}\n")


def test_steps_below_four_are_refused(bench_cfg_path, capsys):
    # the lattice extrapolates from steps, steps // 2 and steps // 4
    for steps in ("3", "1", "0"):
        rc = cli.main(["value", "--config", bench_cfg_path, "--engine",
                       "lattice", "--steps", steps])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: steps must be >= 4, got {steps}: the lattice "
            "extrapolates from steps, steps // 2 and steps // 4\n")


@pytest.mark.parametrize("engine", ["pde", "lattice", "all"])
def test_engines_refuse_a_model_failing_a_necessary_condition(
        tmp_path, capsys, engine):
    bad = tmp_path / "bad.cfg"
    bad.write_text(BENCH_TEXT.replace("fund_lend = 0.05", "fund_lend = 0.09")
                   + "\nallow_violations = true\n")
    rc = cli.main(["value", "--config", str(bad), "--engine", engine,
                   "--nx", "40", "--nt", "10", "--steps", "20"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == ("error: model fails necessary rate conditions: "
                            "fund_lend <= fund_borrow\n")


def test_convergence_command(tmp_path, capsys):
    p = tmp_path / "sym.cfg"
    p.write_text(SYMMETRIC_TEXT)
    rc = cli.main(["convergence", "--config", str(p)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "abs error" in out


SMALL_STEPS = 50
TABLE_CELLS = [(0.0, 0.08), (0.0, 0.15), (0.25, 0.08), (0.25, 0.15),
               (0.75, 0.08), (0.75, 0.15), (1.0, 0.08), (1.0, 0.15),
               (0.9, 0.08), (0.9, 0.10), (0.9, 0.15), (0.9, 0.20)]


def expected_rows(command, cfg, engine):
    """The rows of a sweep from one evaluate_point call per scenario."""
    m, claim = cfg.model, cfg.claim

    def pointwise(model, claim):
        return cli.evaluate_point(model, claim, engine, nx=40, nt=40,
                                  steps=SMALL_STEPS)[0]

    if command == "band":
        sweep = cli._sweep_values(0.0, 1.0, 21)
    elif command != "table":
        sweep = cli._sweep_values(cfg.sweep_start, cfg.sweep_stop,
                                  cfg.sweep_points)
    rows = []
    if command == "band":
        for a in sweep:
            r = pointwise(cli._model_with(m, alpha=a), claim)
            st = r.strategy_seller
            rows.append([a, r.xva_buyer, r.xva_seller, r.width, st.stock_shares,
                         st.bond_own_shares, st.bond_cpty_shares,
                         st.funding_dollars])
    elif command == "table":
        for a, rfm in TABLE_CELLS:
            r = pointwise(cli._model_with(m, alpha=a, fund_borrow=rfm), claim)
            rows.append([a, rfm, r.xva_seller, r.xva_buyer,
                         r.strategy_seller.funding_dollars,
                         r.strategy_buyer.funding_dollars])
    elif command == "band-vs-collateral":
        for a in sweep:
            row = [a]
            for rfm in (0.08, 0.15):
                r = pointwise(cli._model_with(m, alpha=a, fund_borrow=rfm), claim)
                st = r.strategy_seller
                row += [r.xva_buyer, r.xva_seller, r.width, st.stock_shares,
                        st.bond_own_shares, st.bond_cpty_shares]
            rows.append(row)
    elif command == "xva-vs-repo":
        for rb in sweep:
            row = [rb]
            for rl in (0.03, 0.05):
                if rb < rl:
                    row += [math.nan] * 4
                    continue
                r = pointwise(cli._model_with(m, repo_lend=rl, repo_borrow=rb),
                              claim)
                row += [r.xva_buyer, r.xva_seller, r.strategy_seller.stock_shares,
                        r.strategy_buyer.stock_shares]
            rows.append(row)
    else:
        for mu in sweep:
            row = [mu]
            for a in cli._CPTY_ALPHAS:
                r = pointwise(cli._model_with(m, mu_cpty=mu, alpha=a), claim)
                st = r.strategy_seller
                row += [r.xva_seller, st.stock_shares, st.bond_own_shares,
                        st.bond_cpty_shares]
            rows.append(row)
    return rows


SWEEPS = ("band", "table", "band-vs-collateral", "xva-vs-repo",
          "xva-vs-cpty-return")


@pytest.mark.parametrize("command, engine",
                         [pytest.param(c, "pde", id=c) for c in SWEEPS]
                         + [pytest.param(c, "lattice", id=f"{c}-lattice")
                            for c in SWEEPS])
def test_batched_sweeps_match_pointwise_evaluation(tmp_path, bench_cfg_path,
                                                   command, engine):
    out = tmp_path / "sweep.csv"
    grid = ["--engine", engine, "--nx", "40", "--nt", "40",
            "--steps", str(SMALL_STEPS), "--out", str(out)]
    if command in ("band", "table"):
        argv = [command, "--config", bench_cfg_path] + grid
        cfg = build_config(parse_config_text(BENCH_TEXT))
    else:
        argv = ["figure", command] + grid
        cfg = figure_config(command)
    assert cli.main(argv) == 0
    got = [line.split(",") for line in out.read_text().splitlines()[1:]]
    want = expected_rows(command, cfg, engine)
    assert [len(r) for r in got] == [len(r) for r in want]
    for row_got, row_want in zip(got, want):
        for cell, value in zip(row_got, row_want):
            expected = float(cli._fmt(value))
            if math.isnan(expected):
                assert math.isnan(float(cell))
            else:
                assert abs(float(cell) - expected) <= 1e-12, (cell, value)


def test_allow_violations_accepts_only_booleans():
    for text, value in (("1", True), ("TRUE", True), ("Yes", True),
                        ("0", False), ("false", False), ("NO", False)):
        assert parse_config_text(f"allow_violations = {text}") == \
            {"allow_violations": value}
    with pytest.raises(ValueError, match="config line 2: allow_violations"):
        parse_config_text("spot = 1.0\nallow_violations = ture")


FIGURE_HEADERS = {
    "xva-vs-funding-nodefault":
        "fund,xva_a0,shares_a0,xva_a0.25,shares_a0.25,xva_a0.5,"
        "shares_a0.5,xva_a0.75,shares_a0.75,xva_a1,shares_a1",
    "decomposition-vs-funding":
        "fund,funding_pct,dva_pct,total_pct",
    "xva-vs-funding-defaults":
        "fund,xva_a0,stock_a0,bond_own_a0,bond_cpty_a0,xva_a0.25,"
        "stock_a0.25,bond_own_a0.25,bond_cpty_a0.25,xva_a0.5,stock_a0.5,"
        "bond_own_a0.5,bond_cpty_a0.5,xva_a0.75,stock_a0.75,"
        "bond_own_a0.75,bond_cpty_a0.75,xva_a1,stock_a1,bond_own_a1,"
        "bond_cpty_a1",
    "xva-vs-funding-riskier":
        "fund,xva_a0,stock_a0,bond_own_a0,bond_cpty_a0,xva_a0.25,"
        "stock_a0.25,bond_own_a0.25,bond_cpty_a0.25,xva_a0.5,stock_a0.5,"
        "bond_own_a0.5,bond_cpty_a0.5,xva_a0.75,stock_a0.75,"
        "bond_own_a0.75,bond_cpty_a0.75,xva_a1,stock_a1,bond_own_a1,"
        "bond_cpty_a1",
    "band-vs-collateral":
        "alpha,xva_buyer_rb0.08,xva_seller_rb0.08,width_rb0.08,"
        "stock_rb0.08,bond_own_rb0.08,bond_cpty_rb0.08,xva_buyer_rb0.15,"
        "xva_seller_rb0.15,width_rb0.15,stock_rb0.15,bond_own_rb0.15,"
        "bond_cpty_rb0.15",
    "xva-vs-repo":
        "repo_borrow,xva_buyer_rl0.03,xva_seller_rl0.03,"
        "stock_seller_rl0.03,stock_buyer_rl0.03,xva_buyer_rl0.05,"
        "xva_seller_rl0.05,stock_seller_rl0.05,stock_buyer_rl0.05",
    "xva-vs-cpty-return":
        "mu_cpty,xva_seller_a0.5,stock_a0.5,bond_own_a0.5,bond_cpty_a0.5,"
        "xva_seller_a0.75,stock_a0.75,bond_own_a0.75,bond_cpty_a0.75,"
        "xva_seller_a0.9,stock_a0.9,bond_own_a0.9,bond_cpty_a0.9,"
        "xva_seller_a1,stock_a1,bond_own_a1,bond_cpty_a1",
}


def test_figure_headers_pinned(tmp_path):
    assert set(FIGURE_HEADERS) == set(cli.FIGURES)
    p = tmp_path / "tiny.cfg"
    p.write_text("sweep_points = 2\nnx = 20\nnt = 10\n")
    for figure_id, header in FIGURE_HEADERS.items():
        out = tmp_path / f"{figure_id}.csv"
        assert cli.main(["figure", figure_id, "--config", str(p),
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == header, figure_id
        assert [len(line.split(",")) for line in lines[1:]] == \
            [header.count(",") + 1] * 2


def test_figure_nodefault_honours_user_credit_block(tmp_path):
    p = tmp_path / "credit.cfg"
    p.write_text("mu_own = 0.16\nmu_cpty = 0.21\nloss_own = 0.5\nloss_cpty = 0.5\n"
                 "sweep_points = 1\n")
    out = tmp_path / "nodef.csv"
    assert cli.main(["figure", "xva-vs-funding-nodefault", "--config", str(p),
                     "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    cfg = figure_config("xva-vs-funding-nodefault",
                        parse_config_text(p.read_text()))
    m = cli._model_with(cfg.model, fund_lend=0.055, fund_borrow=0.055, alpha=0.0)
    mark = claims.agent_value(m, cfg.claim, 0.0, 1.0).value
    with_credit = closed_form.piterbarg_defaults_xva(m, cfg.claim, 0.0, mark).total
    assert row[1] == cli._fmt(with_credit)
    assert with_credit != closed_form.piterbarg_xva(m, cfg.claim, 0.0, mark)


def test_model_variant_refuses_an_unknown_parameter():
    model = build_config(parse_config_text(BENCH_TEXT)).model
    with pytest.raises(ValueError, match=r"unknown model parameters: \['spot', 'strike'\]"):
        cli._model_with(model, fund_lend=0.06, strike=1.1, spot=2.0)
