import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dqdsim
from dqdsim import cli, greens
from dqdsim.model import ModelConfig, ReservoirParams, SpectralKind, SystemParams

import state_reference as ref

BASE = """\
[system]
eps1 = 2.0
eps2 = 2.0
g = 0.5

# reservoirs in Gamma units
[left]
gamma = 0.5
d = 2.0
mu = 2.0
k_t = 0.5

[right]
gamma = 0.5
d = 2.0
mu = 2.0  # inline comments are fine
k_t = 0.5

[spectral]
kind = lorentzian
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return str(p)


def read_table(path):
    """(comment_lines, columns, float rows) from an emitted table file."""
    comments, columns, rows = [], None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif columns is None:
                columns = line.split("\t")
            elif line:
                rows.append([float(x) for x in line.split("\t")])
    return comments, columns, rows


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("[systems]\neps1 = 2.0\n", ":1: unknown section"),
            ("[system]\nepsx = 2.0\n", ":2: unknown key"),
            ("[system]\neps1 = 1.0\neps1 = 2.0\n", ":3: duplicate key"),
            ("[system]\neps1 2.0\n", "expected 'key = value'"),
            ("eps1 = 2.0\n", ":1: key outside"),
            ("[system]\neps1 =\n", "empty value"),
            ("[system]\neps1 = abc\neps2 = 2.0\n", "not a number"),
        ],
    )
    def test_line_precise_messages(self, tmp_path, capsys, text, fragment):
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["evolve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert fragment in err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[system]\neps1 = 2.0\n")
        assert cli.main(["evolve", "--config", cfg]) == 2
        assert "missing required key 'eps2'" in capsys.readouterr().err

    def test_unreadable_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cfg")
        assert cli.main(["evolve", "--config", missing]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_oracle_enabled_is_not_a_key(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            BASE + "[grid]\nt_max = 1.0\nn_steps = 10\n[oracle]\nenabled = true\n",
        )
        assert cli.main(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "unknown key 'enabled' in [oracle] (known: modes, tol)" in err

    @pytest.mark.parametrize("tol", ["nan", "0", "-1e-3"])
    def test_oracle_tol_must_be_positive(self, tmp_path, capsys, tol):
        # a NaN tolerance once passed every oracle check: max(du, dv) > nan
        # is false
        text = BASE + f"[grid]\nt_max = 2.0\nn_steps = 20\n[oracle]\ntol = {tol}\n"
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["verify", "--config", cfg]) == 2
        line = text.count("\n")
        assert f"run.cfg:{line}: [oracle] tol: must be > 0" in capsys.readouterr().err

    def test_oracle_tol_may_be_inf(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + "[oracle]\ntol = inf\n")
        assert cli.load_experiment(cfg).oracle_tol == float("inf")

    @pytest.mark.parametrize("command", ["evolve", "sweep", "classify", "verify"])
    def test_cutoff_kind_needs_finite_omega_cut(self, tmp_path, capsys, command):
        # one lead keeps the default omega_cut = inf
        text = BASE.replace("kind = lorentzian", "kind = cutoff_lorentzian").replace(
            "k_t = 0.5\n", "k_t = 0.5\nomega_cut = 1.5\n", 1
        )
        cfg = write_cfg(
            tmp_path,
            text + "[grid]\nt_max = 1.0\nn_steps = 10\n[sweep]\naxis1 = g:0:1:2\n",
        )
        assert cli.main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config error: {cfg}: the cutoff_lorentzian kind needs a finite cutoff" in err

    @pytest.mark.parametrize(
        "old, new, fragment",
        [("eps1 = 2.0", "eps1 = inf", ": eps1 must be finite"),
         ("[spectral]", "[grid]\nt_max = 1e400\nn_steps = 10\n[spectral]",
          ": [grid]: t_max must be positive and finite")],
        ids=["system", "grid"],
    )
    def test_system_and_grid_refusals_name_the_file(self, tmp_path, capsys, old, new, fragment):
        cfg = write_cfg(tmp_path, BASE.replace(old, new, 1))
        assert cli.main(["evolve", "--config", cfg]) == 2
        assert f"config error: {cfg}{fragment}" in capsys.readouterr().err

    def test_lead_parse_error_names_the_file_once(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE.replace("gamma = 0.5", "gamma = abc", 1))
        assert cli.main(["evolve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config error: {cfg}:8: [left] gamma: not a number: 'abc'" in err
        assert err.count(cfg) == 1

    def test_bad_solver_method(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE + "[solver]\nmethod = magic\n")
        assert cli.main(["evolve", "--config", cfg]) == 2
        assert "method must be one of" in capsys.readouterr().err

    def test_bad_initial_state(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE + "[initial]\nstate = ghost\n")
        assert cli.main(["evolve", "--config", cfg]) == 2
        assert "state must be one of" in capsys.readouterr().err

    def test_invalid_explicit_initial(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            BASE + "[initial]\nstate = explicit\nrho1_00 = 2.0\n",
        )
        assert cli.main(["evolve", "--config", cfg]) == 2
        assert "explicit blocks invalid" in capsys.readouterr().err

    def test_axis2_without_axis1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE + "[sweep]\naxis2 = g:0:1:3\n")
        assert cli.main(["sweep", "--config", cfg]) == 2
        assert "axis2 given without axis1" in capsys.readouterr().err

    def test_malformed_axis_spec(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE + "[sweep]\naxis1 = g:0:1\n")
        assert cli.main(["sweep", "--config", cfg]) == 2
        assert "expected 'names:min:max:steps'" in capsys.readouterr().err

    def test_unknown_sweep_parameter(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE + "[sweep]\naxis1 = zeta:0:1:4\n")
        assert cli.main(["sweep", "--config", cfg]) == 2
        assert "unknown parameter 'zeta'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "axis,fragment",
        [
            ("eps1,eps2:0.0:10.0:1", "one step needs min == max, got 0.0, 10.0"),
            ("eps1:nan:1.0:3", "min/max must be finite, got nan, 1.0"),
            ("eps1:0.0:1e400:3", "min/max must be finite, got 0.0, inf"),
        ],
    )
    def test_axis_bounds_rejected_with_line(self, tmp_path, capsys, axis, fragment):
        text = BASE + f"[solver]\nmethod = pole\n[sweep]\naxis1 = {axis}\n"
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["sweep", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"run.cfg:24: [sweep] axis1: {fragment}" in err
        assert "Warning" not in err

    @pytest.mark.parametrize(
        "axes,where,name",
        [
            # the second axis would overwrite the first at every point
            ("axis1 = eps1:0.0:4.0:3\naxis2 = eps1,mu1:1.0:1.0:1", "25: [sweep] axis2", "eps1"),
            ("axis1 = mu1,eps2,mu1:0.0:4.0:3", "24: [sweep] axis1", "mu1"),
        ],
        ids=["across_axes", "within_an_axis"],
    )
    def test_a_name_swept_twice_is_refused(self, tmp_path, capsys, axes, where, name):
        cfg = write_cfg(tmp_path, BASE + f"[solver]\nmethod = pole\n[sweep]\n{axes}\n")
        assert cli.main(["sweep", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert f"run.cfg:{where}: parameter {name!r} is swept more than once" in err

    @pytest.mark.parametrize("via", ["flag", "key"])
    def test_unwritable_output_path_is_a_config_error(self, tmp_path, capsys, monkeypatch, via):
        # the path is opened before any work, so the solver is never reached
        monkeypatch.setattr(cli, "solve", _never_called)
        out = tmp_path / "missing" / "out.tsv"
        text = BASE + "[grid]\nt_max = 1.0\nn_steps = 10\n"
        argv = ["evolve", "--out", str(out)] if via == "flag" else ["evolve"]
        if via == "key":
            text += f"[output]\npath = {out}\n"
        assert cli.main(argv + ["--config", write_cfg(tmp_path, text)]) == 2
        assert f"config error: cannot write output file {out}" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_evolve_needs_grid(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE)
        assert cli.main(["evolve", "--config", cfg]) == 2
        assert "needs a [grid] section" in capsys.readouterr().err

    def test_exact_wide_band_sweep_names_wbl_before_the_grid(self, tmp_path, capsys):
        # no [grid] would let exact run on the wide band, so it is not asked for
        text = BASE.replace("kind = lorentzian", "kind = wideband")
        cfg = write_cfg(tmp_path, text + "[solver]\nmethod = exact\n[sweep]\naxis1 = g:0:1:2\n")
        assert cli.main(["sweep", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "method wbl" in err and "[grid]" not in err

    def test_sweep_needs_axes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE + "[grid]\nt_max = 1.0\nn_steps = 10\n")
        assert cli.main(["sweep", "--config", cfg]) == 2
        assert "sweep needs [sweep] axis1" in capsys.readouterr().err

    def test_pole_method_rejects_cutoff_kind(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            CLASSIFY_TWO_ROOT + "[grid]\nt_max = 1.0\nn_steps = 10\n"
            "[solver]\nmethod = pole\n",
        )
        assert cli.main(["evolve", "--config", cfg]) == 2
        assert "config error:" in capsys.readouterr().err

    def test_classify_requires_cutoff_kind(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE)
        assert cli.main(["classify", "--config", cfg]) == 2


class TestEvolve:
    def test_exact_run_table(self, tmp_path):
        cfg = write_cfg(
            tmp_path, BASE + "[grid]\nt_max = 2.0\nn_steps = 200\n"
        )
        out = str(tmp_path / "tab.tsv")
        assert cli.main(["evolve", "--config", cfg, "--out", out]) == 0
        comments, columns, rows = read_table(out)
        assert "# system.eps1 = 2.0" in comments
        assert columns == ["t", "eof", "tr_v", "n1", "n2", "u_norm", "purity"]
        assert len(rows) == 201
        # default initial state: dot 1 occupied, product state
        t0 = rows[0]
        assert t0 == [0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0]
        arr = np.array(rows)
        assert np.all(arr[:, 1] >= 0.0) and np.all(arr[:, 1] <= 1.0)
        assert np.all(arr[:, 5] <= 1.0 + 1e-9)

    def test_bell_state_on_wideband(self, tmp_path):
        text = BASE.replace("kind = lorentzian", "kind = wideband")
        cfg = write_cfg(
            tmp_path,
            text
            + "[grid]\nt_max = 4.0\nn_steps = 80\n"
            + "[initial]\nstate = bell_plus\n"
            + "[solver]\nmethod = wbl\n",
        )
        out = str(tmp_path / "bell.tsv")
        assert cli.main(["evolve", "--config", cfg, "--out", out]) == 0
        _, _, rows = read_table(out)
        assert rows[0][1] == pytest.approx(1.0, abs=1e-12)
        assert rows[-1][1] < rows[0][1]

    def test_stdout_when_no_out(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            BASE.replace("kind = lorentzian", "kind = wideband")
            + "[grid]\nt_max = 1.0\nn_steps = 5\n[solver]\nmethod = wbl\n",
        )
        assert cli.main(["evolve", "--config", cfg]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert "t\teof\ttr_v\tn1\tn2\tu_norm\tpurity" in lines
        data = [l for l in lines if l and not l.startswith(("#", "t\t"))]
        assert len(data) == 6

    def test_output_section_path(self, tmp_path):
        target = tmp_path / "via_section.tsv"
        cfg = write_cfg(
            tmp_path,
            BASE.replace("kind = lorentzian", "kind = wideband")
            + "[grid]\nt_max = 1.0\nn_steps = 5\n[solver]\nmethod = wbl\n"
            + f"[output]\npath = {target}\n",
        )
        assert cli.main(["evolve", "--config", cfg]) == 0
        assert target.exists()

    def test_deterministic_output(self, tmp_path):
        cfg = write_cfg(
            tmp_path, BASE + "[grid]\nt_max = 1.0\nn_steps = 120\n"
        )
        a, b = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        assert cli.main(["evolve", "--config", cfg, "--out", a]) == 0
        assert cli.main(["evolve", "--config", cfg, "--out", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_invariant_violation_exit_code(self, tmp_path, capsys):
        # a grid far too coarse for this coupling makes the quadrature
        # overshoot the occupation bound, which must surface as code 4
        text = """\
        [system]
        eps1 = 2.0
        eps2 = 2.0
        g = 0.5
        [left]
        gamma = 8.0
        d = 8.0
        mu = 10.0
        [right]
        gamma = 8.0
        d = 8.0
        mu = 10.0
        [grid]
        t_max = 10.0
        n_steps = 16
        """
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["evolve", "--config", cfg]) == 4
        err = capsys.readouterr().err
        assert "invariant violation:" in err
        assert "leaves [0, 1]" in err


    @pytest.mark.parametrize(
        "v_bad, code, message",
        [
            (np.eye(2), 3, "solver error: evolve step 7 (t = 0.7): I - V is singular"),
            (
                np.diag([1.5, 0.0]),
                4,
                "invariant violation: evolve step 7 (t = 0.7): rho1 block has"
                " negative eigenvalue",
            ),
            (
                np.array([[np.nan, 0.0], [0.0, 0.2]]),
                4,
                "invariant violation: evolve step 7 (t = 0.7): rho1 block has"
                " a non-finite entry",
            ),
        ],
    )
    def test_failing_step_is_named(self, tmp_path, capsys, monkeypatch, v_bad, code, message):
        def bad_at_step_7(model, grid):
            # unchecked, unlike a GreensSolution: the step loop must name it
            n = grid.n_steps + 1
            u = np.tile(np.eye(2, dtype=complex), (n, 1, 1))
            v = np.zeros((n, 2, 2), dtype=complex)
            v[7] = v_bad
            return SimpleNamespace(u_seq=u, v_seq=v, u_norm=np.ones(n))

        method = cli._METHODS["exact"]
        monkeypatch.setitem(cli._METHODS, "exact", method._replace(evolve=bad_at_step_7))
        cfg = write_cfg(tmp_path, BASE + "[grid]\nt_max = 1.0\nn_steps = 10\n")
        assert cli.main(["evolve", "--config", cfg]) == code
        assert message in capsys.readouterr().err


_EXPLICIT_STATE = """\
[initial]
state = explicit
rho1_00 = 0.3
rho1_11 = 0.1
rho1_01_re = 0.05
rho1_01_im = 0.08
rho2_00 = 0.35
rho2_11 = 0.25
rho2_01_re = 0.1
rho2_01_im = -0.12
"""


def _numpy_eof(rho1, rho2):
    """-1/2 sum_s tr(rho_s) K_s with lambda_s = (p - r) / (e_max - e_min)
    from eigvalsh, zero where a block is degenerate, the clamp left out."""
    total = 0.0
    for block in (rho1, rho2):
        diff = (block[0, 0] - block[1, 1]).real
        if abs(diff) < 1e-12 and abs(block[0, 1]) < 1e-12:
            continue
        e = np.linalg.eigvalsh(0.5 * (block + block.conj().T))
        lam = diff / (e[1] - e[0])
        k = sum(p * np.log2(p / 2.0) for p in (1.0 - lam, 1.0 + lam) if p > 0.0)
        total -= 0.5 * np.trace(block).real * k
    return max(total, 0.0)


class TestRowAssembly:
    """run_evolution's rows against a literal loop: the matrix-product
    propagation of tests/state_reference.py, a numpy EoF and svd norms."""

    @pytest.mark.parametrize("method", ["exact", "wbl", "born_markov", "pole"])
    @pytest.mark.parametrize("state", cli.INITIAL_STATES)
    def test_rows_match_literal_loop(self, tmp_path, method, state):
        kind = "wideband" if method in ("wbl", "born_markov") else "lorentzian"
        initial = _EXPLICIT_STATE if state == "explicit" else f"[initial]\nstate = {state}\n"
        text = (
            BASE.replace("kind = lorentzian", f"kind = {kind}").replace("g = 0.5", "g = 0.4+0.3j")
            + f"[grid]\nt_max = 6.0\nn_steps = 60\n[solver]\nmethod = {method}\n"
            + initial
        )
        exp = cli.load_experiment(write_cfg(tmp_path, text))
        with open(tmp_path / "rows.tsv", "w") as out:
            rows = cli.run_evolution(exp, out)
        sol = cli._METHODS[method].evolve(exp.model, exp.grid)

        assert len(rows) == exp.grid.n_steps + 1
        for t, row, u, v in zip(exp.grid.times, rows, sol.u_seq, sol.v_seq):
            coeffs = ref.propagator_coefficients(u, v)
            rho1, rho2 = ref.density_blocks(*ref.evolve_density(exp.initial, coeffs))
            want = (
                t,
                _numpy_eof(rho1, rho2),
                np.trace(v).real,
                (rho2[0, 0] + rho1[1, 1]).real,
                (rho2[1, 1] + rho1[1, 1]).real,
                np.linalg.svd(u, compute_uv=False)[0],
                (np.trace(rho1 @ rho1) + np.trace(rho2 @ rho2)).real,
            )
            assert all(type(x) is float for x in row)
            np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)


class TestPoleRoute:
    def test_near_critical_damping_starts_at_identity(self, tmp_path):
        # d = 1 + 1e-7 sits next to the bonding orbital's exceptional point,
        # where the four residues sum to I only to about 3e-13
        text = (
            BASE.replace("eps1 = 2.0", "eps1 = 2.5")
            .replace("eps2 = 2.0", "eps2 = 2.5")
            .replace("d = 2.0", "d = 1.0000001")
        )
        for method in ("pole", "exact"):
            cfg = write_cfg(
                tmp_path,
                text + f"[grid]\nt_max = 10.0\nn_steps = 100\n[solver]\nmethod = {method}\n",
            )
            out = str(tmp_path / f"{method}.tsv")
            assert cli.main(["evolve", "--config", cfg, "--out", out]) == 0
            _, columns, rows = read_table(out)
            assert rows[0][columns.index("u_norm")] == 1.0


class TestEverySolutionIsChecked:
    @pytest.mark.parametrize(
        "method, kind, name, fake",
        [
            ("pole", "lorentzian", "compute_fluctuation", lambda v: v),
            ("born_markov", "wideband", "bm_fluctuation", lambda v: (v, v[-1])),
        ],
    )
    def test_v_outside_unit_interval_exits_4(
        self, tmp_path, capsys, monkeypatch, method, kind, name, fake
    ):
        def bad_v(*args):
            grid = args[-1]  # both solvers take the grid last
            v = np.zeros((grid.n_steps + 1, 2, 2), dtype=complex)
            v[5] = np.diag([1.5, 0.0])
            return fake(v)

        monkeypatch.setattr(cli, name, bad_v)
        cfg = write_cfg(
            tmp_path,
            BASE.replace("kind = lorentzian", f"kind = {kind}")
            + f"[grid]\nt_max = 1.0\nn_steps = 10\n[solver]\nmethod = {method}\n",
        )
        assert cli.main(["evolve", "--config", cfg]) == 4
        err = capsys.readouterr().err
        assert err.startswith("invariant violation: V(t) spectrum")
        assert "leaves [0, 1]" in err


class TestSweep:
    SWEEP = (
        BASE.replace("d = 2.0", "d = 0.5")
        + "[solver]\nmethod = pole\n"
        + "[sweep]\naxis1 = g:0.5:4.0:8\n"
    )

    def test_interdot_coupling_strengthens_entanglement(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SWEEP)
        out = str(tmp_path / "sweep.tsv")
        assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
        _, columns, rows = read_table(out)
        assert columns == [
            "axis1", "eof_s", "v00", "v11", "v01_re", "v01_im",
            "late_time_spread",
        ]
        assert len(rows) == 8
        eof = [r[1] for r in rows]
        assert eof[0] < eof[-1]
        assert all(b > a for a, b in zip(eof, eof[1:]))

    def test_serial_matches_concurrent(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SWEEP)
        a, b = str(tmp_path / "s1.tsv"), str(tmp_path / "s2.tsv")
        assert cli.main(["sweep", "--config", cfg, "--out", a]) == 0
        assert (
            cli.main(["sweep", "--config", cfg, "--out", b, "--workers", "2"])
            == 0
        )
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_two_axes_grid(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE
            + "[solver]\nmethod = pole\n"
            + "[sweep]\naxis1 = eps1,eps2:1.0:3.0:3\naxis2 = mu1,mu2:1.0:3.0:3\n",
        )
        out = str(tmp_path / "grid.tsv")
        assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
        _, columns, rows = read_table(out)
        assert columns[:2] == ["axis1", "axis2"]
        assert len(rows) == 9
        np.testing.assert_allclose(
            [r[0] for r in rows], [1, 1, 1, 2, 2, 2, 3, 3, 3]
        )

    @pytest.mark.parametrize(
        "workers, method, kind",
        [("1", "wbl", "wideband"), ("2", "wbl", "wideband"),
         ("1", "pole", "lorentzian"), ("2", "pole", "lorentzian"),
         ("1", "born_markov", "wideband"), ("2", "born_markov", "wideband"),
         ("1", "exact", "lorentzian"), ("2", "exact", "lorentzian"),
         ("1", "exact", "cutoff_lorentzian"), ("2", "exact", "cutoff_lorentzian")],
        ids=["1", "2", "pole-1", "pole-2", "born_markov-1", "born_markov-2",
             "exact-1", "exact-2", "exact-cutoff-1", "exact-cutoff-2"],
    )
    def test_failing_point_is_named(self, tmp_path, capsys, workers, method, kind):
        # the last gamma value switches both leads off: no steady state
        text = BASE.replace("kind = lorentzian", f"kind = {kind}")
        if kind == "cutoff_lorentzian":
            text = text.replace("k_t = 0.5", "k_t = 0.5\nomega_cut = 1.5")
        if method == "exact":
            text += "[grid]\nt_max = 4.0\nn_steps = 80\n"
        cfg = write_cfg(
            tmp_path,
            text
            + f"[solver]\nmethod = {method}\n"
            + "[sweep]\naxis1 = gamma:1.0:0.0:3\naxis2 = eps1,eps2:1.0:3.0:2\n",
        )
        argv = ["sweep", "--config", cfg, "--workers", workers]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "solver error: sweep point 4 (axis1 = 0, axis2 = 1): no damping" in err

    def test_invalid_point_value_is_named(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, BASE + "[solver]\nmethod = pole\n[sweep]\naxis1 = d:-1:1:3\n"
        )
        assert cli.main(["sweep", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config error: sweep point 0 (axis1 = -1): bandwidth must be" in err

    def test_single_step_axis_runs_its_one_value(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE + "[solver]\nmethod = pole\n[sweep]\naxis1 = eps1,eps2:2.5:2.5:1\n",
        )
        out = str(tmp_path / "one.tsv")
        assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
        _, _, rows = read_table(out)
        assert [r[0] for r in rows] == [2.5]

    def test_exact_steady_needs_grid(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE + "[sweep]\naxis1 = g:0.5:1.0:2\n")
        assert cli.main(["sweep", "--config", cfg]) == 2
        assert "late-time average" in capsys.readouterr().err

    def test_born_markov_steady_ignores_grid(self, tmp_path):
        body = (
            BASE.replace("kind = lorentzian", "kind = wideband")
            + "[solver]\nmethod = born_markov\n[sweep]\naxis1 = eps1,eps2:1.0:3.0:3\n"
        )
        tables = []
        for name, grid in (("bare", ""), ("grid", "[grid]\nt_max = 50.0\nn_steps = 8000\n")):
            cfg = write_cfg(tmp_path, body + grid, f"{name}.cfg")
            out = tmp_path / f"{name}.tsv"
            assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
            tables.append(out.read_text().splitlines())
        # the config echo differs by the grid keys; the rows may not
        rows = [[line for line in t if not line.startswith("#")] for t in tables]
        assert len(rows[0]) == 4
        assert rows[0] == rows[1]

    def test_exact_steady_matches_pole(self, tmp_path):
        body = BASE + "[sweep]\naxis1 = g:0.5:1.5:2\n"
        cfg_e = write_cfg(
            tmp_path, body + "[grid]\nt_max = 30.0\nn_steps = 3000\n", "e.cfg"
        )
        cfg_p = write_cfg(tmp_path, body + "[solver]\nmethod = pole\n", "p.cfg")
        oe, op = str(tmp_path / "e.tsv"), str(tmp_path / "p.tsv")
        assert cli.main(["sweep", "--config", cfg_e, "--out", oe]) == 0
        assert cli.main(["sweep", "--config", cfg_p, "--out", op]) == 0
        _, _, rows_e = read_table(oe)
        _, _, rows_p = read_table(op)
        for re_, rp in zip(rows_e, rows_p):
            np.testing.assert_allclose(re_[1:5], rp[1:5], atol=5e-3)
        # the late-time average of a converged run is nearly flat
        assert all(r[-1] < 5e-3 for r in rows_e)
        assert all(r[-1] == 0.0 for r in rows_p)

    def test_late_time_spread_is_the_rms_deviation(self, monkeypatch):
        # a valid V(t) whose off-diagonal turns once around a circle of
        # radius 0.2 over the window's 21 rows: |V - V-bar| stays 0.2, so the
        # spread of |V - V-bar| is 0, while the RMS deviation is 0.2
        grid = greens.TimeGrid(10.0, 100)
        v = np.zeros((101, 2, 2), dtype=complex)
        v[:, 0, 0] = v[:, 1, 1] = 0.5
        v[:, 0, 1] = 0.2 * np.exp(2j * np.pi / 21 * np.arange(101))
        v[:, 1, 0] = np.conj(v[:, 0, 1])
        monkeypatch.setattr(cli, "solve", lambda model, grid: SimpleNamespace(v_seq=v))
        model = ModelConfig(
            system=SystemParams(eps1=2.0, eps2=2.0, g_coupling=0.5),
            left=ReservoirParams(gamma=0.5),
            right=ReservoirParams(gamma=0.5),
        )
        v_s, spread = cli._late_time_steady(model, grid)
        np.testing.assert_allclose(v_s, 0.5 * np.eye(2), rtol=0.0, atol=1e-15)
        window = v[80:]
        assert np.max(np.abs(window - window.mean(axis=0)).std(axis=0)) < 1e-15
        assert spread == pytest.approx(0.2, rel=1e-12)

    def test_born_markov_evolve_without_coupled_lead_has_no_fluctuation(self, tmp_path):
        # the time series stays defined: V(t) = 0 and U(t) = e^{-iMt}
        cfg = write_cfg(
            tmp_path,
            BASE.replace("kind = lorentzian", "kind = wideband")
            .replace("gamma = 0.5", "gamma = 0.0")
            + "[grid]\nt_max = 2.0\nn_steps = 20\n[solver]\nmethod = born_markov\n",
        )
        out = str(tmp_path / "o")
        assert cli.main(["evolve", "--config", cfg, "--out", out]) == 0
        _, columns, rows = read_table(out)
        assert len(rows) == 21
        assert all(r[columns.index("tr_v")] == 0.0 for r in rows)
        np.testing.assert_allclose([r[columns.index("u_norm")] for r in rows], 1.0, atol=1e-12)


CLASSIFY_TWO_ROOT = """\
[system]
eps1 = 2.0
eps2 = 2.0
g = 1.0
[left]
gamma = 0.5
d = 1.0
mu = 2.0
k_t = 0.0
omega_cut = 0.5
[right]
gamma = 0.5
d = 1.0
mu = 2.0
k_t = 0.0
omega_cut = 0.5
[spectral]
kind = cutoff_lorentzian
"""


class TestClassify:
    def test_two_root_census_with_plateau(self, tmp_path):
        cfg = write_cfg(
            tmp_path, CLASSIFY_TWO_ROOT + "[grid]\nt_max = 30.0\nn_steps = 3000\n"
        )
        out = str(tmp_path / "cls.txt")
        assert cli.main(["classify", "--config", cfg, "--out", out]) == 0
        text = Path(out).read_text()
        assert "# effective_roots = 2" in text
        assert "# relaxation_class = OscillatingQuantumMemory" in text
        data = [
            line.split("\t")
            for line in text.splitlines()
            if line and not line.startswith("#") and line[0].isdigit()
        ]
        energies = sorted(float(r[0]) for r in data)
        np.testing.assert_allclose(energies, [0.925928, 3.074072], atol=1e-5)
        plateau = [
            float(line.split("=")[1])
            for line in text.splitlines()
            if line.startswith("# late_time_u_norm_max")
        ]
        assert plateau and plateau[0] > 0.05

    def test_no_roots_thermal_class(self, tmp_path):
        text = CLASSIFY_TWO_ROOT.replace("g = 1.0", "g = 0.3").replace(
            "omega_cut = 0.5", "omega_cut = 2.0"
        )
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "cls0.txt")
        assert cli.main(["classify", "--config", cfg, "--out", out]) == 0
        body = Path(out).read_text()
        assert "# effective_roots = 0" in body
        assert "# relaxation_class = ThermalLike" in body
        assert "# late_time_u_norm_max" not in body


    @pytest.mark.parametrize("g", ["0.0001", "1e-06"])
    def test_near_degenerate_pair_oscillates(self, tmp_path, g):
        # both levels at 3.5 hybridize into two out-of-band roots about 2g
        # apart; a fixed-step scan of det A saw neither
        text = CLASSIFY_TWO_ROOT.replace("eps1 = 2.0", "eps1 = 3.5")
        text = text.replace("eps2 = 2.0", "eps2 = 3.5").replace("g = 1.0", f"g = {g}")
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "cls2.txt")
        assert cli.main(["classify", "--config", cfg, "--out", out]) == 0
        body = Path(out).read_text()
        assert "# effective_roots = 2" in body
        assert "# relaxation_class = OscillatingQuantumMemory" in body


class TestVerify:
    def test_pass_within_default_tolerance(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, BASE + "[grid]\nt_max = 2.0\nn_steps = 400\n"
        )
        assert cli.main(["verify", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "max |U - U_oracle| =" in out
        assert "# oracle modes per lead: 400" in out

    def test_strict_tolerance_fails_with_solver_code(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            BASE
            + "[grid]\nt_max = 2.0\nn_steps = 400\n"
            + "[oracle]\ntol = 1e-9\n",
        )
        assert cli.main(["verify", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert "solver error: oracle cross-check failed" in captured.err

    def test_modes_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            BASE
            + "[grid]\nt_max = 1.0\nn_steps = 200\n"
            + "[oracle]\nmodes = 400\n",
        )
        code = cli.main(
            ["verify", "--config", cfg, "--oracle-modes", "250"]
        )
        assert code == 0
        assert "# oracle modes per lead: 250" in capsys.readouterr().out

    def test_wideband_has_no_oracle(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            BASE.replace("kind = lorentzian", "kind = wideband")
            + "[grid]\nt_max = 1.0\nn_steps = 10\n[solver]\nmethod = wbl\n",
        )
        assert cli.main(["verify", "--config", cfg]) == 2
        assert "discretize" in capsys.readouterr().err

    def test_oracle_recurrence_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # the config is rejected before the solver runs: count solve_dyson
        # wherever it is bound, since the exact method reaches it via solve
        calls = []
        for module in (cli, greens):
            def counted(*args, _solve=module.solve_dyson):
                calls.append(args)
                return _solve(*args)
            monkeypatch.setattr(module, "solve_dyson", counted)
        # 400 modes over mu +- 40 recur at t = 31.4, inside t_max = 45
        cfg = write_cfg(
            tmp_path, BASE + "[grid]\nt_max = 45.0\nn_steps = 450\n"
        )
        assert cli.main(["verify", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: the discretized lead 0 recurs")
        assert "modes_per_lead >= 573" in err
        assert calls == []


def _src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(dqdsim.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)


def _never_called(*args, **kwargs):
    raise AssertionError("called")


NO_LEAD_SWEEP = (BASE.replace("gamma = 0.5", "gamma = 0.0")
                 + "[solver]\nmethod = pole\n[sweep]\naxis1 = g:0.5:1.0:2\n")


class TestOutputFile:
    """The output path is opened, without truncation, before a command does
    any work, and written over only once the command's table is done."""

    def test_failed_run_keeps_an_existing_file(self, tmp_path, capsys):
        out = tmp_path / "out.tsv"
        out.write_bytes(b"an earlier table\n")
        cfg = write_cfg(tmp_path, NO_LEAD_SWEEP)
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 3
        assert "no lead is coupled" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier table\n"

    def test_failed_run_leaves_no_new_file(self, tmp_path):
        out = tmp_path / "out.tsv"
        cfg = write_cfg(tmp_path, NO_LEAD_SWEEP)
        assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 3
        assert not out.exists()

    def test_table_replaces_a_longer_file(self, tmp_path):
        cfg = write_cfg(tmp_path, TestSweep.SWEEP)
        fresh, old = tmp_path / "fresh.tsv", tmp_path / "old.tsv"
        old.write_text("x" * 10000)
        for out in (fresh, old):
            assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert old.read_bytes() == fresh.read_bytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_and_device_outputs(self, tmp_path):
        # neither can be truncated; the pipe's reader gets the whole table
        cfg = write_cfg(tmp_path, TestSweep.SWEEP)
        plain, fifo = tmp_path / "plain.tsv", tmp_path / "fifo"
        assert cli.main(["sweep", "--config", cfg, "--out", str(plain)]) == 0
        assert cli.main(["sweep", "--config", cfg, "--out", os.devnull]) == 0
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            assert cli.main(["sweep", "--config", cfg, "--out", str(fifo)]) == 0
        finally:
            reader.join(timeout=30)
        assert not reader.is_alive()
        assert got == [plain.read_bytes()]

    def test_failed_verify_keeps_its_report(self, tmp_path):
        # the cross-check fails after the report is written
        out = tmp_path / "verify.txt"
        cfg = write_cfg(tmp_path, BASE + "[grid]\nt_max = 2.0\nn_steps = 400\n[oracle]\ntol = 1e-9\n")
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 3
        assert "max |U - U_oracle| =" in out.read_text()


class TestParserReuse:
    """main builds its parser on the first call and reuses it: refusals in
    between leave later runs and the help text as a fresh process has them."""

    def test_runs_after_refusals_match_a_fresh_process(self, tmp_path, capsys):
        assert cli._build_parser() is cli._build_parser()
        for argv in ([], ["evolve", "--config", "run.cfg", "--bogus"]):
            with pytest.raises(SystemExit) as info:
                cli.main(argv)
            assert info.value.code == 2
        evolve = write_cfg(tmp_path, BASE + "[grid]\nt_max = 1.0\nn_steps = 20\n", "evolve.cfg")
        sweep = write_cfg(tmp_path, TestSweep.SWEEP, "sweep.cfg")
        runs = [["evolve", "--config", evolve], ["sweep", "--config", sweep, "--workers", "1"]]
        for i, argv in enumerate(runs):
            here, fresh = tmp_path / f"here{i}.tsv", tmp_path / f"fresh{i}.tsv"
            assert cli.main(argv + ["--out", str(here)]) == 0
            proc = subprocess.run(
                [sys.executable, "-m", "dqdsim.cli", *argv, "--out", str(fresh)],
                capture_output=True, text=True, env=_src_env(),
            )
            assert proc.returncode == 0, proc.stderr
            assert here.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]], ids=["main", "sweep"])
    def test_help_text_matches_a_fresh_process(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            cli.main(["evolve"])  # a refusal first, on the shared parser
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 0
        proc = subprocess.run([sys.executable, "-m", "dqdsim.cli", *argv],
                              capture_output=True, text=True, env=_src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: dqdsim")
        assert capsys.readouterr().out == proc.stdout


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE.replace("kind = lorentzian", "kind = wideband")
            + "[grid]\nt_max = 1.0\nn_steps = 5\n[solver]\nmethod = wbl\n",
        )
        out = str(tmp_path / "cli.tsv")
        proc = subprocess.run(
            [sys.executable, "-m", "dqdsim.cli", "evolve", "--config", cfg,
             "--out", out],
            capture_output=True, text=True, env=_src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert Path(out).read_text().count("\n") >= 6

    def test_import_skips_slow_scipy_modules(self):
        # the package needs numpy alone: no scipy module is loaded
        code = (
            "import sys, dqdsim.cli; print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=_src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_skips_process_pool(self):
        # only a sweep with --workers > 1 loads the process pool
        code = (
            "import sys, dqdsim.cli;"
            " print('concurrent.futures.process' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=_src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_commands_run_without_scipy(self, tmp_path):
        # with scipy blocked, every closed form still runs: E1 in the kernel
        # tables and the wide band, digamma in the steady states, the root
        # search in classify
        lorentz = BASE + "[grid]\nt_max = 4.0\nn_steps = 40\n[solver]\nmethod = exact\n"
        wide = (BASE.replace("kind = lorentzian", "kind = wideband")
                + "[grid]\nt_max = 4.0\nn_steps = 40\n[solver]\nmethod = wbl\n")
        runs = [
            ("evolve", write_cfg(tmp_path, lorentz, "lorentz.cfg")),
            ("evolve", write_cfg(tmp_path, wide, "wide.cfg")),
            ("sweep", write_cfg(tmp_path, TestSweep.SWEEP, "sweep.cfg")),
            ("classify", write_cfg(
                tmp_path, CLASSIFY_TWO_ROOT + "[grid]\nt_max = 5.0\nn_steps = 100\n",
                "classify.cfg")),
        ]
        argvs = [[sub, "--config", cfg, "--out", str(tmp_path / f"{i}.out")]
                 for i, (sub, cfg) in enumerate(runs)]
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "from dqdsim import cli\n"
            f"sys.exit(max(cli.main(argv) for argv in {argvs!r}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=_src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        for i in range(len(runs)):
            assert (tmp_path / f"{i}.out").read_text().count("\n") > 5


# sweep name -> the (ModelConfig part, field) pairs it sets, in the order
# the "unknown parameter" message lists them
SWEEP_FIELDS = {
    "eps1": {("system", "eps1")},
    "eps2": {("system", "eps2")},
    "mu1": {("left", "mu")},
    "mu2": {("right", "mu")},
    "g": {("system", "g_coupling")},
    "d": {("left", "bandwidth"), ("right", "bandwidth")},
    "k_t": {("left", "k_t"), ("right", "k_t")},
    "gamma": {("left", "gamma"), ("right", "gamma")},
    "omega_cut": {("left", "cutoff"), ("right", "cutoff")},
}

# method -> the spectral kinds it solves; every other kind is exit 2
METHOD_KINDS = {
    "exact": {"lorentzian", "cutoff_lorentzian"},
    "wbl": {"wideband"},
    "born_markov": {"wideband"},
    "pole": {"lorentzian"},
}


class TestMethodKindMatrix:
    @pytest.mark.parametrize("command", ["evolve", "sweep"])
    @pytest.mark.parametrize("kind", ["lorentzian", "wideband", "cutoff_lorentzian"])
    @pytest.mark.parametrize("method", sorted(METHOD_KINDS))
    def test_exit_code(self, tmp_path, capsys, method, kind, command):
        text = BASE.replace("kind = lorentzian", f"kind = {kind}")
        if kind == "cutoff_lorentzian":
            text = text.replace("k_t = 0.5", "k_t = 0.5\nomega_cut = 1.5")
        cfg = write_cfg(
            tmp_path,
            text
            + f"[grid]\nt_max = 4.0\nn_steps = 80\n[solver]\nmethod = {method}\n"
            + "[sweep]\naxis1 = eps1,eps2:1.0:3.0:2\n",
        )
        out = str(tmp_path / "out.tsv")
        code = cli.main([command, "--config", cfg, "--out", out])
        if kind in METHOD_KINDS[method]:
            assert code == 0
            _, _, rows = read_table(out)
            assert len(rows) == (81 if command == "evolve" else 2)
        else:
            assert code == 2
            err = capsys.readouterr().err
            assert "requires the" in err
            if method == "exact":
                # the wide band's exact solution has its own method
                assert "method wbl" in err


# a config that loads, with every required key set, explicit initial
# blocks (a named state leaves the rho entries unread) and both sweep axes
KEY_BASE = {
    "system": {"eps1": "2.0", "eps2": "2.0"},
    "grid": {"t_max": "1.0", "n_steps": "10"},
    "initial": {
        "state": "explicit",
        "rho1_00": "0.25",
        "rho1_11": "0.25",
        "rho2_00": "0.25",
        "rho2_11": "0.25",
    },
    "sweep": {"axis1": "g:0:1:2", "axis2": "mu1:0:1:2"},
}

# (section, key) -> the values that give the key another value than in
# KEY_BASE; a diagonal entry moves weight off its partner to keep trace 1
KEY_CHANGES = {
    ("system", "eps1"): {"eps1": "1.5"},
    ("system", "eps2"): {"eps2": "1.5"},
    ("system", "g"): {"g": "0.3+0.1j"},
    **{
        (lead, key): {key: value}
        for lead in ("left", "right")
        for key, value in (
            ("gamma", "0.7"), ("d", "3.0"), ("mu", "1.0"), ("k_t", "0.2"),
            ("omega_cut", "4.0"),
        )
    },
    ("spectral", "kind"): {"kind": "wideband"},
    ("grid", "t_max"): {"t_max": "2.0"},
    ("grid", "n_steps"): {"n_steps": "20"},
    ("initial", "state"): {"state": "vacuum"},
    **{
        ("initial", f"{block}_{entry}"): {
            f"{block}_{entry}": "0.5", f"{block}_{partner}": "0.0"
        }
        for block in ("rho1", "rho2")
        for entry, partner in (("00", "11"), ("11", "00"))
    },
    **{
        ("initial", f"{block}_01_{part}"): {f"{block}_01_{part}": "0.1"}
        for block in ("rho1", "rho2")
        for part in ("re", "im")
    },
    ("solver", "method"): {"method": "pole"},
    ("sweep", "axis1"): {"axis1": "eps1:0:1:2"},
    ("sweep", "axis2"): {"axis2": "mu2:0:1:2"},
    ("oracle", "modes"): {"modes": "100"},
    ("oracle", "tol"): {"tol": "0.5"},
    ("output", "path"): {"path": "table.tsv"},
}


def _key_config(tmp_path, section=None, change=None):
    """An ExperimentConfig's fields, less the config echo, from KEY_BASE
    with one section's keys changed."""
    table = {s: dict(keys) for s, keys in KEY_BASE.items()}
    if section is not None:
        table.setdefault(section, {}).update(change)
    text = "".join(
        f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for s, keys in table.items()
    )
    exp = cli.load_experiment(write_cfg(tmp_path, text))
    got = {f.name: getattr(exp, f.name) for f in dataclasses.fields(exp)}
    del got["raw_items"]
    got["initial"] = (exp.initial.rho1.tolist(), exp.initial.rho2.tolist())
    return got


class TestKeyTable:
    def test_every_key_has_a_change(self):
        assert set(KEY_CHANGES) == {(s, k) for s in cli._KEYS for k in cli._KEYS[s]}

    @pytest.mark.parametrize(
        "section, key", [(s, k) for s, keys in cli._KEYS.items() for k in keys]
    )
    def test_every_key_reaches_the_config(self, tmp_path, section, key):
        # a key the parser accepts but the loader never reads fails here
        base = _key_config(tmp_path)
        assert _key_config(tmp_path, section, KEY_CHANGES[section, key]) != base


class TestTables:
    def test_names_and_their_order(self):
        # the order is the one every "must be one of" message lists
        assert cli.SOLVER_METHODS == ("exact", "wbl", "born_markov", "pole")
        assert set(cli.SOLVER_METHODS) == set(METHOD_KINDS)
        assert cli.INITIAL_STATES == (
            "vacuum", "single1", "single2", "bell_plus", "bell_minus", "explicit",
        )
        assert cli.SWEEP_PARAMS == tuple(SWEEP_FIELDS)

    @pytest.mark.parametrize("name", list(SWEEP_FIELDS))
    def test_sweep_name_sets_documented_fields(self, name):
        base = ModelConfig(
            system=SystemParams(eps1=1.0, eps2=2.0, g_coupling=0.3),
            left=ReservoirParams(gamma=0.4, bandwidth=0.6, mu=0.7, k_t=0.8, cutoff=5.0),
            right=ReservoirParams(gamma=0.9, bandwidth=1.1, mu=1.2, k_t=1.3, cutoff=6.0),
            spectral_kind=SpectralKind.CUTOFF_LORENTZIAN,
        )
        out = cli._apply_params(base, {name: 3.25})
        assert out.spectral_kind is base.spectral_kind
        for part in ("system", "left", "right"):
            for f in dataclasses.fields(getattr(base, part)):
                got = getattr(getattr(out, part), f.name)
                if (part, f.name) in SWEEP_FIELDS[name]:
                    assert got == 3.25
                else:
                    assert got == getattr(getattr(base, part), f.name)


    def test_point_values_take_one_build(self, monkeypatch):
        # a point's four names change three parts: one replace of each and
        # one of the model, with the same result as one name at a time
        base = ModelConfig(
            system=SystemParams(eps1=1.0, eps2=2.0, g_coupling=0.3),
            left=ReservoirParams(gamma=0.4, bandwidth=0.6, mu=0.7, k_t=0.8),
            right=ReservoirParams(gamma=0.9, bandwidth=1.1, mu=1.2, k_t=1.3),
        )
        values = {"eps1": 0.5, "eps2": -0.5, "mu1": 3.0, "mu2": 4.0}
        calls = []
        monkeypatch.setattr(cli, "replace", lambda obj, **kw: calls.append(obj)
                            or dataclasses.replace(obj, **kw))
        out = cli._apply_params(base, values)
        assert len(calls) == 4
        one_by_one = base
        for name, value in values.items():
            one_by_one = cli._apply_params(one_by_one, {name: value})
        assert out == one_by_one
        assert (out.system.eps1, out.system.eps2, out.left.mu, out.right.mu) == (0.5, -0.5, 3.0, 4.0)


# the layers perfbench/tracer.py traces, by defining module; the per-pass
# call counts of its workloads are frozen, and the tests below hold them
_TRACED_LAYERS = {
    "spectral": ("build_kernel_table",),
    "greens": (
        "solve_dyson", "compute_fluctuation", "pole_expansion_lorentzian",
        "steady_state_fluctuation", "wbl_steady_fluctuation", "wbl_greens",
        "bm_fluctuation",
    ),
    "oracle": ("discretize", "exact_greens"),
    "boundstate": ("find_bound_states",),
    "state": ("propagator_coefficients", "evolve_density"),
    "entanglement": ("fermionic_eof", "steady_state_eof"),
}


class TestDispatchThroughModuleNames:
    """The solver table looks dqdsim.cli's names up when it runs.

    A tracer that rebinds those names must see every call; an entry that
    held a function object taken at import would count nothing.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}
        for name, fn in list(vars(cli).items()):
            if not inspect.isfunction(fn) or fn.__module__ == cli.__name__:
                continue
            if not fn.__module__.startswith("dqdsim."):
                continue
            counts[name] = 0

            def counted(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        return counts

    @staticmethod
    def expect(calls, **nonzero):
        assert "wbl_greens" in calls and "steady_state_eof" in calls
        assert calls == {name: nonzero.get(name, 0) for name in calls}

    @pytest.fixture
    def layer_calls(self, monkeypatch):
        """Calls of every layer the benchmark traces, counted at each dqdsim
        binding, so that calls between modules count too."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "dqdsim" or name.startswith("dqdsim."))
        ]
        counts = {}
        for owner, names in _TRACED_LAYERS.items():
            for name in names:
                fn = getattr(importlib.import_module(f"dqdsim.{owner}"), name)
                counts[name] = 0

                def counted(*args, _fn=fn, _name=name, **kwargs):
                    counts[_name] += 1
                    return _fn(*args, **kwargs)

                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            monkeypatch.setattr(module, attr, counted)
        return counts

    def test_pole_sweep(self, tmp_path, calls):
        cfg = write_cfg(tmp_path, TestSweep.SWEEP.replace(":8", ":3"))
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        self.expect(
            calls,
            pole_expansion_lorentzian=3,
            steady_state_fluctuation=3,
            steady_state_eof=3,
        )

    def test_wbl_sweep(self, tmp_path, calls):
        cfg = write_cfg(
            tmp_path,
            BASE.replace("kind = lorentzian", "kind = wideband")
            + "[solver]\nmethod = wbl\n[sweep]\naxis1 = eps1,eps2:0.0:4.0:4\n",
        )
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        self.expect(calls, wbl_steady_fluctuation=4, steady_state_eof=4)

    def test_born_markov_sweep_builds_no_time_series(self, tmp_path, calls):
        # the steady route forms X alone, never V(t) on the run's grid
        cfg = write_cfg(
            tmp_path,
            BASE.replace("kind = lorentzian", "kind = wideband")
            + "[grid]\nt_max = 2.0\nn_steps = 20\n[solver]\nmethod = born_markov\n"
            + "[sweep]\naxis1 = eps1,eps2:0.0:4.0:3\n",
        )
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        self.expect(calls, _bm_stationary=3, _require_damping=3, steady_state_eof=3)

    def test_born_markov_evolve(self, tmp_path, calls):
        cfg = write_cfg(
            tmp_path,
            BASE.replace("kind = lorentzian", "kind = wideband")
            + "[grid]\nt_max = 2.0\nn_steps = 20\n[solver]\nmethod = born_markov\n",
        )
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        self.expect(
            calls,
            wbl_greens=1,
            bm_fluctuation=1,
            propagator_coefficients=21,
            evolve_density=21,
            fermionic_eof=21,
        )

    def test_exact_lorentzian_evolve_layer_counts(self, tmp_path, layer_calls):
        # the evolve-lorentz workload's counts
        cfg = write_cfg(
            tmp_path,
            BASE + "[grid]\nt_max = 2.0\nn_steps = 20\n[solver]\nmethod = exact\n",
        )
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        self.expect(
            layer_calls,
            build_kernel_table=2,
            solve_dyson=1,
            compute_fluctuation=1,
            propagator_coefficients=21,
            evolve_density=21,
            fermionic_eof=21,
        )

    def test_cutoff_classify_and_verify_layer_counts(self, tmp_path, layer_calls):
        # the gapped-verify workload's counts
        cfg = write_cfg(
            tmp_path,
            CLASSIFY_TWO_ROOT
            + "[grid]\nt_max = 10.0\nn_steps = 200\n[solver]\nmethod = exact\n"
            + "[oracle]\nmodes = 100\ntol = 1.0\n",
        )
        out = str(tmp_path / "o")
        assert cli.main(["classify", "--config", cfg, "--out", out]) == 0
        assert cli.main(["verify", "--config", cfg, "--out", out]) == 0
        self.expect(
            layer_calls,
            find_bound_states=1,
            build_kernel_table=3,
            solve_dyson=2,
            compute_fluctuation=1,
            discretize=1,
            exact_greens=1,
        )
