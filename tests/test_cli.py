import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from sppsim import solver
from sppsim.cli import blas_thread_note, main

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_oracle_subcommand_writes_csv(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("sigma_r = 2.0e-3+0.2j\na = 1.0\nsamples = 16\nx_min = 2.0\n")
    rc = main(["oracle", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("x,re_pole,im_pole")
    assert len(lines) == 17
    for line in lines[1:]:
        row = [float(v) for v in line.split(",")]
        total = complex(row[5], row[6])
        pole = complex(row[1], row[2])
        bc = complex(row[3], row[4])
        assert abs(total - (pole + bc)) < 1e-15
    assert "surface wave number" in capsys.readouterr().out


def test_report_subcommand(tmp_path, capsys):
    csv_path = tmp_path / "convergence.csv"
    csv_path.write_text(
        "cycle,cells,dofs,l2_error,rate,l2_error_complex\n"
        "1,100,1000,1.0e-2,nan,2.0e-2\n"
        "2,220,2100,5.0e-3,1.0,9e-3\n"
        "3,480,4500,2.5e-3,1.0,5e-3\n"
        "4,1000,9500,1.25e-3,1.0,2e-3\n")
    rc = main(["report", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mean rate over last three cycles: 1.000" in out


TINY_CONFIG = """
sigma_r = 0.15j
a = 0.5
R = 12.566370614359172
d_w = 0.8
d_reg = 0.5
cycles = 1
initial_refines = 1
samples = 64
x_min = 0.4
dipole_resolve_factor = 2.05
"""


def test_run_subcommand_tiny(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cycle" in out
    assert (tmp_path / "out" / "convergence.csv").exists()


def test_pml_study_subcommand_tiny(tmp_path, capsys):
    # pml_study builds its own band-refined mesh
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    out = tmp_path / "out"
    assert main(["pml-study", "--config", str(cfg), "--values", "2,0", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["s0 = 0", "s0 = 2"]
    for line in lines:
        words = line.split()            # ... amplitude <amp> at k = <k>
        amp, k_at = float(words[-5]), float(words[-1])
        assert amp > 0 and 2.0 <= k_at <= 25.0
    assert (out / "pml_study.csv").exists()


def test_report_prints_the_table_that_run_printed(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--cycles", "4", "--out", str(out)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if not line.startswith(("note:", "wrote "))]
    assert main(["report", str(out / "convergence.csv")]) == 0
    assert capsys.readouterr().out.splitlines() == printed
    # header, four cycles and the mean of the last three rates
    assert len(printed) == 6 and printed[-1].startswith("mean rate")


def test_blas_thread_note_unless_one_thread(monkeypatch):
    monkeypatch.setattr(solver, "superlu_blas_pinned", lambda: False)
    assert blas_thread_note({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}) is None
    unpinned = ({}, {"OMP_NUM_THREADS": "1"}, {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"})
    for env in unpinned:
        assert "one BLAS thread" in blas_thread_note(env)
    # none once the solver has pinned SuperLU's BLAS itself
    monkeypatch.setattr(solver, "superlu_blas_pinned", lambda: True)
    for env in unpinned:
        assert blas_thread_note(env) is None


@pytest.mark.skipif(not solver.superlu_blas_pinned(), reason="scipy's wheel OpenBLAS not found")
def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # cycle 3's factors of the default run differ with two unpinned threads
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(SRC))
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "sppsim.cli", "run", "--cycles", "3",
                        "--out", str(out)], env=env, check=True, capture_output=True,
                       timeout=300)
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert len(outputs[0]) == 7 and outputs[0] == outputs[1]


@pytest.mark.parametrize("config, argv, named", [
    ("out_dir =\n", ["run"], "out_dir"),
    ("cycels = 2\n", ["run"], "cycels"),
    (None, ["run", "--cycles", "0"], "cycles"),
    (None, ["run", "--s0", "-1"], "-1"),
    # every pml-study value is checked before any mesh is built
    (None, ["pml-study", "--values", "1,x"], "'x'"),
    (None, ["pml-study", "--values", ""], "''"),
    (None, ["pml-study", "--values", "2,-1"], "-1"),
    (None, ["pml-study", "--values", "0,inf"], "inf"),
    # checked by RunConfig, before the output directory is made
    ("initial_refines = -1\n", ["run"], "initial_refines"),
    (None, ["run", "--out", ""], "out_dir"),
    # the model is checked by RunConfig, and run and oracle need a surface
    # plasmon, before any output is made
    (None, ["run", "--a", "-1"], "above the sheet"),
    (None, ["run", "--sigma=-0.1j"], "Im(sigma_r)"),
    (None, ["run", "--sigma", "0"], "nonzero"),
    (None, ["oracle", "--a", "-1"], "above the sheet"),
    (None, ["oracle", "--sigma", "0"], "nonzero"),
    # non-finite model values, checked by RunConfig before any mesh is built
    (None, ["run", "--sigma", "nan+0.16j"], "sigma_r"),
    (None, ["pml-study", "--sigma", "nan+0.1j", "--values", "0"], "sigma_r"),
    (None, ["run", "--a", "inf"], "finite height"),
    (None, ["oracle", "--a", "inf"], "finite height"),
    ("R = inf\n", ["run"], "disk radius"),
    ("d_reg = inf\n", ["run"], "regularization radius"),
    # the reference quadrature has no config key: each command rejects it
    # as an unknown key
    ("quad_rel_tol = 0\n", ["run"], "quad_rel_tol"),
    ("quad_rel_tol = 0\n", ["oracle"], "quad_rel_tol"),
    ("quad_rel_tol = 0\n", ["pml-study", "--values", "0"], "quad_rel_tol"),
    # a spectral window of fewer than 3 trace samples, before any mesh is
    # built: the window 0.2 R <= x <= 0.7 R holds none of 4 samples
    ("samples = 4\n", ["pml-study", "--values", "0"], "samples"),
    # sigma^2 underflows to zero or overflows: 4/sigma^2 is not finite
    (None, ["run", "--sigma", "1e-300j", "--cycles", "1"], "4/sigma^2"),
    (None, ["run", "--sigma", "1e300j"], "4/sigma^2"),
    (None, ["oracle", "--sigma", "1e-300j"], "4/sigma^2"),
    (None, ["oracle", "--sigma", "1e300j"], "4/sigma^2"),
    # marking takes mark's one fraction and level cap: neither is a config key
    ("level_cap = 12\n", ["run"], "level_cap"),
    ("marking_fraction = 0.15\n", ["run"], "marking_fraction"),
    # the dipole's bump must end inside the layer's inner radius 0.8 R,
    # where the stretch is one, before any mesh is built
    (None, ["run", "--a", "22", "--cycles", "1"], "a + d_reg"),
    (None, ["run", "--a", "30"], "a + d_reg"),
    (None, ["pml-study", "--a", "30", "--values", "0"], "a + d_reg"),
    (None, ["oracle", "--a", "30"], "a + d_reg"),
    # a real sigma puts a pole on the reference's path: the reference is
    # computed before any output is made
    (None, ["run", "--sigma", "0.16"], "vanishes"),
    (None, ["oracle", "--sigma", "0.16"], "vanishes"),
    # the message names the input and what the reference needs of it
    (None, ["run", "--sigma", "0.16"], "sigma_r = 0.16+0j; the reference needs Im(sigma_r) > 0"),
    (None, ["oracle", "--sigma", "0.16"], "sigma_r = 0.16+0j; the reference needs Im(sigma_r) > 0"),
    # a value that does not parse, or a key given twice, names its key
    ("cycles = 2.0\n", ["run"], "config key 'cycles' needs a value of type int, got '2.0'"),
    ("sigma_r = abc\n", ["run"], "config key 'sigma_r' needs a value of type complex"),
    ("d_w = wide\n", ["oracle"], "config key 'd_w'"),
    ("cycles = 2\ncycles = 3\n", ["run"], "config key 'cycles' is given twice"),
    ("x_min = 0.5\nx_min = 0.5\n", ["pml-study", "--values", "0"], "config key 'x_min'"),
])
def test_bad_run_input_is_one_error_line(tmp_path, capsys, config, argv, named):
    if config is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    # an --out in argv comes last, so it wins over this one; for oracle it
    # is the output file
    assert main([argv[0], "--out", str(tmp_path / "out"), *argv[1:]]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("sppsim: error: ") and named in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, out", [
    (["run"], "file/out"),
    (["pml-study", "--values", "0"], "file/out"),
    (["oracle"], "file/out.csv"),
    (["oracle"], "dir"),
])
def test_unusable_out_is_one_error_line(tmp_path, capsys, argv, out):
    # a path under a regular file, or a directory for the oracle's file
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    out = str(tmp_path / out)
    assert main([*argv, "--config", str(cfg), "--out", out]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("sppsim: error: ") and out in err[0]
    assert "wrote" not in captured.out


@pytest.mark.parametrize("argv", [["report", "{}/missing.csv"],
                                  ["run", "--config", "{}/missing.cfg"]])
def test_missing_input_file_is_one_error_line(tmp_path, capsys, argv):
    argv = [a.format(tmp_path) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("sppsim: error: ")
    assert argv[-1] in err[0]


@pytest.mark.parametrize("text,named", [
    ("a,b\n1,2\n", "'cycle'"),
    ("cycle,cells,dofs,l2_error,rate,l2_error_complex\n1,2,3,x,nan,1\n", "'l2_error'"),
    ("cycle,cells,dofs,l2_error,rate,l2_error_complex\n1,2,3,1e-3\n", "'rate'"),
    (b"\xff\xfe\x00", "'utf-8'"),
])
def test_bad_report_csv_is_one_error_line(tmp_path, capsys, text, named):
    # a missing column, a non-numeric field or a byte that is not UTF-8 is
    # found before any table line
    path = tmp_path / "bad.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("sppsim: error: ")
    assert str(path) in err[0] and named in err[0]
