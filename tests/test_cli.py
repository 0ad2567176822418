import numpy as np

from sppsim.cli import blas_thread_note, main


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


def test_blas_thread_note_unless_one_thread():
    assert blas_thread_note({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}) is None
    for env in ({}, {"OMP_NUM_THREADS": "1"}, {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"}):
        assert "one BLAS thread" in blas_thread_note(env)
