"""Smoke runs of the experiment scripts with tiny arguments.

The scripts are the only readers of several public names, so each one is run
end to end through its ``main(argv)``.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_convergence_orders(capsys):
    assert load_script("convergence_orders").main(["--nfe", "8", "16", "32", "--batch", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0].strip() for line in lines] == [
        "euler_ddim", "heun_edm", "dpm2", "ipndm", "dpmpp_2m"
    ]
    assert all("order" in line for line in lines)


def test_alignment_sweep(tmp_path, capsys):
    prefix = tmp_path / "align"
    assert load_script("alignment_sweep").main(["--N", "4", "--batch", "4", "--out-prefix", str(prefix)]) == 0
    out = capsys.readouterr().out
    for tag in ("dpm2", "euler_ddim"):
        rows = (tmp_path / f"align_{tag}.csv").read_text().splitlines()
        assert rows[0] == "step,t,mean_best_r,mean_alignment"
        assert len(rows) == 1 + 3  # one row per interval of the 4-node schedule
        assert f"{tag}: overall mean alignment" in out


@pytest.mark.parametrize("base", ["amed", "dpm2"])
def test_train_eval_sweep(capsys, base):
    argv = ["--nfe", "4", "--images", "128", "--held-out", "16", "--base", base]
    assert load_script("train_eval_sweep").main(argv) == 0
    out = capsys.readouterr().out
    assert "M = 1:" in out and "NFE  4 (N=3): untrained" in out
