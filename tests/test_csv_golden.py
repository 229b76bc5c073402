"""CSV outputs pinned byte for byte.

The digests are sha256s of the files the CLI writes, recorded before the
writers went column-wise.  They pin the layout as well as the numbers: the
sorted ``# key=value`` lines, the header, ints printed as ints, floats in
their shortest round-trip form, and the trailing ``# slope=`` line.  The
three outputs that hold a solved curve (``curve``, ``episodes_learner_t2``
and ``regret``) were re-captured when the curve solver became a numpy scan;
their numbers moved by at most 2.3e-13 (a regret sum), prices by 8.7e-15.

``episodes_two_price_noiseless`` and ``curve_long`` were captured from the
row-by-row writer, before the writer went chunked.  They are the two cases
longer than one ``CSV_ROWS`` chunk (16,384 rows), so chunk boundaries fall
inside their blocks.  The first has a two-valued price column and, without
noise, a ``realized_revenue`` column bit-identical to ``expected_revenue``;
the second has the curve's long hold phase at p_max.
"""

import hashlib
import os

import pytest

from refprice.cli import main

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# name -> (command, config, overrides, output file, sha256)
CASES = {
    "curve": (
        "solve",
        "default.yaml",
        ["run.T=2000"],
        "curve.csv",
        "247385785c4b340de3abb82bfd5ef485f646a76b8793166b58976ad585be5405",
    ),
    "episodes_two_price": (
        "simulate",
        "two_price_gap.yaml",
        ["run.T=3000", "run.seeds=2", "noise.kind=bounded_uniform", "noise.half_width=0.1"],
        "episodes.csv",
        "02968e4b50469b5fe96b222d65fe2112ce8d545012eb28393b159a5c1e652a7d",
    ),
    # The default budget constant reaches the exploit phase (t2 is set).
    "episodes_learner_t2": (
        "simulate",
        "learning_sweep.yaml",
        ["run.T=3000", "run.seeds=1", "policy.c_t1=null"],
        "episodes.csv",
        "74b8706e66f39cffd3fce7c62744ec2c58020c834d4067b1ce0fcf1e6eeff768",
    ),
    # The horizon ends during exploration (t2=None).
    "episodes_learner_no_t2": (
        "simulate",
        "learning_sweep.yaml",
        ["run.T=1000", "run.seeds=1"],
        "episodes.csv",
        "abde991396c8f07d74c663f7e03a7e601e5dc0ac8395fce4c8c1031db6efb132",
    ),
    # Past one writer chunk, with runs and identical columns.
    "episodes_two_price_noiseless": (
        "simulate",
        "two_price_gap.yaml",
        ["run.T=40000", "run.seeds=2", "noise.kind=none"],
        "episodes.csv",
        "f8639d874ebef6285d5e8a96d11344443879c8ba469552edd78b6217fa470dc5",
    ),
    "curve_long": (
        "solve",
        "default.yaml",
        ["run.T=40000"],
        "curve.csv",
        "9c08ddc2e38a11ed22058f3e5cd992ab16e997019a1530bc6839443e7326ea13",
    ),
    "regret": (
        "sweep",
        "learning_sweep.yaml",
        ["run.T_list=[300,1000]", "run.seeds=3"],
        "regret.csv",
        "e2a0a2db665397792af027ade9040e77e11df8ef6a4b599787235841e625052c",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_matches_golden(tmp_path, name):
    command, config, overrides, filename, digest = CASES[name]
    args = [command, "--config", os.path.join(CONFIGS, config), "--out", str(tmp_path)]
    assert main(args + overrides) == 0
    data = (tmp_path / filename).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
