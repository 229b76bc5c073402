"""CSV outputs pinned byte for byte.

The digests are sha256s of the files the CLI writes, recorded before the
writers went column-wise.  They pin the layout as well as the numbers: the
sorted ``# key=value`` lines, the header, ints printed as ints, floats in
their shortest round-trip form, and the trailing ``# slope=`` line.  The
three outputs that hold a solved curve (``curve``, ``episodes_learner_t2``
and ``regret``) were re-captured when the curve solver became a numpy scan;
their numbers moved by at most 2.3e-13 (a regret sum), prices by 8.7e-15.
``regret`` was re-captured again when the clairvoyant baseline came to be
scored as an episode, with the simulator's running total instead of
r1 + cumsum(prices): the T = 300 baseline and its mean regret moved by
5.7e-14 (1.7e-16 relative), and nothing else changed.  ``curve``,
``curve_long``, ``episodes_learner_t2`` and ``regret`` were re-captured again
when the solver came to roll blocks of rounds (``curve._roll``) instead of
scanning: prices moved by at most 7.1e-14 and references by 3.8e-14
(``curve_long``), the learner's revenues by 8.9e-16, and ``regret``'s sums by
2.3e-13 and its slope by 8.9e-16.

``episodes_two_price_noiseless`` and ``curve_long`` were captured from the
row-by-row writer, before the writer went chunked.  They were the two cases
longer than its first chunks of 16,384 rows; chunks of ``CSV_CELLS`` cells
(2,048 rows of ``episodes.csv``, 5,461 of ``curve.csv``) end inside their
blocks many times, and once inside each 3,000-round episode of
``episodes_two_price`` and ``episodes_learner_t2``.  The first has a
two-valued price column and, without noise, a ``realized_revenue`` column
bit-identical to ``expected_revenue``; the second has the curve's long hold
phase at p_max.

``episodes_two_price_gaussian`` was captured from the writer that made
every cell with ``repr``, before the cells came to be made in numpy.  Its
gaussian demands (std 1.0) go negative 956 times, and its first reference
is 0.0.

``episodes_two_price_noisy_long`` was captured before the writer came to
reuse a column chunk across episodes.  Its three noisy episodes share the
``t``, ``price``, ``reference`` and ``expected_revenue`` chunks at every
offset but not ``demand`` or ``realized_revenue``, so the reuse is partial,
and with 2 or 3 threads the runs of chunks split an offset's episodes
between processes.
"""

import hashlib
import multiprocessing
import os

import pytest

from refprice import harness
from refprice.cli import main

from oracles import write_csv_rowwise

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# name -> (command, config, overrides, output file, sha256)
CASES = {
    "curve": (
        "solve",
        "default.yaml",
        ["run.T=2000"],
        "curve.csv",
        "959df88d34cea787fd2f0f04215d25fc55d12aa9516b6324bd9d641d7fcb58ea",
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
        "32d5f8d33e5811fa7b4896cf042ee5132fac4c7e6e38e6151902d20c20f2b2c1",
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
    # Negative demands and a 0.0 reference.
    "episodes_two_price_gaussian": (
        "simulate",
        "two_price_gap.yaml",
        ["run.T=3000", "run.seeds=2", "noise.kind=gaussian", "noise.std=1.0"],
        "episodes.csv",
        "9395653eaa2a4f2161dc584eac9e1a7625ad7c5d054fb9e19fc2456d8159bc16",
    ),
    # Three noisy episodes past two writer chunks each.
    "episodes_two_price_noisy_long": (
        "simulate",
        "two_price_gap.yaml",
        ["run.T=40000", "run.seeds=3", "noise.kind=bounded_uniform", "noise.half_width=0.1"],
        "episodes.csv",
        "b7bb25aa248df072ee30512407dd18addd0f717891e058f4454c37ffc9b3ba69",
    ),
    "curve_long": (
        "solve",
        "default.yaml",
        ["run.T=40000"],
        "curve.csv",
        "9fe05687031e47e0ecd08bde4df5c52aec84bfe71cd5b88180a53d6a07a4db9b",
    ),
    "regret": (
        "sweep",
        "learning_sweep.yaml",
        ["run.T_list=[300,1000]", "run.seeds=3"],
        "regret.csv",
        "543e5771333b5b27730eebd1a2fe7edde89ac5038317426bffc6d5204a59a81a",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_matches_golden(tmp_path, name):
    command, config, overrides, filename, digest = CASES[name]
    args = [command, "--config", os.path.join(CONFIGS, config), "--out", str(tmp_path)]
    assert main(args + overrides) == 0
    data = (tmp_path / filename).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "name, threads",
    [
        ("curve_long", 1),
        ("curve_long", 2),
        ("episodes_two_price_noiseless", 1),
        ("episodes_two_price_noiseless", 2),
        ("episodes_two_price_noisy_long", 1),
        ("episodes_two_price_noisy_long", 2),
        ("episodes_two_price_noisy_long", 3),
    ],
)
def test_csv_golden_does_not_depend_on_threads(tmp_path, monkeypatch, name, threads):
    """Every output here has at least ``threads`` * ``CSV_CELLS`` rows, so
    ``--threads`` n forks n - 1 helpers, each for a run of about 1/n of the
    rows; ``--threads 1`` starts no process at all."""
    starts = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(process):
        starts.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    command, config, overrides, filename, digest = CASES[name]
    args = [command, "--config", os.path.join(CONFIGS, config), "--out", str(tmp_path)]
    assert main(args + ["--threads", str(threads)] + overrides) == 0
    data = (tmp_path / filename).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    assert len(starts) == threads - 1
    assert os.listdir(tmp_path) == [filename]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_gaussian_golden_is_repr_with_any_thread_count(tmp_path, monkeypatch, threads):
    """The golden is what the row-by-row ``repr`` writer makes of the run,
    and the numpy writer makes it too in 1, 2 and 3 processes: at a budget
    of 1,024 cells (128 rows of 8 columns) the 6,000 rows are 48 chunks, so
    ``--threads`` n forks n - 1 helpers."""
    command, config, overrides, filename, digest = CASES["episodes_two_price_gaussian"]
    args = [command, "--config", os.path.join(CONFIGS, config)]
    with monkeypatch.context() as rowwise:
        rowwise.setattr(harness, "_write_csv", write_csv_rowwise)
        assert main(args + ["--out", str(tmp_path / "repr")] + overrides) == 0
    starts = []
    start = multiprocessing.process.BaseProcess.start

    def counting_start(process):
        starts.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting_start)
    monkeypatch.setattr(harness, "CSV_CELLS", 1024)
    assert main(args + ["--out", str(tmp_path / "numpy"), "--threads", str(threads)] + overrides) == 0
    for name in ("repr", "numpy"):
        data = (tmp_path / name / filename).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
    assert len(starts) == threads - 1
