"""Exact-path outputs pinned to their bytes, so any change to them fails loudly.

The binomial kernel builder, the exact chain's CSV and ``bisect``'s stdout
are deterministic.  A change that is meant to be byte-identical (a faster
build, an earlier stop) must leave these hashes as they are; a change that
moves a byte must update them and say so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from dagbroadcast import sigma
from dagbroadcast.cli import main
from dagbroadcast.model import AND2, MAJ3, convolve


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _kernel_sha(kernel: sigma.BinomialKernel) -> str:
    return _sha(*kernel.blocks, np.array(kernel.starts, dtype=np.int64), kernel.drop)


# (gate, delta, L_prev, n, rows): the kernel ``exact_chain`` builds for the
# step from a layer of L_prev into one of n, on its first ``rows`` rows
KERNELS = {
    "dense-maj3-half": (MAJ3, 0.15, 64, 64, 33, "e7b5dd978f287b65797060cf8ee6aaf41fbe4963d1a06c4e6c6a7974987c9885"),
    "dense-and2-n96": (AND2, 0.09, 96, 96, 97, "c9bc525fc26a8e05ef13dea1b576870f8a4caf58fc050a3251f267a8069a36ee"),
    "banded-maj3-n401": (MAJ3, 0.12, 400, 401, 201, "998e2faeea7179d123d00b3fd5b184a9f51812d1ce1699e81910bd48ad217eee"),
    "banded-and2-n401": (AND2, 0.09, 512, 401, 513, "19967de6fb0ee309d0c1a53ed5841d843d2c84b15a89341e65ba72fbc4d153db"),
    "banded-maj3-n4096": (MAJ3, 0.15, 4096, 4096, 2049, "819a49ccdb4a299cffc3aa1dfb89a9fd8dce47e05eea8aa22b6680c458d24d09"),
    "point-mass-and2": (AND2, 0.0, 400, 401, 401, "d3705b96683685486952da29f9bee3969e52abe1c4cc4aef7235143d7d207675"),
    "point-mass-maj3-n4096": (MAJ3, 0.0, 1024, 4096, 1025, "c06788609317e1dffaf1e28d59578abdb241808e03b54a4cfc3c529273f05356"),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_bytes(name):
    gate, delta, L, n, rows, expect = KERNELS[name]
    kernel = sigma.binomial_pmf_table(n, gate.curve(convolve(np.arange(rows) / L, delta)))
    assert _kernel_sha(kernel) == expect


CSV_RUNS = {
    "maj3-linear": (["--model", "maj3", "--delta", "0.15", "--schedule", "linear", "--depth", "120"], "4dd1739b660bd7a966e826af7873954d6299a833719451b4b904a3860c752463"),
    "andor2-const512": (["--model", "andor2", "--delta", "0.08", "--schedule", "const:512", "--depth", "60"], "09796e1bea7184e5a87c51fae150db79dd9505cbf7bd468a9244a32b1cb15d8e"),
}


@pytest.mark.parametrize("name", sorted(CSV_RUNS))
def test_exact_chain_csv_bytes(name, tmp_path):
    args, expect = CSV_RUNS[name]
    out = tmp_path / "chain.csv"
    assert main(["exact-chain", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expect


BISECT_RUNS = {
    "maj3-const128": (["--model", "maj3", "--schedule", "const:128", "--depth", "150"], "4fe673c16f93a498b23a35ccdfce7138b12340d195a4cad3cc416336ae2a6be2"),
    "maj3-const512-c0.005": (["--model", "maj3", "--schedule", "const:512", "--depth", "200", "--cutoff", "0.005"], "d0f3c7284e47ce3626cf1932a3e45f3ff607fd8b0571d13205017b7c45b54cdd"),
    "andor2-const128": (["--model", "andor2", "--schedule", "const:128", "--depth", "150"], "6a599255575f24fc19ed0e04c9098c22407b6bf7d5008d023a088df7f998760d"),
    "andor2-const512-c0.02": (["--model", "andor2", "--schedule", "const:512", "--depth", "200", "--cutoff", "0.02"], "6a599255575f24fc19ed0e04c9098c22407b6bf7d5008d023a088df7f998760d"),
}


@pytest.mark.parametrize("name", sorted(BISECT_RUNS))
def test_bisect_stdout(name, capsys):
    args, expect = BISECT_RUNS[name]
    assert main(["bisect", *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expect, out
