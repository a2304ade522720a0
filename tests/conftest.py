import hashlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

import einlab.cli as cli
from einlab import EnvironmentSpec, SystemAmplitudes

settings.register_profile("einlab", derandomize=True)
settings.load_profile("einlab")

PERFBENCH_METRICS = Path(__file__).resolve().parents[1] / "perfbench" / "metrics.py"


@pytest.fixture()
def perfbench_metrics(monkeypatch):
    """The benchmark's ``perfbench/metrics.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_metrics", PERFBENCH_METRICS)
    metrics = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, metrics)
    spec.loader.exec_module(metrics)
    return metrics


def bloch_environment(spins) -> EnvironmentSpec:
    """Environment from (g, cos_theta, phi) triples, one per spin, with
    alpha = cos(theta/2) and beta = e^{i phi} sin(theta/2)."""
    g, alpha, beta = [], [], []
    for coupling, cos_theta, phi in spins:
        half = 0.5 * math.acos(cos_theta)
        g.append(coupling)
        alpha.append(complex(math.cos(half)))
        beta.append(complex(np.exp(1j * phi) * math.sin(half)))
    return EnvironmentSpec(g, alpha, beta)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def assert_golden_digests(tmp_path, table):
    """Run each config text of ``table`` through the CLI, check that its CSV
    opens with the config's provenance line, and check the SHA-256 of the
    rest of the CSV (its body) against the digest the text maps to; return
    the CSV paths in order.  The version lives in the provenance line only,
    so a version bump moves just the digests whose bodies changed."""
    outputs = []
    for i, (text, digest) in enumerate(table.items()):
        config = tmp_path / f"golden{i}.cfg"
        config.write_text(text)
        out = tmp_path / f"golden{i}.csv"
        assert cli.main([str(config), "--output", str(out), "--quiet"]) == 0
        provenance, newline, body = out.read_bytes().partition(b"\n")
        assert provenance.decode("utf-8") == cli._provenance(cli.parse_config(text)), text
        assert newline and hashlib.sha256(body).hexdigest() == digest, text
        outputs.append(out)
    return outputs


def spin_environment(*spins) -> EnvironmentSpec:
    """Environment from (g, alpha, beta) triples, one per spin."""
    return EnvironmentSpec([s[0] for s in spins], [s[1] for s in spins], [s[2] for s in spins])


def coupling_sums(env: EnvironmentSpec) -> np.ndarray:
    """sum_j g_j * s_j for every bit pattern of the spins (bit 0 -> +1, bit 1
    -> -1), indexed by pattern.

    Built by doubling: spin j is the top bit of the first 2^(j+1) patterns,
    so each entry adds the same +-g_j in the same order as a loop over bits.
    """
    total = np.empty(2**env.n)
    total[0] = 0.0
    size = 1
    for g in env.couplings():
        np.subtract(total[:size], g, out=total[size : 2 * size])
        np.add(total[:size], g, out=total[:size])
        size *= 2
    return total


def random_environment(rng: np.random.Generator, n: int) -> EnvironmentSpec:
    """Environment drawn from a caller-owned generator (distinct from the seeded builder)."""
    return bloch_environment(
        (
            float(rng.uniform(0.05, 1.0)),
            float(rng.uniform(-1.0, 1.0)),
            float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        for _ in range(n)
    )


def random_system(rng: np.random.Generator) -> SystemAmplitudes:
    half = 0.5 * math.acos(rng.uniform(-1.0, 1.0))
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return SystemAmplitudes(complex(math.cos(half)), complex(phase * math.sin(half)))


env_spins = st.tuples(
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
)

environments = st.lists(env_spins, min_size=0, max_size=8).map(bloch_environment)

small_environments = st.lists(env_spins, min_size=0, max_size=5).map(bloch_environment)

times = st.floats(min_value=-50.0, max_value=50.0)

system_amplitudes = st.builds(
    lambda cos_theta, phi: SystemAmplitudes(
        complex(math.cos(0.5 * math.acos(cos_theta))),
        complex(np.exp(1j * phi) * math.sin(0.5 * math.acos(cos_theta))),
    ),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
)
