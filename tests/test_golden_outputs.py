"""Byte-identity of seeded CLI outputs.

Each output below is produced in-process through `netepi.cli.dispatch`, at
small sizes, serially and with relative paths (manifests echo the paths
they were given), and its SHA-256 is compared with the digest the same run
gave when it was recorded. A digest changes only with a declared output
version (see CHANGES.md). One more digest pins an API run at the size the
`sirs_endemic` benchmark times.
"""

import hashlib
import json

import pytest

from netepi.cli import EXIT_OK, dispatch
from netepi.dynamics import RateParams, gillespie_well_mixed

GOLDEN = {
    "exp02/exp02_table.csv":
        "512a41308521a0c29706b6191bee4512c80ac51937332d164fcd48d74b6d86f5",
    "exp02/exp02_manifest.json":
        "41fa56a68072f49d61117e6d1486ca6be519e8b1c4070eee22c6c0f58209e748",
    "exp03/exp03_table.csv":
        "b3838db6177e1827ada35a07773b22f19da1a3f9dfd69bb348dc7cf7080612cd",
    "exp03/exp03_manifest.json":
        "8660ebf1380afd27efdcb684e4911847d0fb44f41448050d00db134c671250a4",
    "exp04/exp04_table.csv":
        "f8e138809e59e93a15b82b4330d54e8bc11394f5218bfd6464fb8aea4de0c81f",
    "exp04/exp04_manifest.json":
        "afe9282946386564a9332f42e8924ccc0ee2a6c4b21c3b845a15ce392b6ab135",
    "exp04/exp04_curves.csv":
        "a509dc40a3964891bc581506dccf66d0ce2449bfc1f015e689650583be121f93",
    "sweep/sweep_table.csv":
        "8d8dd1d74416cd17f3e6b8aaf1e502766be7c4e6581fce1b326dc0e08d586179",
    "sweep/sweep_manifest.json":
        "32f4e775833a6cc1bc45a90ecd0a099bf00ddd22b671f7c57c0441ea42c6be18",
    "er.txt":
        "dfacacd87b3c2b240fcb5979bcd8b5e6338292a7740b2080bb65310777f92c09",
    "ws.txt":
        "5cd9ec71fd16cf9c2e32596645455c03b6b3829b8bb12a8a5fc83e684002c828",
    "ba.txt":
        "60360a5c7526e89bcc432408fe11b5077445c574224ea8253164fc0f63115555",
    "edge_list/trajectory.csv":
        "089a0440ef5ddb31e03fbee93f85bbbab241c6ea3e63222751bb25209aee85c9",
    "edge_list/manifest.json":
        "251afc421f95fe536571953c56f6cca2e0921aeca891c3a6e62e4cee324df806",
    "edge_list/summary.json":
        "2623e3d2104b4268bccdeb7b7bb102b01f66d9ac9d1f06df19ecb5b62ff11a38",
    "well_mixed/trajectory.csv":
        "244dc3fd735500239b7bb830532a517f2d041ba17942b7a857500f4d4df4e3bb",
    "well_mixed/manifest.json":
        "3fb2cbe46889616bf01336de36b66beaccfa4a1337d8d3141644283985b46ab4",
    "well_mixed/summary.json":
        "9c923ffd85b3c560707cda66510ec9793b323ebdf18a1de5202735e371793efd",
    "ode/trajectory.csv":
        "e3a904f6ac9a8a92df5125db76740a1f0d0d510a6671e56215ac2b5db59c479b",
    "ode/manifest.json":
        "e49db769723532d90fa955932a0b371440a83af21ea766cd9e5d10c9a426f9b9",
    "cp/t.csv":
        "3dd10f6291d600875374e2d572f18edaf974baf48db1ebb3020a1a2420212479",
    "cp/manifest.json":
        "85b0ae8d28992a27738debf767c2f7f34246726faf027c63b9153c975f41a6ab",
    "cp/s.json":
        "a95b75acf2481d33f96331910dac4727852059f1b30fb25796e88d2e05ac6ca5",
    # 4 of 80 nodes is the ode run's 0.05 fraction, so the same curve.
    "odec/t.csv":
        "e3a904f6ac9a8a92df5125db76740a1f0d0d510a6671e56215ac2b5db59c479b",
    "odec/manifest.json":
        "754998eb233fb6bcbe04180b9c0db3fcc26904f622041d0905cdcf4e78528dbb",
}

SWEEP = {
    "networks": [
        {"er": {"n": 60, "p": 0.1}},
        {"ws": {"n": 60, "k": 4, "p_rewire": 0.2}},
        {"ba": {"n": 60, "m": 3}},
        {"edge_list": {"path": "ba.txt", "compact_ids": True}},
        {"well_mixed": {"n": 60, "k_avg": 6}},
    ],
    "betas": [0.1, 0.4],
    "gamma": 1.0,
    "alpha": 0.1,
    "initial_fraction": 0.05,
    "t_max": 4.0,
    "replicates": 2,
    "base_seed": 3,
    "intervention": {"t": 1.0, "action": "degree_cap", "cap": 3, "seed": 2},
    "measure_from": 2.0,
}


def _simulate_config(network, **extra):
    doc = {
        "network": network,
        "rates": {"beta": 0.5, "gamma": 1.0, "alpha": 0.1},
        "init": {"fraction": 0.05, "seed": 11},
        "t_max": 4.0,
    }
    doc.update(extra)
    return doc


SIMULATE = {
    "edge_list": _simulate_config(
        {"edge_list": {"path": "ba.txt"}},
        interventions=[{"t": 1.5, "action": "thin", "target": 0.05, "seed": 4}],
    ),
    "well_mixed": _simulate_config({"well_mixed": {"n": 80, "k_avg": 5}}),
    "ode": _simulate_config({"well_mixed": {"n": 80, "k_avg": 5}}, engine="ode", dt=0.05),
    # An init count, a default alpha and output paths: the manifest's
    # other shapes.
    "cp": {
        "network": {"ba": {"n": 60, "m": 3}},
        "rates": {"beta": 0.5, "gamma": 1.0},
        "init": {"count": 3, "seed": 5},
        "t_max": 4.0,
        "interventions": [{"t": 1.0, "action": "degree_cap", "cap": 2}],
        "output": {"trajectory": "cp/t.csv", "summary": "cp/s.json"},
    },
    "odec": _simulate_config(
        {"well_mixed": {"n": 80, "k_avg": 5}}, engine="ode", dt=0.05,
        init={"count": 4, "seed": 11}, output={"trajectory": "odec/t.csv"},
    ),
}


def produce_outputs() -> dict[str, bytes]:
    """Run every covered command in the current directory; return its files."""
    commands = [
        ["generate", "--model", "er", "--n", "50", "--p", "0.1", "--seed", "7", "--out", "er.txt"],
        ["generate", "--model", "ws", "--n", "50", "--k", "4", "--p-rewire", "0.3",
         "--seed", "7", "--out", "ws.txt"],
        ["generate", "--model", "ba", "--n", "50", "--m", "3", "--seed", "7", "--out", "ba.txt"],
        ["exp02", "--densities", "0.05,0.1", "--k-avg", "6", "--beta", "0.4", "--replicates", "2",
         "--t-max", "3", "--base-seed", "1", "--out-dir", "exp02"],
        ["exp03", "--triggers", "0.5,1.0", "--n", "120", "--m", "4", "--cap", "3", "--beta", "0.4",
         "--replicates", "2", "--t-max", "3", "--base-seed", "2", "--out-dir", "exp03"],
        ["exp04", "--n", "60", "--replicates", "2", "--t-max", "8", "--base-seed", "3",
         "--out-dir", "exp04"],
    ]
    with open("sweep.json", "w", encoding="utf-8") as fh:
        json.dump(SWEEP, fh)
    commands.append(["sweep", "sweep.json", "--out-dir", "sweep"])
    for name, doc in SIMULATE.items():
        with open(f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        commands.append(["simulate", f"{name}.json", "--out-dir", name])
    for argv in commands:
        assert dispatch(argv) == EXIT_OK, argv
    out = {}
    for rel in GOLDEN:
        with open(rel, "rb") as fh:
            out[rel] = fh.read()
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    mp.chdir(tmp_path_factory.mktemp("golden"))
    try:
        yield produce_outputs()
    finally:
        mp.undo()


@pytest.mark.parametrize("rel", sorted(GOLDEN))
def test_output_is_byte_identical(outputs, rel):
    assert hashlib.sha256(outputs[rel]).hexdigest() == GOLDEN[rel]


# The raw bytes of times, S, I and R, in that order, of the well-mixed SIRS
# run at n = 10**4, k_avg 10, beta 0.3, gamma 1, alpha 0.2, t_max 100, seed 1.
WELL_MIXED_SIRS = "be01877a9f735e39e5cbabd17fc78ee9f9c79fb550eead9e39c7f05d26d49e49"


def test_well_mixed_sirs_run_is_byte_identical():
    traj = gillespie_well_mixed(10_000, 10.0, RateParams(0.3, 1.0, 0.2), 0.01, 100.0, 1)
    digest = hashlib.sha256()
    for column in (traj.times, traj.s, traj.i, traj.r):
        digest.update(column.tobytes())
    assert len(traj) == 337_905
    assert digest.hexdigest() == WELL_MIXED_SIRS
