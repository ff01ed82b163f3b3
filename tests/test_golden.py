"""Artifact bytes of every shipped config, pinned to recorded sha256 digests.

Each config in configs/ runs through cmd_run with iterations capped at CAP
(a rate_window is rescaled to [CAP/10, CAP]) and, where states are kept,
through cmd_audit; sweep_gamma.json runs as a sweep, whose index.csv and
every point's trace.csv and summary.json are pinned.  The digests below were
recorded once from the code and are literals on purpose: a change that moves
any artifact byte must re-record them and say why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bregiter.harness import cmd_audit, cmd_run, cmd_sweep

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CAP = 3000
FILES = ("trace.csv", "summary.json", "states.npz", "audit.json")
SWEEP = "sweep_gamma"

DIGESTS = {
    "affine_accel": {
        "trace.csv": "7c08a8394561d9bb7faff79ca72014475f8c9f09b567a4f7c9aab72fc1722c56",
        "summary.json": "a602f24b1b2c6f028a41b7581881ddfa605db810e5f6602403e516d8fa109db3",
        "states.npz": "513abea94c99ce5b413aa85eb5808b268f82754c6774e46803e5be74a6d88cb9",
        "audit.json": "48aed6d32e91037b7ebc305238b00e117788d680696df20a5ddfce05bfbed539",
    },
    "affine_adversarial_scaled": {
        "trace.csv": "f99ad3c10b53d84237f9261b4ad68f574a531ea75e2742e215fb940b7935b18f",
        "summary.json": "bf5b6aceb9697dc55d48468f1904afe8eafa567f806c2f660cd04d4757192c43",
        "states.npz": "6225bc837c4b28540e5b3934d34963afa1bc98ddf013038661b4cf870a2c6763",
        "audit.json": "bf7a3d282c4689005997d9d65147d5e998a43c461b53939e340c6173d8ff14fb",
    },
    "affine_adversarial_unscaled": {
        "trace.csv": "02be855c128f6117074242c5e69c7b9a3f8d768189e4fc1c3630e659f2ca6500",
        "summary.json": "3f79a17bed8917596feb340dd3ecf090b0ca9f1f863b08a3b1769bad9d052bb0",
        "states.npz": "528302ca15e80c0ae7a4a72f17a752761b9919ae2c3b2f4005d23509ce325d4a",
        "audit.json": "c43b9e620db2f74488b55ba30dc5f6b5827d057a22400398107e9cf3f6bdaf5f",
    },
    "affine_random_noise": {
        "trace.csv": "d559c9ad9d94f9616bca940378380ea59737aa7d480af4e43a90b635a7ed051f",
        "summary.json": "1548910e755a0e5e964c6a9a5f2687c089389f959d8751f6cb3d92616270cfee",
        "states.npz": "a86c4a7d3058cb1984ae9e72492729e529d1cc0f9229b77cc17d22badce483a3",
        "audit.json": "7afea4032cac6ea3b6490138c39b441df169954c3831bfbba7cab960f545597e",
    },
    "affine_rotation": {
        "trace.csv": "df0771ea317a2192e8f15821f00aef74d4424de631750ad51ef0e4126cb7587d",
        "summary.json": "ae5d151c5e9df7de7b50374a00663b90811e6d8bf063b0938db2f85030e15a14",
        "states.npz": "69f0b20cabb8ebe40c7ac0bb3ac64d550153654a79cb7c7f5ba488a2b3ce2465",
        "audit.json": "b3d6eb3e88963cb730eadf6841815ba88ac87df9d28215184c597efdc55a5f44",
    },
    "bellman": {
        "trace.csv": "31256b874c3e8e5ac98c648e233a52f0342c861334cb0e3296ecdbd97b5cfaae",
        "summary.json": "be264dc82fb95777dead886e5362a3eefc95aea50b87d49e22ab4ef77416f21d",
    },
    "bellman_constant": {
        "trace.csv": "05e5e3305243574cce10fed9e2cbd9378deb660d97ab493d9bc02ed220ef0fc6",
        "summary.json": "8bc65d8dd494136054e56ada9a12c9e3529697a7ad65ae510619c0210ed86c2c",
        "states.npz": "58a9a14d07a2e003ff56b930c7bd2546e965b815080fbe4a0e6db92ed080829a",
        "audit.json": "b234107b898e37db61ff1aac2f1ba8759786e4aabf0492b2d987fa08140eb80a",
    },
    "exp_gradient": {
        "trace.csv": "a637208ef8ddbb03ae0596fc84ae5ca4f1d0815012978d8351118411ccfe029d",
        "summary.json": "b0569840ec2c0bfc134f81e174d6e71de31ff5db1612d48740cde03ca4e560a8",
        "states.npz": "019768ccce6289923bf75671c6d278d3ad2c891fb859488dd58a563ac3fd2061",
        "audit.json": "70eb14f702669d89f2db3475f9416fa2473af9e2782b751b1ee92e86d44dd369",
    },
    "gradient_step": {
        "trace.csv": "c018949b8c9a2ec633df3c6317f7671020266dc666da5eb6b51377ea0c6baf9a",
        "summary.json": "b3dafef6dc8c701f6292ba60534e4eb439698ca623d91889fdde1dd538ae575e",
        "states.npz": "cce8277df262f864050335731356c81b69856ee26c4ec2bcc290e0ba2ed50d7d",
        "audit.json": "1220ec0ea33e7d1eebaa7d0cfdc04259ca8f6246c08c8c8c55cd95c5fed092f5",
    },
    "quadratic_colinear": {
        "trace.csv": "ad088c940191aca935c065198c0901d491b74a210fdef2685dac3456f59865a1",
        "summary.json": "27a5cf1320d874e6f81482db0aaa0726201c17b3e9841e3b906d1de6b623ee31",
        "states.npz": "513abea94c99ce5b413aa85eb5808b268f82754c6774e46803e5be74a6d88cb9",
        "audit.json": "5913a510937bb9bcb90130a0ad8a19f6a7728b3e4c34fca5ae65f5f7c60d8b3f",
    },
}

SWEEP_INDEX_DIGEST = "b40440838f4fc033a8d3b5f9ba61d41e23599643e573efb22e3ce6330ab59892"

#: sweep point directory -> digests; points that differ only in seed share trace.csv bytes
SWEEP_POINT_DIGESTS = {
    "118af65de326": {
        "trace.csv": "eb3b0d5ddc462cbe6a8af219df43959f65a0732d2643fe2e078fecd72e1058bd",
        "summary.json": "4174e05be8c0f460b48fa7956ce1a7ebda630ed8a12de9e29a715d1901eef95f",
    },
    "15379e6fd244": {
        "trace.csv": "af09488ac4c320ccbceb7e18ee6fa71f1ba467c5cfbd615babfcf09ae8e0133f",
        "summary.json": "ad45c0910d440b2b7c7518187bf8e1bd7ca49e34216610f266c18fd7ae2a6257",
    },
    "951064fe995e": {
        "trace.csv": "af09488ac4c320ccbceb7e18ee6fa71f1ba467c5cfbd615babfcf09ae8e0133f",
        "summary.json": "a1b9bf31e04c0d12a83d94e1b8e50b51f112878851e03565fe581dcaf99b1211",
    },
    "b806aa96e57b": {
        "trace.csv": "522f24a9b71b9c13681472b0f15251ab6b32792499375f6a3513b06314c7eddc",
        "summary.json": "afe405e7fcaa2b8f68faca8d478256476fcbcae47f4774a50d9d9672b6e9ee84",
    },
    "d89771f08769": {
        "trace.csv": "eb3b0d5ddc462cbe6a8af219df43959f65a0732d2643fe2e078fecd72e1058bd",
        "summary.json": "d3e469d4d3e9abda5e123bcda9da595d43999121c2345a378c880edff65706b6",
    },
    "ef6485c21e46": {
        "trace.csv": "522f24a9b71b9c13681472b0f15251ab6b32792499375f6a3513b06314c7eddc",
        "summary.json": "3f838b96bad5c4310f70f609ebb603dff94879e6f34b553d8f5887aa56a94fc5",
    },
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def capped(name):
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    if raw["iterations"] > CAP:
        raw["iterations"] = CAP
        if "rate_window" in raw:
            raw["rate_window"] = [CAP // 10, CAP]
    return raw


def run_digests(name, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(capped(name)))
    out = tmp_path / name
    assert cmd_run(str(path), str(out), quiet=True) == 0
    assert cmd_audit(str(out), quiet=True) == (0 if (out / "states.npz").exists() else 3)
    return {f: sha256(out / f) for f in FILES if (out / f).exists()}


def test_every_shipped_config_is_pinned():
    assert sorted(DIGESTS) + [SWEEP] == sorted(p.stem for p in CONFIGS.glob("*.json"))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_run_artifacts_match_recorded_digests(tmp_path, name):
    assert run_digests(name, tmp_path) == DIGESTS[name]


def test_sweep_index_matches_recorded_digest(tmp_path):
    out = tmp_path / "sweep"
    assert cmd_sweep(str(CONFIGS / f"{SWEEP}.json"), str(out), quiet=True) == 0
    assert sha256(out / "index.csv") == SWEEP_INDEX_DIGEST


@pytest.mark.parametrize("parallel", [1, 2])
def test_sweep_point_artifacts_match_recorded_digests(tmp_path, parallel):
    out = tmp_path / "sweep"
    assert cmd_sweep(str(CONFIGS / f"{SWEEP}.json"), str(out), parallel=parallel, quiet=True) == 0
    points = {d.name: {f: sha256(d / f) for f in ("trace.csv", "summary.json")} for d in out.iterdir() if d.is_dir()}
    assert points == SWEEP_POINT_DIGESTS
