"""Golden digests: the exact report and overlay bytes of `brainsym detect`.

Each case writes a 257x257 phantom as PGM, runs the CLI's detect command
in-process and compares the sha256 of `<stem>.report.json` and
`<stem>.overlay.ppm` with a pinned value. A refactor or speed-up that
keeps these digests changes no output byte on these inputs; a change
that is meant to alter output must update the table and say why.
"""

import hashlib

import pytest

from brainsym import LesionSpec, PhantomSpec, generate, save_netpbm
from brainsym.cli import main

HEALTHY = {f"healthy-{seed}": PhantomSpec(seed=seed) for seed in (11, 12, 13, 14, 15)}

LESIONED = {
    "lesion-21": PhantomSpec(seed=21, lesion=LesionSpec(40, 128, 10, 60)),
    "lesion-22": PhantomSpec(seed=22, lesion=LesionSpec(-35, 100, 12, 50)),
    "lesion-23": PhantomSpec(seed=23, lesion=LesionSpec(30, 160, 8, -50)),
    "lesion-24": PhantomSpec(seed=24, lesion=LesionSpec(-45, 140, 14, 70)),
    "lesion-25": PhantomSpec(seed=25, lesion=LesionSpec(25, 90, 9, 55)),
}

WIDE_FLAGS = ["--axis-degree", "2", "--mirror-tol", "4", "--closing-radius", "4"]

# case -> (phantom, extra CLI flags)
CASES = {name: (spec, []) for name, spec in {**HEALTHY, **LESIONED}.items()}
CASES["lesion-24-wide"] = (LESIONED["lesion-24"], WIDE_FLAGS)

# case -> (sha256 of report JSON, sha256 of overlay PPM)
GOLDEN = {
    "healthy-11": (
        "fb312fbab20b6bb2899ec1a0005092bf50444258d4d989fbcddeb5b7a95d6637",
        "8e6b146ad1513d15db92de9749355bf83e84e0de666b1373c47ab53173a848f2",
    ),
    "healthy-12": (
        "fb312fbab20b6bb2899ec1a0005092bf50444258d4d989fbcddeb5b7a95d6637",
        "4ccc6e6e679eb26e98cb85c5564a37a830e032371f08baa0b9722c4bef215afa",
    ),
    "healthy-13": (
        "fb312fbab20b6bb2899ec1a0005092bf50444258d4d989fbcddeb5b7a95d6637",
        "8213a33598741b1c7e5e77c665a6572d5ac2c48f4f2704775c72c7b711b71ad6",
    ),
    "healthy-14": (
        "fb312fbab20b6bb2899ec1a0005092bf50444258d4d989fbcddeb5b7a95d6637",
        "3481652a673d9e73cf2e3bf4a6dcfb282ffb8d5e44698465e3c495d8c8896a7d",
    ),
    "healthy-15": (
        "fb312fbab20b6bb2899ec1a0005092bf50444258d4d989fbcddeb5b7a95d6637",
        "4005d3296dd0f469c265f9a61202f16d9f7de8cf73eab6a243258f2daf15e628",
    ),
    "lesion-21": (
        "745332308acff93a8e18a18e021c64aaea63bf854860c3b92592bd04fa71141a",
        "b6d63432f4fc87d074489bac3cc026974a2ee1ed72dff6285f7ade009be9e3a9",
    ),
    "lesion-22": (
        "31ae63515726fb59232753152a1891490a8373f4de7c1d0462abbe6fbb55d7e4",
        "11e4d2a2be124f50555e015c8e93ed1d1c06caf96d2018c0dde4ff5084f3fdc5",
    ),
    "lesion-23": (
        "664d44885adc5accaae7ba907182496e304d80bb5d53940f214481c9aab0d0f3",
        "baa68e9ff5c6b12bfb9e5616147b82dc5c05193f4d267d7bbd59b37262e6a714",
    ),
    "lesion-24": (
        "97793c30340856769fed578c81931e7f7743a9d0382ce328e04fbc24dca3a832",
        "d7e436fbe78fd7ef2a8cf0278b6cb177ef6c547150014508ebaa9c31b42983eb",
    ),
    "lesion-24-wide": (
        "e378de0b1d2458af6984b418715b51a946a4220699da2202f09db010a5043b0d",
        "6c840f8f193cec39c3cbbef3d6759106fdd93aef35a256d55afef08c0e0c390a",
    ),
    "lesion-25": (
        "24b1759ec700862371637cfb36227b61bb1e88efb6736a46d593ccd4a2959394",
        "437a06a972019e8877bc44dc834f999c6f41f81629120955ac461148272ff73d",
    ),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def detect_digests(spec, flags, tmp_path):
    img, _ = generate(spec)
    src = tmp_path / "input.pgm"
    save_netpbm(img, src)
    outdir = tmp_path / "out"
    assert main(["detect", str(src), "-d", str(outdir), *flags]) == 0
    return _sha256(outdir / "input.report.json"), _sha256(outdir / "input.overlay.ppm")


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
    spec, flags = CASES[name]
    assert detect_digests(spec, flags, tmp_path) == GOLDEN[name]
