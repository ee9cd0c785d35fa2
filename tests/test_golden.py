"""Golden digests: the exact report and overlay bytes of `brainsym detect`.

Each case writes a phantom as PGM, runs the CLI's detect command
in-process and compares the sha256 of `<stem>.report.json` and
`<stem>.overlay.ppm` with a pinned value. A refactor or speed-up that
keeps these digests changes no output byte on these inputs; a change
that is meant to alter output must update the table and say why.

The phantoms are 257x257 but for one 513x513 lesioned case, whose
lesion edge spans rows 236..276 and so crosses row 256: a seam of the
64-row smoothing and Sobel blocks (_block_rows(513) = 64) and of the
128-row blocks of the 3x3 median. One case takes a 5x5 median window,
so it runs the rank select instead of the 3x3 network.
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
CASES["lesion-21-median5"] = (LESIONED["lesion-21"], ["--median-window", "5"])
CASES["lesion-31-513"] = (
    PhantomSpec(width=513, height=513, seed=31, semi_axis_x=200, semi_axis_y=240,
                lesion=LesionSpec(80, 256, 20, 60)),
    [],
)

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
        "8694956d90e8cb15484ac8e6d79adea95bdc2bd4e8b41ed5c6a3dcab7fae0f88",
        "b4d86d280fcdb7fcd092a99ea06733abc5b01f9e39e0ae42e578f36df156f76b",
    ),
    "lesion-21-median5": (
        "ae32097de5fa1960de24e37d1b63eaf40352cfebd5461cfa802eea70c6ef5cb8",
        "841703ecd7c08dfa05d163b60a043fd6d007cc2e33a107a26563a3ea04f9236f",
    ),
    "lesion-22": (
        "08c869aad39455ec80d7bc4a06656fb9b77c0b45a443d38ec5959990097b3f3f",
        "cace37b20dfda8298f1fe7a334d537582ca5d31e49a5c56fa106858826ad5e07",
    ),
    "lesion-23": (
        "49c23ddcde2a7a82697a0a5668835c1bb02657cd40de92d2cf748df859d22537",
        "5fc3d9ab9d056422881c967c4418c8ddf8551eb6a3c50c59b457ea750b6711bc",
    ),
    "lesion-24": (
        "a6228cc77b51cf2c28666150aa21ce5c629a891c9dd1f5e434fc1cdbf9d85399",
        "ce7e0ef45bd33cde209a269655dfaf87c8749ccfbfc6b9340d64bc39932bab98",
    ),
    "lesion-24-wide": (
        "b53437eed8cceed2d4bd24557f8b9bdc2acf4e5943ac8d8aacf40b29b9123b4b",
        "ce7e0ef45bd33cde209a269655dfaf87c8749ccfbfc6b9340d64bc39932bab98",
    ),
    "lesion-25": (
        "bace43c44c08c9490d038e629aa19a406f1e162b5288851face48817f93c77f0",
        "2a9701360e73b61b030a7b5d876e2814c95f098369494597efa1a71d25c85452",
    ),
    "lesion-31-513": (
        "e38e084b5afd02d8c8e92e345bbfd6f92087f0fd084f5969dba639f85d55a1ba",
        "71a79d6a73c4fc8f93cbe3135acc091c8cb973b38fcb159d7b8bc6bf2dc4f3f9",
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
