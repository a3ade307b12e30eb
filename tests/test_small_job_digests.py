"""Cross-process byte gate for small sampled jobs, through cli.main.

At 1 and 100 trials a sampled job's time is mostly its set-up: parsing,
checking the inputs, compiling the plan and opening the first block. The
SHA-256 digests below pin every report line but the timing record of such
jobs, so a change to that set-up cannot move a byte unnoticed: `fwt` with a
random and a fixed ray under each policy kind, `asc` at mixing 1 and below
with a tie and a zero priority, and empirical `signal`. A change that alters
these bytes on purpose must announce it and update the digests.
"""

import contextlib
import hashlib
import io

import pytest

from collapsim.cli import main

POLICIES = ("born", "forced:2", "biased:0.1,0.2,0.3,0.4", "scripted:1,7,3;fallback=forced:0")

JOBS = {
    **{
        f"fwt-{ray}-{policy.split(':')[0]}-{trials}": [
            "fwt", "--trials", str(trials), "--context", "3", "--policy", policy,
            "--seed", "5", "--per-trial", *(["--bob-ray", ray] if ray != "random" else []),
        ]
        for ray in ("random", "1,1,0,0")
        for policy in POLICIES
        for trials in (1, 100)
    },
    **{
        f"asc-{name}-{trials}": [
            "asc", "--trials", str(trials), "--labels", "a,b,c,d", "--priorities", priorities,
            "--norm", norm, "--mixing", mixing, "--seed", "11", "--per-trial",
        ]
        for name, priorities, norm, mixing in (
            ("tie-mixing1", "0.5,0.25,0,1", "1,1,1,0", "1"),
            ("tie-mixing0.4", "0.5,0.25,0,1", "1,1,1,0", "0.4"),
            ("one-mixing1", "1,2,0,0.5", "0,1,1,0", "1"),
            ("one-mixing0.7", "1,2,0,0.5", "0,1,1,0", "0.7"),
        )
        for trials in (1, 100)
    },
    **{
        f"signal-{name}-{trials}": [
            "signal", "--mode", "empirical", "--trials", str(trials), "--policy0", policy0,
            "--policy1", policy1, "--alice-basis1", basis, "--bob-basis", basis, "--seed", "17",
        ]
        for name, policy0, policy1, basis in (
            ("forced-biased", "forced:0", "biased:0.3,0.7", "x"),
            ("born-scripted", "born", "scripted:1,5,0", "z"),
        )
        for trials in (1, 100)
    },
}

DIGESTS = {
    "asc-one-mixing0.7-1": "0bf03a75248c3c9acf4e232e1e0bf0774afab0fae48918db7eb04783c2714af1",
    "asc-one-mixing0.7-100": "38ee29e9e8201648c11bfadb2a035481b57c17581c792ae3fd48dc35fb1cb4ee",
    "asc-one-mixing1-1": "89d2a829dfca976ad76a79ca2ad7f63c8fe44ecd83bb714e5c2e9f6906f5e089",
    "asc-one-mixing1-100": "401d5348f8b556d8f68769c51131e7a80ec15d4ae513640909a0625b5583cfb6",
    "asc-tie-mixing0.4-1": "02aeac99ad1b41abee4cc09f333a42fc95a49805486ff83da3180b76495efd81",
    "asc-tie-mixing0.4-100": "9c30ebea19e65e424a8fa0f11c768f04427e8f47edc228951e50256dd7acd8ce",
    "asc-tie-mixing1-1": "06a967ba0648afad6439995806afce1499bc28c2a3a25e458d713b51febafb49",
    "asc-tie-mixing1-100": "b4faf0aaef3025d6c9db37c4d37e02d2f0731c7d0a991aa39f3b90114651a63c",
    "fwt-1,1,0,0-biased-1": "72b9705dfba6537791bc5d3eaeb0c4aa722d807d40910122b5b1b573ae9eccfb",
    "fwt-1,1,0,0-biased-100": "8b3fbd295aee5e9866c2f3ddc15403c8f022174f59fdb77c32156f066dba6d55",
    "fwt-1,1,0,0-born-1": "5a461ec750ee42ca5947839e23ba728cb8bade39ea77ef3257181cf848de2a1b",
    "fwt-1,1,0,0-born-100": "a4378d88adff8c2dfe4f36ea52ce8f117c71ebc4fcecbfd3a78e3c6075fcf335",
    "fwt-1,1,0,0-forced-1": "e874d1876e25cab5ea1f5b8cb2860d00806ec89f5deba76b90f1e22ccf216c72",
    "fwt-1,1,0,0-forced-100": "db005783d1d90105adbd576548ff2dfbeecc077780cf8ec1bb176bc1314c6663",
    "fwt-1,1,0,0-scripted-1": "296d27d9215b11e51a10a8a932001d1105bd20e89e4b2438b64147fe04bcb979",
    "fwt-1,1,0,0-scripted-100": "0036260253652fcb4ff5429eda56b666b6d922c181a3e81777bb06a258537205",
    "fwt-random-biased-1": "89bfe614d8be13f9e4a1f4ec6010dc48b35f8d559038be7b89d33ce17af5e68d",
    "fwt-random-biased-100": "676d7c54081490d3b550d976fec7806192d6e8376f10632012c219da6ebe919c",
    "fwt-random-born-1": "d28f151713001f37bd0b42d859c084715c24ba0fa73c4ac045a51d55e06e5459",
    "fwt-random-born-100": "cac8887ec32856b7bd8301a45b27e029e12cb4c31789356c720f5ebaf85013b4",
    "fwt-random-forced-1": "120e49735b6d945950b4ac3710718dc5154a64f952d01ba5c00576f38e46aa64",
    "fwt-random-forced-100": "f45ef41f351175c0c649a22a3a7e554be4e24b18b93262d69cafba518c3acf2e",
    "fwt-random-scripted-1": "b28c936163874fa425fa19c9415483c4360081bfe10810f396ba6da23024b7a3",
    "fwt-random-scripted-100": "2642ccc84c989ffff6cbcb58330e382d2142cbde2b657aaad8d416f96a8ec7bd",
    "signal-born-scripted-1": "6714fcefa12a289fecf40514d6d8a9db31de8aa68ba3deed644338c52d90c838",
    "signal-born-scripted-100": "385a3ca9079b9b1f11ef5c1f5ac4bf57b06179ece466606d20c0c38663a29c46",
    "signal-forced-biased-1": "074f507ae5b2be5bf34dface8990045a463d11f452ff6500266da1699b8f85cc",
    "signal-forced-biased-100": "79102537b6f1c79ec6dd59685be74e40d464f9071ee44ba5f0c237e7b7268320",
}


def deterministic_bytes(argv: list[str]) -> bytes:
    """What cli.main writes to stdout for argv, but the timing record."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    lines = out.getvalue().splitlines(keepends=True)
    return "".join(line for line in lines if '"record": "timing"' not in line).encode()


def test_every_job_is_pinned():
    assert sorted(JOBS) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(JOBS))
def test_small_job_matches_pinned_digest(name):
    digest = hashlib.sha256(deterministic_bytes(JOBS[name])).hexdigest()
    assert digest == DIGESTS[name], name
