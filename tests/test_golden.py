"""Golden digests: the exact bytes the command line writes for fixed inputs.

Each digest is the sha256 of one command's stdout under one rule.  They were
recorded from the implementation that still multiplied ``Fraction``s at
every step, so any change to the transition kernel, the enumerator, the
chain solver or the seeded sampler that moves a single public byte fails
here.  Regenerate them only when an output is meant to change.
"""

import hashlib
import random

import pytest

from paritydie import MutationRule, absorption_frequencies, scenario
from paritydie.cli import EXIT_OK, format_sequence, run

COMMANDS = {
    "enumerate-json": ["enumerate", "--depth", "10"],
    "enumerate-csv": ["enumerate", "--depth", "10", "--format", "csv"],
    "chain-json": ["chain"],
    **{
        f"chain-csv-{section}": ["chain", "--format", "csv", "--report", section]
        for section in ("verdict", "classes", "matrix", "absorption")
    },
    "table-json": ["table"],
    "table-csv": ["table", "--format", "csv"],
    "simulate": ["simulate", "--tosses", "3", "--runs", "2000", "--seed", "7"],
    "simulate-emit": ["simulate", "--tosses", "40", "--runs", "20", "--seed", "7", "--emit"],
}

GOLDEN = {
    "none enumerate-json": "7440b4c411b28cfe408a9bf73d3b4c1f93b19c58b9ba8d69a264247bd87f8711",
    "none enumerate-csv": "608c86043ebd54d709a6c3a7662d102aec092501d70214f5ad736cd5879d54a9",
    "none chain-json": "5f3d759f8f7b8e4b133856838da4ee8d9ccaaeba64f24db2ca61d40a566d9621",
    "none chain-csv-verdict": "b62cbefa22962f587959653ffd4e37e38ae6b1d44216ff83fb34fd7bedc3f1c0",
    "none chain-csv-classes": "c170f363d8315b88ad5c7a8d4bc168fc351b3afe01d09ba296ba9c474edb5aed",
    "none chain-csv-matrix": "e489d5ac2a9454caa0afcfc33661ceaf00e43a20bcdcc845e763a654f5f59a09",
    "none chain-csv-absorption": "081865ab9f908cb44126228a52d1228b05ca8f1da1620d982b1c82d2a636126a",
    "none table-json": "eb2831165fd9c76923890f31d6f46c855dad38035ee1e300204f3872f793b1b7",
    "none table-csv": "8bcfaaf6282bc5262d95a893cc715b55e93b997bc15eeeb36738fa2d4269c7e2",
    "none simulate": "7377797e548a9ef61ed60d8e0999d1bb4403c7848cb046c54a29eefa247165c9",
    "none simulate-emit": "09f3589735f2146c639701ea4c959187f1afcf49929be50512581c1694d70582",
    "copy enumerate-json": "cd96e55a16239e444b070d2eb21eeae29c1118ca007808fb8dfead77d5cc3a8d",
    "copy enumerate-csv": "34e8d86fbc8e582af782ca7b9227e21991441757a9da485f744993158b8bc455",
    "copy chain-json": "9e25d62b2bbdfa36f34dc93bcafd27e072214b76b8a04715b9e399b94190b688",
    "copy chain-csv-verdict": "df0765068dd5ab5482a660e053c9f369b15611055da48e64feb65af05eee1d93",
    "copy chain-csv-classes": "84ea9fa7ef5791c963e54a094e1e3a3ef9b1fa6dab22ce5cf31c540d07ea6971",
    "copy chain-csv-matrix": "f31d98bbd3e4c0e7f0ed6debd6773a344f14be58a528bf4195874d174ce57794",
    "copy chain-csv-absorption": "f1b5ad10631d54899056248040ec6569c61566c02ae2a51f450ffb1f2a62663b",
    "copy table-json": "724518cfbb12466a2d2f9db17e539fe591eb4abd8e80e2cd24b386de35115a01",
    "copy table-csv": "681ff07d0220828c54c55bc762d5c69d8fcf30526bf11b6ae1e56c52204f2a5d",
    "copy simulate": "d7e99870e0ce3ce2128f4237698417edda7eaeae29aadefc6f4b29aaf4825be3",
    "copy simulate-emit": "d1d0bb7d6029e01b8e47dca535889fa45afa038a1597d854c79b4e430126904b",
    "increment enumerate-json": "986d2e4116c73a3ee9160c163dcc8ef24be2a9deaa87305fdd9097308e732cf1",
    "increment enumerate-csv": "bbd2fadc79757199f34f2778d8239a5007655e8b9d26f306e62bd49b841ca7d7",
    "increment chain-json": "29bbe00f1ebe9b985376a1677f886db4f1f2d9c249e796cb6870a943477c879b",
    "increment chain-csv-verdict": "6c88ab49808fb466e0fcabd95dec5eacf61b75f1799df2ea71ae48c1b586308f",
    "increment chain-csv-classes": "7dfce621237979ba672a7bd2a1f561dd81a4ddaf8d136fdafd5bcfd14f5f2cfe",
    "increment chain-csv-matrix": "4b5e28449e8ab55cb581586ba48527c64bb8cbd66c6aa90355aa6ddf593709df",
    "increment chain-csv-absorption": "e903f7c93def42aed8d0dc32179093f0759d618df1adeea85fa144423a0ea1ca",
    "increment table-json": "968f93b3acae1ecbc37fd7bfa1e4ea25a52f5f8398932ff836af446acb167119",
    "increment table-csv": "0079846c700c68a8afa8dc0f1707b4055ead3b6d659902cf934a2353b967dd42",
    "increment simulate": "2642a526491673b29e6b13d3df303d4e2794684b70b9ff5ab06d977190cde379",
    "increment simulate-emit": "af55b75b6e0429d3ab9f5776327a1173ec680ee99411be098bb7c26ec61e45c1",
}


def stdout_digest(capsys, argv: list[str]) -> str:
    assert run(argv) == EXIT_OK
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_every_command_and_rule_has_a_digest():
    assert set(GOLDEN) == {
        f"{rule} {name}" for rule in ("none", "copy", "increment") for name in COMMANDS
    }


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_stdout_matches_golden_digest(capsys, key):
    rule, name = key.split()
    assert stdout_digest(capsys, COMMANDS[name] + ["--rule", rule]) == GOLDEN[key]


# absorption_frequencies tallies at seed 7, recorded from the sampler that
# still stepped each absorption run in its own loop: (rule, runs, max_steps)
# -> (counts, unabsorbed, total_steps).
ABSORPTION_GOLDEN = {
    ("copy", 2000, 10_000): (
        {(0, 0, 3): 234, (1, 0, 2): 754, (2, 0, 1): 741, (3, 0, 0): 271}, 0, 10967
    ),
    ("increment", 500, 10): ({}, 500, 0),
    ("none", 500, 10): ({(0, 3, 0): 500}, 0, 0),
}


@pytest.mark.parametrize("key", sorted(ABSORPTION_GOLDEN))
def test_absorption_frequencies_match_golden_tallies(key):
    rule, runs, max_steps = key
    sample = absorption_frequencies(MutationRule.from_name(rule), runs, 7, max_steps=max_steps)
    assert (sample.counts, sample.unabsorbed, sample.total_steps) == ABSORPTION_GOLDEN[key]


# ``test`` on fixed toss streams: the three scenarios and a 3,000-toss stream
# drawn from random.Random(3000), each at two nulls and in both formats,
# plus one one-sided Bonferroni replay.  Recorded from the replay that still
# called ``z_score`` once per prefix and built the JSON with
# ``json.dumps(indent=2)`` alone.
def _toss_stream(name: str) -> str:
    if name.startswith("scenario"):
        return format_sequence(scenario(int(name[-1])))
    rng = random.Random(3000)
    return "".join("EO"[rng.random() >= 0.5] for _ in range(3000))


TEST_COMMANDS = {
    **{
        f"{stream} {p0} {fmt}": (stream, ["--p0", p0, "--format", fmt])
        for stream in ("scenario1", "scenario2", "scenario3", "stream3000")
        for p0 in ("1/2", "1/3")
        for fmt in ("json", "csv")
    },
    **{
        f"stream3000 1/3-one-sided-bonferroni {fmt}": (
            "stream3000", ["--p0", "1/3", "--one-sided", "--bonferroni", "--format", fmt]
        )
        for fmt in ("json", "csv")
    },
}

TEST_GOLDEN = {
    "scenario1 1/2 csv": "8a1c3cdb1acce8dcb914f7415947ad005d7dc41f5c4256486c2b7c7aead7421a",
    "scenario1 1/2 json": "84bdc1bc12cf06c9fdd1baa41edf8c39ba3ae87e37f29cafd2c5fe95d04d0e83",
    "scenario1 1/3 csv": "2af06ec5048e444ca4abeb598b4c458800ed03c7a42134eb26067d9ffa9c69c3",
    "scenario1 1/3 json": "e4d345bb354b21e346a79ba7650d4535de2652a7cdbd90e8d9d74664b787874f",
    "scenario2 1/2 csv": "26a8dca013734372b5ce9b8a03358e6a55a4490d0f94b28a0bbd9897095899bf",
    "scenario2 1/2 json": "3a9400c43d310e7d3063d19bac253e0ee244de18ae8c6b938651a7686d63ab2c",
    "scenario2 1/3 csv": "3d24bb2ed8e01d6dde6592c54ca2da90ac9a357084ec1a001643b99d68d480bc",
    "scenario2 1/3 json": "048d517b0968f197665e8c58719fd61d64243a83644e9fff1a26e8ef0eb4ad96",
    "scenario3 1/2 csv": "a2b90e73a06fce0168ef96d2090a19c13247af31dfbb99c4704d7769302e2d57",
    "scenario3 1/2 json": "80e6a66379ee3952fb58be0c65339e5910a3f01b1be41badbcb739e3e2adbf97",
    "scenario3 1/3 csv": "13c4dd5406974039a6b5c8e907533f5d8c2280c09737e641136ce6e84930a5af",
    "scenario3 1/3 json": "310c6cda3a4f7e73a5d9ebf567e1d2564c60895fc493b5b0879cbeb4a70c5a62",
    "stream3000 1/2 csv": "5363bd1b4b098eabdd5462366c18ba1bda77d06a0d63e92680621d1b3c0ac754",
    "stream3000 1/2 json": "cdf0eb40796395f02090a36131b4f3ab6b5d66d8b928cb9add3678a51afcfb66",
    "stream3000 1/3 csv": "ddb6e546f0c988543f75f04b5a16d231a5d18c9a6a2fbe0c80506998c8e4b27e",
    "stream3000 1/3 json": "0c520c1ea123964b87506a2d142b6404ef032f8c724ebe5f529ff36ea8601a69",
    "stream3000 1/3-one-sided-bonferroni csv": "9280fef396c2ecb18d113192222c7d3bcf26a2ba6240e927b771e15de008d018",
    "stream3000 1/3-one-sided-bonferroni json": "bda983f0af1a6a1d0ccea5545675a1640a44cc36bcf9419df5ae5dc312bb6681",
}


def test_every_test_command_has_a_digest():
    assert set(TEST_GOLDEN) == set(TEST_COMMANDS)


@pytest.mark.parametrize("key", sorted(TEST_COMMANDS))
def test_test_stdout_matches_golden_digest(capsys, tmp_path, key):
    stream, flags = TEST_COMMANDS[key]
    path = tmp_path / "tosses.txt"
    path.write_text(_toss_stream(stream))
    assert stdout_digest(capsys, ["test", "--input", str(path), *flags]) == TEST_GOLDEN[key]


# CSV outputs of ``simulate`` and ``scenario``, which no digest above covers.
# Recorded from the command line that still built each CSV beside its JSON
# payload, before every CSV was read from the payload.
CSV_COMMANDS = {
    **{
        f"{rule} simulate-csv-{tosses}x{runs}": [
            "simulate", "--tosses", str(tosses), "--runs", str(runs), "--seed", "7",
            "--format", "csv", "--rule", rule,
        ]
        for rule in ("none", "copy", "increment")
        for tosses, runs in ((3, 2000), (40, 300))
    },
    **{
        f"scenario-{scenario_id}-csv": ["scenario", "--id", str(scenario_id), "--format", "csv"]
        for scenario_id in (1, 2, 3)
    },
}

CSV_GOLDEN = {
    "none simulate-csv-3x2000": "4ce083c1eeb2ae1e8db7ff2748143cf2981f438f4edba1128ff0006b4939869b",
    "none simulate-csv-40x300": "95c9cee60a41afabae44ceaa890fb12b79240b5185daa09605f1663bcb9bddc5",
    "copy simulate-csv-3x2000": "3549fbb9bd8b3a39c4a5f1811723af6ace5d3a956c777e5a217ddee45b6f2106",
    "copy simulate-csv-40x300": "08adb04077566f610977060df08d280ce883e1a37e62c3b5a9f3ab2097822348",
    "increment simulate-csv-3x2000": "2c84f264ffd082f3b959b01380d6795def9a04452f86b9e8e836e091573e1445",
    "increment simulate-csv-40x300": "3a1870bd8580677bc87966e8bc2daf8efcfc728fc634f061e94ecf08bc6b1db2",
    "scenario-1-csv": "1b8b58bc4136e9043fdffb391dfa365b755116baafed2595077abab5d13c3a9a",
    "scenario-2-csv": "24653a4f968cf94560843a632f1e55ebdf8d7b062f6afad02ed1d38357e7652c",
    "scenario-3-csv": "5dc8106db7f7010b46ddaea3d2aac44bde7b0ffd748fc464b1dd01a7e17585ac",
}


def test_every_csv_command_has_a_digest():
    assert set(CSV_GOLDEN) == set(CSV_COMMANDS)


@pytest.mark.parametrize("key", sorted(CSV_COMMANDS))
def test_csv_stdout_matches_golden_digest(capsys, key):
    assert stdout_digest(capsys, CSV_COMMANDS[key]) == CSV_GOLDEN[key]
