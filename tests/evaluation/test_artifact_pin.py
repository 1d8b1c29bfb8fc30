"""Pin the bytes of a ``build-summaries`` artifact.

The digest was taken from the scalar walk-by-walk Algorithm 6 build. The
vectorized build draws the same walks on every dead-end-free graph (all
``data_2k`` sizes), so any drift in walk sampling, H, I_L or the
generator state handed on to summarization changes these bytes.
"""

import hashlib

from repro.cli import main

# data_2k --size 200 --seed 2011, LRW summarizer, CLI defaults.
SUMMARIES_SHA256 = (
    "408d2e1787146d034c577917dd076c08a324212576040dd8e3432408ee9f2f6a"
)


def test_build_summaries_artifact_is_pinned(tmp_path, capsys):
    output = tmp_path / "summaries.json"
    code = main([
        "build-summaries", "--dataset", "data_2k", "--size", "200",
        "--seed", "2011", "--output", str(output),
    ])
    assert code == 0, capsys.readouterr().err
    assert hashlib.sha256(output.read_bytes()).hexdigest() == SUMMARIES_SHA256
