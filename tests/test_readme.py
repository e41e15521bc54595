import json
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    """The python code block of README's ``## Library`` section."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_block_runs(tmp_path, monkeypatch):
    """README's library example runs as written on a small features file and
    the labelled frames of the same documents."""
    rng = np.random.default_rng(0)
    docs = [(f"d{i}", rng.normal(3.0 * (i % 2), 1.0, size=(20, 2))) for i in range(8)]
    (tmp_path / "features.jsonl").write_text("".join(
        json.dumps({"id": doc_id, "frames": frames.tolist()}) + "\n"
        for doc_id, frames in docs))
    (tmp_path / "train.jsonl").write_text("".join(
        json.dumps({"id": doc_id, "frames": frames.tolist(),
                    "labels": (frames[:, 0] > 1.5).astype(int).tolist()}) + "\n"
        for doc_id, frames in docs))
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(library_block(), scope)
    assert scope["labelled"].ids == scope["assignments"].ids == tuple(d for d, _ in docs)
    assert scope["net"].domain_dim == scope["topic_model"].num_domains
