"""Seeded, structure-aware fuzz of the model document.

Each case changes a trained model's document once: it drops a key, adds a
key, or sets a value at depth 1 to 3 to one of `VALUES`. `model_from_json`
must refuse every case it does not load with ValueError and nothing else, a
document it loads must write back the model it read, and `cdfeat inspect`
must turn a refusal into exit 2 with one line on stderr.
"""

import json
import random

import pytest

from cdfeat.cli import main
from cdfeat.model import CdfConfig, Dataset, model_from_json, model_to_json
from cdfeat.multiclass import train
from cdfeat.svm import KernelSpec

from conftest import gaussian_blobs

VALUES = (None, True, "x", [], {}, [[1]], 10**400, -1, 0, 1.5, [None], {"a": 1})
CASES = 1500  # per model
CLI_SAMPLE = 20  # refused cases run through `cdfeat inspect`, per model

MODELS = {
    "dual_kl-poly2": (CdfConfig(), KernelSpec("polynomial")),
    "elementwise_kl-rbf": (CdfConfig(feature_mode="elementwise_kl"), KernelSpec("rbf")),
}


def paths(node, depth: int = 3, prefix: tuple = ()):
    """The key path of every value below `node`, `depth` levels deep at most."""
    if depth == 0:
        return
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, depth - 1, prefix + (key,))


def mutate(doc: dict, rng: random.Random) -> dict:
    """A copy of `doc` with one key dropped, one key added or one value set."""
    every = list(paths(doc))
    doc = json.loads(json.dumps(doc))

    def at(path):
        node = doc
        for key in path:
            node = node[key]
        return node

    op = rng.randrange(3)
    if op == 0:
        path = rng.choice([p for p in every if isinstance(at(p[:-1]), dict)])
        del at(path[:-1])[path[-1]]
    elif op == 1:
        parents = [()] + [p for p in every if len(p) < 3 and isinstance(at(p), dict)]
        at(rng.choice(parents))["extra"] = rng.choice(VALUES)
    else:
        path = rng.choice(every)
        at(path[:-1])[path[-1]] = rng.choice(VALUES)
    return doc


@pytest.mark.parametrize("name", list(MODELS))
def test_model_document_refused_only_with_value_error(name, tmp_path, capsys):
    cfg, kernel = MODELS[name]
    x, y = gaussian_blobs(6, seed=3, dims=8, classes=3)
    doc = json.loads(model_to_json(train(Dataset.from_arrays(x, y), cfg, kernel=kernel)))
    rng = random.Random(5)
    escaped, refused = [], []
    for _ in range(CASES):
        text = json.dumps(mutate(doc, rng))
        try:
            model = model_from_json(text)
        except ValueError:
            refused.append(text)
            continue
        except Exception as exc:  # any other type escapes the loader's contract
            escaped.append(f"{type(exc).__name__}: {exc} in {text[:200]}")
            continue
        assert model_from_json(model_to_json(model)) == model
    assert escaped == []
    assert len(refused) > CASES // 2
    for i, text in enumerate(refused[:: len(refused) // CLI_SAMPLE][:CLI_SAMPLE]):
        path = tmp_path / f"case{i}.json"
        path.write_text(text)
        assert main(["inspect", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unreadable model") and err.count("\n") == 1
