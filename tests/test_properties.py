"""Property tests for the readers: round trips of what the program writes,
and single-byte or single-character mutations of valid input, which must
give a valid object or the module's typed error."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scenemixer import data as dm
from scenemixer import model as sm

FEW = settings(max_examples=150, deadline=None, database=None)

# ---------------------------------------------------------------------------
# strategies


@st.composite
def ppm_images(draw):
    """(h, w, 3) uint8 arrays of up to 6x6 pixels."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    raw = draw(st.binary(min_size=h * w * 3, max_size=h * w * 3))
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)


@st.composite
def model_configs(draw):
    patch = draw(st.integers(1, 8))
    return sm.ModelConfig(
        input_h=patch * draw(st.integers(1, 8)),
        input_w=patch * draw(st.integers(1, 8)),
        input_c=draw(st.integers(1, 4)),
        patch=patch,
        embed_dim=draw(st.integers(1, 256)),
        depth=draw(st.integers(1, 8)),
        kernels=tuple(draw(st.lists(st.sampled_from([1, 3, 5, 7, 9]), min_size=1, max_size=3, unique=True))),
        num_classes=draw(st.integers(2, 100)),
        bn_eps=draw(st.floats(min_value=0, exclude_min=True, allow_infinity=False)),
        bn_momentum=draw(st.floats(min_value=0, max_value=1, exclude_min=True, exclude_max=True)),
    )


# the manifest's own rule for names: no field separator, no line break
manifest_names = st.text(min_size=1, max_size=8).filter(lambda s: "," not in s and s.splitlines() == [s])


@st.composite
def split_manifests(draw):
    classes = draw(st.lists(manifest_names, min_size=1, max_size=4, unique=True))
    manifest = dm.DatasetManifest(classes)
    for idx, name in enumerate(classes):
        for f in draw(st.lists(manifest_names, min_size=1, max_size=5, unique=True)):
            split = draw(st.sampled_from(["train", "val", "test", "unassigned"]))
            manifest.samples.append(dm.SampleRecord(key=f"{name}/{f}", class_index=idx, split=split))
    return manifest


@st.composite
def mutations(draw, seq, alphabet):
    """`seq` with one element replaced, inserted or deleted."""
    kind = draw(st.sampled_from(["replace", "insert", "delete"]))
    at = draw(st.integers(0, len(seq) - (kind != "insert")))
    if kind == "delete":
        return seq[:at] + seq[at + 1 :]
    new = draw(alphabet.filter(lambda c: kind == "insert" or c != seq[at : at + 1]))
    return seq[:at] + new + seq[at + (kind == "replace") :]


# ---------------------------------------------------------------------------
# round trips


@FEW
@given(ppm_images())
def test_ppm_round_trip_is_exact_on_byte_valued_images(raw):
    decoded = dm.decode_ppm(dm.encode_ppm(raw.astype(np.float32) / np.float32(255.0)))
    assert decoded.dtype == np.uint8
    assert np.array_equal(decoded, raw)


@FEW
@given(model_configs())
def test_config_text_round_trip(config):
    parsed, extras = sm.parse_config_text(sm.config_to_text(config))
    assert parsed == config and extras == {}


@FEW
@given(split_manifests())
def test_manifest_csv_round_trip(manifest):
    fresh = dm.DatasetManifest(manifest.class_names, [
        dm.SampleRecord(key=s.key, class_index=s.class_index) for s in manifest.samples
    ])
    dm.apply_split_csv(fresh, dm.manifest_to_csv(manifest))
    assert [s.split for s in fresh.samples] == [s.split for s in manifest.samples]


@settings(max_examples=25, deadline=None, database=None)
@given(model_configs(), st.integers(0, 2**32 - 1))
def test_checkpoint_round_trip_is_bit_exact(config, seed):
    net = sm.build(config, seed=seed)
    net.class_names = [f"c{i}" for i in range(config.num_classes)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.smxc")
        sm.save(net, path)
        back = sm.load(path)
    assert back.config == config and back.class_names == net.class_names
    before, after = net.all_tensors(), back.all_tensors()
    assert before.keys() == after.keys()
    assert all(after[k].dtype == before[k].dtype and np.array_equal(after[k], before[k]) for k in before)


# ---------------------------------------------------------------------------
# mutations of valid input


@FEW
@given(st.data())
def test_mutated_ppm_decodes_or_raises_ppm_error(data):
    blob = dm.encode_ppm(data.draw(ppm_images()) / 255.0)
    mutant = data.draw(mutations(blob, st.binary(min_size=1, max_size=1)))
    try:
        img = dm.decode_ppm(mutant)
    except dm.PpmError:
        return
    assert img.dtype == np.uint8 and img.ndim == 3 and img.shape[2] == 3 and img.size > 0
    assert 0 <= img.min() and img.max() <= 255


@FEW
@given(st.data())
def test_mutated_config_text_parses_or_raises_value_error(data):
    text = sm.config_to_text(data.draw(model_configs()))
    mutant = data.draw(mutations(text, st.characters(codec="utf-8")))
    try:
        config, _ = sm.parse_config_text(mutant)
    except ValueError:
        return
    config.validate()

