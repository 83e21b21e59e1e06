import msrcodes
from msrcodes import constructions, errors, field, grs, hamming, mixedradix, repair, storage

REMOVED = [
    (msrcodes, ("FieldElement", "FieldMismatchError", "ScenarioError")),
    (storage, ("run_scenario",)),
    (errors, ("FieldMismatchError", "ScenarioError")),
    (field, ("FieldElement",)),
    (field.PrimeField, ("element", "__contains__", "sub")),
    (mixedradix, ("Coordinate",)),
    (grs, ("systematic_extend",)),
    (grs, ("GrsWord", "ERASED", "erasure_decode", "syndromes")),
    (constructions, ("node_point_matrix",)),
    (grs, ("slices", "block_slices")),
    (constructions, ("erasure_inputs", "operator_table")),
    (repair, ("_split",)),
    (storage, ("_shard_blob", "_elements")),
    (constructions, ("assign_lambda",)),
    (hamming, ("CosetPartition", "build_partition", "syndrome_of", "_to_int")),
    (mixedradix, ("CoordinateSystem",)),
    (constructions.CodeSpec, ("coords",)),
    (repair, ("erasure_operator", "apply_operator")),
    (constructions, ("erasure_operator",)),
]


def test_public_surface_is_what_the_pipeline_calls():
    for name in msrcodes.__all__:
        assert getattr(msrcodes, name) is not None, name
    namespace = {}
    exec("from msrcodes import *", namespace)
    assert set(msrcodes.__all__) <= set(namespace)
    for owner, names in REMOVED:
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
