import json

import numpy as np
import pytest

from reachkit.errors import InstanceFormatError
from reachkit.hardness import generate
from reachkit.instance_io import (
    InstanceDoc,
    hard_instance_dict,
    instance_dict,
    load_instance,
    load_matrix,
    parse_instance,
    write_instance,
)
from reachkit.setfun import ColumnSelectionFunction
from reachkit.solvers import VarSelInstance
from reachkit.system import star_system


def docs_equal(a: InstanceDoc, b: InstanceDoc) -> bool:
    if (a.system is None) != (b.system is None):
        return False
    if a.system is not None:
        s, t = a.system, b.system
        if not (
            np.array_equal(s.A, t.A)
            and np.array_equal(s.B, t.B)
            and np.array_equal(s.x0, t.x0)
            and np.array_equal(s.x1, t.x1)
            and s.t0 == t.t0
            and s.t1 == t.t1
        ):
            return False
    if (a.setfun is None) != (b.setfun is None):
        return False
    if a.setfun is not None and not (
        np.array_equal(a.setfun.v, b.setfun.v)
        and np.array_equal(a.setfun.M, b.setfun.M)
        and a.setfun.c == b.setfun.c
    ):
        return False
    for x, y in ((a.varsel, b.varsel), (a.source, b.source)):
        if (x is None) != (y is None):
            return False
        if x is not None and not (
            np.array_equal(x.U, y.U)
            and np.array_equal(x.z, y.z)
            and x.delta == y.delta
        ):
            return False
    return a.source_dims == b.source_dims


class TestRoundTrip:
    def test_system_document(self, tmp_path):
        doc = InstanceDoc(system=star_system(4))
        path = tmp_path / "star.json"
        write_instance(doc, path)
        assert docs_equal(load_instance(path), doc)

    def test_identity_input_matrix_is_compacted(self, tmp_path):
        doc = InstanceDoc(system=star_system(3))
        path = tmp_path / "star.json"
        write_instance(doc, path)
        assert json.loads(path.read_text())["B"] == "identity"

    def test_general_input_matrix_round_trips(self, tmp_path):
        from reachkit.system import LinearSystem

        sys = LinearSystem(
            A=np.zeros((2, 2)),
            B=np.array([[1.0], [2.0]]),
            t0=0.0,
            t1=1.0,
            x0=np.zeros(2),
            x1=np.ones(2),
        )
        path = tmp_path / "sys.json"
        write_instance(InstanceDoc(system=sys), path)
        loaded = load_instance(path)
        assert np.array_equal(loaded.system.B, sys.B)

    def test_all_sections(self, tmp_path):
        doc = InstanceDoc(
            system=star_system(3),
            setfun=ColumnSelectionFunction(
                v=np.array([1.0, 2.0]), M=np.array([[1.0, 0.0], [0.0, 1.0]]), c=3.0
            ),
            varsel=VarSelInstance(U=np.eye(2), z=np.ones(2), delta=0.25),
        )
        path = tmp_path / "full.json"
        write_instance(doc, path)
        assert docs_equal(load_instance(path), doc)

    def test_hard_instance_document(self, tmp_path):
        inst = generate(np.array([[1.0, 0.0], [1.0, 1.0]]), d=3, delta=0.5)
        path = tmp_path / "hard.json"
        write_instance(inst, path)
        loaded = load_instance(path).hard_instance()
        assert np.array_equal(loaded.sys.A, inst.sys.A)
        assert np.array_equal(loaded.sys.x1, inst.sys.x1)
        assert np.array_equal(loaded.source.U, inst.source.U)
        assert loaded.source.delta == inst.source.delta
        assert loaded.dims == inst.dims

    def test_stack_spec_is_preserved_in_file(self, tmp_path):
        inst = generate(np.eye(2), d=2)
        path = tmp_path / "hard.json"
        write_instance(inst, path)
        data = json.loads(path.read_text())
        assert data["A"] == {"stack": {"U": [[1.0, 0.0], [0.0, 1.0]], "d": 2}}

    def test_dict_parse_inverse(self):
        doc = InstanceDoc(
            system=star_system(3),
            varsel=VarSelInstance(U=np.eye(2), z=np.ones(2), delta=0.0),
        )
        assert docs_equal(parse_instance(instance_dict(doc)), doc)


class TestParsing:
    def test_stack_expansion(self):
        data = hard_instance_dict(generate(np.array([[1.0, 2.0]]), d=2))
        doc = parse_instance(data)
        expected = generate(np.array([[1.0, 2.0]]), d=2)
        assert np.array_equal(doc.system.A, expected.sys.A)

    def test_missing_key_names_the_key(self):
        with pytest.raises(InstanceFormatError, match="x1"):
            parse_instance(
                {
                    "n": 1,
                    "m": 1,
                    "A": [[0.0]],
                    "B": "identity",
                    "t0": 0.0,
                    "t1": 1.0,
                    "x0": [0.0],
                }
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_instance(
                {
                    "n": 2,
                    "m": 2,
                    "A": [[0.0]],
                    "B": "identity",
                    "t0": 0.0,
                    "t1": 1.0,
                    "x0": [0.0, 0.0],
                    "x1": [1.0, 0.0],
                }
            )

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 1,,}')
        with pytest.raises(InstanceFormatError, match="line 1"):
            load_instance(path)

    def test_non_object_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_instance([1, 2, 3])

    def test_setfun_only_document(self, tmp_path):
        path = tmp_path / "fn.json"
        path.write_text(
            json.dumps({"setfun": {"v": [1.0, 0.0], "M": [[1.0, 1.0], [0.0, 1.0]]}})
        )
        doc = load_instance(path)
        assert doc.system is None
        assert doc.setfun.c == 2.0

    def test_hard_instance_requires_source(self):
        doc = InstanceDoc(system=star_system(3))
        with pytest.raises(InstanceFormatError):
            doc.hard_instance()

    @pytest.mark.parametrize(
        "doc, where",
        [
            ({"setfun": [1.0]}, "'setfun' section must be a JSON object"),
            ({"varsel": {"U": [[1.0]], "z": [1.0], "delta": "small"}}, "delta"),
            ({"setfun": {"v": [1.0], "M": [[1.0]], "c": None}}, "setfun.c"),
            (
                {"n": "two", "m": 1, "A": [[0.0]], "B": "identity",
                 "t0": 0.0, "t1": 1.0, "x0": [0.0], "x1": [1.0]},
                "key 'n'",
            ),
            (
                {"n": 1, "m": 1, "A": [[0.0]], "B": "identity",
                 "t0": 0.0, "t1": [1.0], "x0": [0.0], "x1": [1.0]},
                "key 't1'",
            ),
            (
                json.loads('{"setfun": {"v": [1.0], "M": [[1.0]], "c": 1e999}}'),
                "'setfun' section: exponent c",
            ),
            (
                {"n": 2.7, "m": 1, "A": [[0.0]], "B": "identity",
                 "t0": 0.0, "t1": 1.0, "x0": [0.0], "x1": [1.0]},
                "key 'n'",
            ),
            (
                {"n": True, "m": 1, "A": [[0.0]], "B": "identity",
                 "t0": 0.0, "t1": 1.0, "x0": [0.0], "x1": [1.0]},
                "key 'n'",
            ),
        ],
    )
    def test_mistyped_values_name_the_key(self, doc, where):
        with pytest.raises(InstanceFormatError, match=where):
            parse_instance(doc)


class TestLoadMatrix:
    def test_bare_array(self, tmp_path):
        path = tmp_path / "U.json"
        path.write_text("[[1, 0], [0, 1]]")
        assert np.array_equal(load_matrix(path), np.eye(2))

    def test_first_listed_key_wins(self, tmp_path):
        path = tmp_path / "U.json"
        path.write_text(json.dumps({"U": [[1.0]], "setfun": {"M": [[2.0]]}}))
        assert np.array_equal(load_matrix(path), np.array([[1.0]]))

    def test_flat_array_rejected(self, tmp_path):
        path = tmp_path / "U.json"
        path.write_text(json.dumps({"U": [1.0, 2.0]}))
        with pytest.raises(InstanceFormatError, match="'U' must be an array of row arrays"):
            load_matrix(path)
