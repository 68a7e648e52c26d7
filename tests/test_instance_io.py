import json
import re

import numpy as np
import pytest

from reachkit.errors import CapacityError, InstanceFormatError
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

    def test_source_section_round_trips(self):
        inst = generate(np.array([[1.0, 0.0], [1.0, 1.0]]), d=3, delta=0.5)
        doc = InstanceDoc(system=inst.sys, source=inst.source, source_dims=inst.dims)
        parsed = parse_instance(instance_dict(doc))
        assert docs_equal(parsed, doc)
        assert parsed.hard_instance().dims == inst.dims


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

    def test_identity_input_matrix_needs_m_equal_to_n(self):
        with pytest.raises(InstanceFormatError, match=re.escape("B has shape (2, 2), expected (2, 3)")):
            parse_instance(
                {"n": 2, "m": 3, "A": [[0.0, 0.0], [0.0, 0.0]], "B": "identity",
                 "t0": 0.0, "t1": 1.0, "x0": [0.0, 0.0], "x1": [1.0, 0.0]}
            )

    def test_integral_float_counts_are_read_as_integers(self):
        # a JSON writer may spell the count 2 as 2.0
        doc = parse_instance(
            {"n": 2.0, "m": 2.0, "A": [[0.0, 0.0], [0.0, 0.0]], "B": "identity",
             "t0": 0.0, "t1": 1.0, "x0": [0.0, 0.0], "x1": [1.0, 0.0]}
        )
        assert doc.system.n == 2 and type(doc.system.n) is int
        assert doc.system.m == 2

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
            (
                {"setfun": {"v": [-1.0, 1.0, 1.0], "M": [[1.0], [1.0], [0.0]], "c": 2000}},
                "'setfun' section: .*overflows",
            ),
            (
                {"n": 2, "m": 2, "A": {"stack": {"U": [[1.0]], "d": 0}}, "B": "identity",
                 "t0": 0.0, "t1": 1.0, "x0": [0.0, 0.0], "x1": [1.0, 0.0]},
                "key 'A.stack': stack count d",
            ),
            (
                {"n": 2, "m": 2, "A": {"stack": {"U": [[1.0]], "d": 3}}, "B": "identity",
                 "t0": 0.0, "t1": 1.0, "x0": [0.0, 0.0], "x1": [1.0, 0.0]},
                "key 'A.stack': n=2 is too small",
            ),
            (
                json.loads(
                    '{"n": 2, "m": 2, "A": {"stack": {"U": [[1e999]], "d": 1}}, "B": "identity",'
                    ' "t0": 0.0, "t1": 1.0, "x0": [0.0, 0.0], "x1": [1.0, 0.0]}'
                ),
                "key 'A.stack': .*non-finite",
            ),
            (
                json.loads(
                    '{"n": 2, "m": 2, "A": {"stack": {"U": [[1e999]], "d": 1}}, "B": "identity",'
                    ' "t0": 0.0, "t1": 1.0, "x0": [0.0, 0.0], "x1": [1.0, 0.0]}'
                ),
                r"A\.stack\.U",
            ),
        ],
    )
    def test_mistyped_values_name_the_key(self, doc, where):
        with pytest.raises(InstanceFormatError, match=where):
            parse_instance(doc)

    @pytest.mark.parametrize(
        "doc, where",
        [
            (
                {"n": -1, "m": 1, "A": [[0.0]], "B": "identity",
                 "t0": 0.0, "t1": 1.0, "x0": [0.0], "x1": [1.0]},
                "key 'n'",
            ),
            (
                {"n": 0, "m": 1, "A": [[0.0]], "B": "identity",
                 "t0": 0.0, "t1": 1.0, "x0": [0.0], "x1": [1.0]},
                "key 'n'",
            ),
            (
                {"n": 1, "m": -2, "A": [[0.0]], "B": [[1.0]],
                 "t0": 0.0, "t1": 1.0, "x0": [0.0], "x1": [1.0]},
                "key 'm'",
            ),
            (
                {"n": "2", "m": 2, "A": [[0.0, 0.0], [0.0, 0.0]], "B": "identity",
                 "t0": 0.0, "t1": 1.0, "x0": [0.0, 0.0], "x1": [1.0, 0.0]},
                "key 'n'",
            ),
        ],
    )
    def test_bad_counts_name_the_key(self, doc, where):
        with pytest.raises(InstanceFormatError, match=where):
            parse_instance(doc)


class TestStackedSizeCap:
    def test_a_stack_at_the_cap_loads(self, tmp_path):
        n = 2048  # n * n is hardness.MAX_STACKED_ENTRIES
        path = tmp_path / "stack2048.json"
        path.write_text(json.dumps({
            "n": n, "m": 1, "A": {"stack": {"U": [[1.0]], "d": 1}}, "B": [[1.0]] * n,
            "t0": 0, "t1": 1, "x0": [0] * n, "x1": [1] * n,
        }))
        sys = load_instance(path).system
        assert sys.A.shape == (n, n) and sys.B.shape == (n, 1)
        assert sys.A[0, n - 1] == 1.0 and np.count_nonzero(sys.A) == 1

    def test_a_stack_past_the_cap_is_refused(self):
        n = 2049
        doc = {"n": n, "m": 1, "A": {"stack": {"U": [[1.0]], "d": 1}}, "B": [[1.0]] * n,
               "t0": 0, "t1": 1, "x0": [0] * n, "x1": [1] * n}
        with pytest.raises(CapacityError, match="n = 2049: 4198401 entries"):
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


class TestHardInstanceConsistency:
    """A bundled instance must equal ``generate(source.U, dims.d,
    source.delta)`` in its dims, ``A``, ``B``, ``x0``, ``x1`` and ``source.z``."""

    @staticmethod
    def document():
        # the shape of a ``gen-hard --random 2 3 --d 2`` file
        U = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        return json.loads(json.dumps(hard_instance_dict(generate(U, d=2))))

    @pytest.mark.parametrize(
        "keys, value, where",
        [
            (("source", "dims", "l"), 5, r"'source.dims.l' .*\(5, expected 3\)"),
            (("source", "dims", "m"), 1, r"'source.dims.m'"),
            (("source", "dims", "d"), 1, r"'source.dims.n' .*\(9, expected 6\)"),
            (("source", "dims", "n"), 12, r"'source.dims.n'"),
            (("source", "dims", "d"), 0, r"'source' section: stack count d"),
            (("A", "stack", "U"), [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], "key 'A'"),
            (("B",), [[2.0 * (i == j) for j in range(9)] for i in range(9)], "key 'B'"),
            (("x0",), [1.0] + [0.0] * 8, "key 'x0'"),
            (("x1",), [1.0] * 9, "key 'x1'"),
            (("source", "z"), [1.0, 2.0], "'source.z'"),
        ],
    )
    def test_mismatch_names_the_key(self, keys, value, where):
        data = self.document()
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        doc = parse_instance(data)
        with pytest.raises(InstanceFormatError, match=where):
            doc.hard_instance()

    @pytest.mark.parametrize(
        "keys, value, where",
        [
            (("source", "dims", "d"), 2999, r"'source.dims.n' .*\(9, expected 9000\)"),
            (("source", "dims"), {"m": 2, "l": 3, "d": 1, "n": 6}, "key 'A'"),
        ],
        ids=["dims", "system-size"],
    )
    def test_size_mismatch_is_found_before_the_rebuild(self, keys, value, where, monkeypatch):
        monkeypatch.setattr("reachkit.instance_io.generate", None)  # calling it fails
        data = self.document()
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        with pytest.raises(InstanceFormatError, match=where):
            parse_instance(data).hard_instance()

    @pytest.mark.parametrize("d, error, where", [
        (2047, InstanceFormatError, "key 'A'"),
        (2048, CapacityError, r"n = 2049: 4198401 entries, more than the cap of 4194304"),
    ], ids=["at-the-cap", "past-the-cap"])
    def test_source_section_cap_boundary(self, d, error, where, monkeypatch):
        # a 1 x 1 source stacked d times gives n = d + 1; at d = 2047, n * n
        # is hardness.MAX_STACKED_ENTRIES, so the cap passes and the 2-node
        # system fails its size check instead
        monkeypatch.setattr("reachkit.instance_io.generate", None)  # calling it fails
        data = system_doc(source={"U": [[1.0]], "z": [1.0], "delta": 0.0,
                                  "dims": {"m": 1, "l": 1, "d": d, "n": d + 1}})
        with pytest.raises(error, match=where):
            parse_instance(data).hard_instance()


def system_doc(**keys):
    data = {"n": 2, "m": 2, "A": [[0.0, 0.0], [0.0, 0.0]], "B": "identity",
            "t0": 0.0, "t1": 1.0, "x0": [0.0, 0.0], "x1": [1.0, 0.0]}
    return {**data, **keys}


class TestArrayShapes:
    """One coercion rule for every array key, with a message per shape."""

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                system_doc(x0=[[0.0, 0.0]]),
                "inconsistent system section: key 'x0' must be a flat array of numbers",
            ),
            (system_doc(A=[0.0, 0.0]), "key 'A' must be an array of row arrays"),
            (
                {"varsel": {"U": [[1.0]], "z": [[1.0]], "delta": 0.0}},
                "inconsistent 'varsel' section: 'varsel' section key 'z' must be a flat "
                "array of numbers",
            ),
            (
                {"setfun": {"v": [1.0], "M": [1.0]}},
                "inconsistent 'setfun' section: 'setfun.M' must be an array of row arrays",
            ),
        ],
    )
    def test_shape_messages(self, doc, message):
        with pytest.raises(InstanceFormatError) as info:
            parse_instance(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "doc, prefix",
        [
            (system_doc(B=[[1.0], [0.0, 1.0]]), "key 'B' is not a numeric array: "),
            (
                {"setfun": {"v": "x", "M": [[1.0]]}},
                "inconsistent 'setfun' section: 'setfun.v' is not a numeric array: ",
            ),
        ],
    )
    def test_non_numeric_messages(self, doc, prefix):
        with pytest.raises(InstanceFormatError) as info:
            parse_instance(doc)
        assert str(info.value).startswith(prefix)
