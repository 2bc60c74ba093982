import textwrap
import warnings
from importlib.resources import files

import numpy as np
import pytest
import yaml

from sipsolve import specfile
from sipsolve.expressions import SpecParseError, eval_value, parse_expression
from sipsolve.model import validate_problem
from sipsolve.problems import REGISTRY
from sipsolve.specfile import (SpecFileError, compile_spec, load_problem,
                               parse_spec)

GOOD = textwrap.dedent("""
    name: toy
    n: 2
    m: 1
    objective: -x1 + 1.5*x2
    si_constraints:
      - -y1^2 + 2*y1*x1 - x2
    index_constraints:
      - y1 - 1
      - -y1 - 1
    x_bounds:
      - [-1, 1]
      - [-1, 1]
    x0: [1, -1]
    known_solution: [0.0, -1.0]
    known_objective: -1.5
    """)


class TestParseSpec:
    def test_valid_document(self):
        sf = parse_spec(GOOD)
        assert sf.name == "toy"
        assert (sf.n, sf.m) == (2, 1)
        assert sf.objective == "-x1 + 1.5*x2"
        assert len(sf.si_constraints) == 1
        assert len(sf.index_constraints) == 2
        assert sf.finite_constraints == []
        assert sf.x_bounds == [[-1, 1], [-1, 1]]
        assert sf.x0 == [1.0, -1.0]
        assert sf.known_solution == [0.0, -1.0]
        assert sf.known_objective == -1.5
        assert ("objective", 0) in sf.asts
        assert ("si_constraints", 0) in sf.asts

    @pytest.mark.parametrize("mutate,fragment", [
        (lambda d: d.replace("name: toy", "name: toy\nbogus: 1"),
         "unknown key(s): bogus"),
        (lambda d: d.replace("m: 1\n", ""), "missing required key: m"),
        (lambda d: d.replace("n: 2", "n: 0"), "n must be an integer >= 1"),
        (lambda d: d.replace("n: 2", "n: 2.5"), "n must be an integer >= 1"),
        (lambda d: d.replace("-y1^2", "-y2^2"),
         "si_constraints[0]: references y2 but m=1"),
        (lambda d: d.replace("y1 - 1", "y1 - x1"),
         "index_constraints[0]: x variables are not allowed here"),
        (lambda d: d.replace("objective: -x1 + 1.5*x2", "objective: y1"),
         "objective: y variables are not allowed here"),
        (lambda d: d.replace("x0: [1, -1]", "x0: [1]"),
         "x0: expected a list of 2 numbers"),
        (lambda d: d.replace("  - [-1, 1]\n  - [-1, 1]", "  - [-1, 1]"),
         "x_bounds: expected 2 [lo, hi] pairs"),
        (lambda d: d.replace("- [-1, 1]", "- [1, -1]", 1),
         "x_bounds: lower 1.0 exceeds upper -1.0"),
    ])
    def test_structural_errors(self, mutate, fragment):
        with pytest.raises(SpecFileError) as exc:
            parse_spec(mutate(GOOD))
        assert fragment in str(exc.value)

    @pytest.mark.parametrize("old,new,fragment", [
        ("x0: [1, -1]", "x0: [1, abc]", "x0: expected a number, got 'abc'"),
        ("x0: [1, -1]", "x0: [1, true]", "x0: expected a number, got True"),
        ("x0: [1, -1]", "x0: [1, .nan]", "x0: expected a number, got nan"),
        ("x0: [1, -1]", "x0: [1, .inf]", "x0: expected a finite number, got inf"),
        ("known_solution: [0.0, -1.0]", "known_solution: [0.3, [1]]",
         "known_solution: expected a number, got [1]"),
        ("known_solution: [0.0, -1.0]", "known_solution: [0.3, -.inf]",
         "known_solution: expected a finite number, got -inf"),
        ("- [-1, 1]", "- [a, 1]", "x_bounds[0]: expected a number, got 'a'"),
        ("- [-1, 1]", "- [-1, .nan]", "x_bounds[0]: expected a number, got nan"),
        ("known_objective: -1.5", "known_objective: foo",
         "known_objective: expected a number, got 'foo'"),
        ("known_objective: -1.5", "known_objective: .nan",
         "known_objective: expected a number, got nan"),
        ("known_objective: -1.5", "known_objective: .inf",
         "known_objective: expected a finite number, got inf"),
        ("n: 2", "n: true", "n must be an integer >= 1"),
        ("name: toy", "name: [toy]", "name must be a string"),
    ])
    def test_malformed_values(self, old, new, fragment):
        with pytest.raises(SpecFileError) as exc:
            parse_spec(GOOD.replace(old, new, 1))
        assert fragment in str(exc.value)

    def test_infinite_bounds_stand_for_the_default_box(self):
        sf = parse_spec(GOOD.replace("- [-1, 1]", "- [-.inf, .inf]", 1))
        assert sf.x_bounds == [[-np.inf, np.inf], [-1.0, 1.0]]
        assert compile_spec(sf).x_bounds.tolist() == [[-1e3, 1e3], [-1.0, 1.0]]

    def test_empty_si_list_rejected(self):
        doc = ("n: 1\nm: 1\nobjective: x1\nsi_constraints: []\n"
               "index_constraints:\n  - y1 - 1\n")
        with pytest.raises(SpecFileError) as exc:
            parse_spec(doc)
        assert "at least one constraint is required" in str(exc.value)

    def test_expression_error_carries_key_and_position(self):
        doc = GOOD.replace("objective: -x1 + 1.5*x2", "objective: x1 + (")
        with pytest.raises(SpecParseError) as exc:
            parse_spec(doc)
        assert exc.value.col == 6
        assert "objective" in str(exc.value)
        assert str(exc.value).count("line 1, column 6") == 1

    def test_non_mapping_document_rejected(self):
        with pytest.raises(SpecFileError):
            parse_spec("- just\n- a\n- list\n")

    def test_broken_yaml_rejected(self):
        with pytest.raises(SpecFileError) as exc:
            parse_spec("objective: [unclosed\n")
        assert "YAML" in str(exc.value)

    def test_optional_keys_default_to_none(self):
        doc = ("n: 1\nm: 1\nobjective: x1\nsi_constraints:\n  - y1 - x1\n"
               "index_constraints:\n  - y1^2 - 1\n")
        sf = parse_spec(doc)
        assert sf.x_bounds is None and sf.x0 is None
        assert sf.known_solution is None and sf.known_objective is None
        assert sf.name == ""


@pytest.fixture(params=["libyaml", "python"])
def loader(request, monkeypatch):
    """parse_spec's YAML loader: libyaml's when PyYAML has it, else the
    pure-Python one; the "python" case hides CSafeLoader."""
    if request.param == "libyaml" and not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    if request.param == "python":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    return request.param


class TestYamlLoader:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_shipped_specs_load_the_same_with_both_loaders(self, name,
                                                          monkeypatch):
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML built without libyaml")
        text = (files("sipsolve") / "data" / f"{name}.yaml").read_text()
        assert (yaml.load(text, Loader=yaml.CSafeLoader)
                == yaml.load(text, Loader=yaml.SafeLoader))
        with_libyaml = parse_spec(text)
        monkeypatch.delattr(yaml, "CSafeLoader")
        assert parse_spec(text) == with_libyaml

    @pytest.mark.parametrize("text", ["objective: [unclosed\n",
                                      "n: 1\n\tm: 1\n",
                                      "n: 1\nm: *missing_anchor\n",
                                      "!!python/object:os.system ls\n"])
    def test_malformed_document_is_a_spec_file_error(self, loader, text):
        with pytest.raises(SpecFileError) as exc:
            parse_spec(text)
        assert "YAML" in str(exc.value)


class TestCompileSpec:
    def test_compiled_fields_evaluate(self):
        p = compile_spec(parse_spec(GOOD))
        assert p.n == 2 and p.m == 1 and p.n_si == 1
        # g(x, y) = -y^2 + 2 y x1 - x2 at x=(0.5, 0), y=0.3
        z = np.array([0.5, 0.0, 0.3])
        g = p.si_constraints[0]
        assert g.value(z) == pytest.approx(0.21, abs=1e-15)
        assert np.allclose(g.gradient(z), [0.6, -1.0, 0.4])
        assert np.allclose(g.hessian(z), [[0.0, 0.0, 2.0],
                                          [0.0, 0.0, 0.0],
                                          [2.0, 0.0, -2.0]])

    def test_objective_restricted_to_x(self):
        p = compile_spec(parse_spec(GOOD))
        x = np.array([0.25, -0.5])
        assert p.objective.value(x) == pytest.approx(-1.0)
        assert np.allclose(p.objective.gradient(x), [-1.0, 1.5])

    def test_index_fields_over_y_only(self):
        p = compile_spec(parse_spec(GOOD))
        v1, v2 = p.index_constraints
        y = np.array([0.4])
        assert v1.value(y) == pytest.approx(-0.6)
        assert v2.value(y) == pytest.approx(-1.4)
        assert np.allclose(v1.gradient(y), [1.0])
        assert np.allclose(v1.hessian(y), [[0.0]])

    def test_batch_evaluation_matches_scalar(self):
        p = compile_spec(parse_spec(GOOD))
        g = p.si_constraints[0]
        pts = np.array([[0.5, 0.0, 0.3], [0.1, 0.2, -0.4], [0.0, 0.0, 0.0]])
        batch = g.value_batch(pts)
        assert np.allclose(batch, [g.value(row) for row in pts])

    def test_metadata_mapped_through(self):
        p = compile_spec(parse_spec(GOOD))
        assert np.array_equal(p.x_bounds, [[-1.0, 1.0], [-1.0, 1.0]])
        assert np.array_equal(p.start, [1.0, -1.0])
        assert np.array_equal(p.known_solution, [0.0, -1.0])
        assert p.known_objective == -1.5
        assert p.name == "toy"

    def test_finite_constraints_compiled(self):
        doc = GOOD.replace("x0: [1, -1]",
                           "x0: [1, -1]\nfinite_constraints:\n  - x1 - 0.75\n")
        p = compile_spec(parse_spec(doc))
        assert len(p.finite_constraints) == 1
        c = p.finite_constraints[0]
        assert c.value(np.array([1.0, 0.0])) == pytest.approx(0.25)
        assert np.allclose(c.gradient(np.array([1.0, 0.0])), [1.0, 0.0])


class TestLoadProblem:
    def test_load_validate_roundtrip(self, tmp_path):
        path = tmp_path / "toy.yaml"
        path.write_text(GOOD)
        p = load_problem(path)
        report = validate_problem(p)
        assert report.valid, report.issues
        assert p.name == "toy"

    def test_unnamed_problem_takes_file_stem(self, tmp_path):
        doc = ("n: 1\nm: 1\nobjective: x1\nsi_constraints:\n  - y1 - x1\n"
               "index_constraints:\n  - y1^2 - 1\n")
        path = tmp_path / "nameless.yaml"
        path.write_text(doc)
        assert load_problem(path).name == "nameless"


def _objective_field(objective: str):
    """The compiled objective of GOOD with ``objective`` put in its place."""
    doc = GOOD.replace("objective: -x1 + 1.5*x2", f"objective: '{objective}'")
    return compile_spec(parse_spec(doc)).objective


class TestCompiledEdgeCases:
    """Inputs the AST walker always handled that a naive compile breaks."""

    def test_long_sum_loads(self):
        # nested parentheses, one pair per node, exceed the Python parser's
        # limit long before 300 terms
        f = _objective_field(" + ".join(["x1"] * 300))
        z = np.array([2.0, 0.0])
        assert f.value(z) == 600.0
        assert np.array_equal(f.gradient(z), [300.0, 0.0])
        assert np.array_equal(f.hessian(z), np.zeros((2, 2)))
        assert np.array_equal(f.value_batch(np.array([z, 2.0 * z])), [600.0, 1200.0])

    @pytest.mark.parametrize("text,value", [("x1 + 2 / 0.0", np.inf),
                                            ("x1 + 1e300^2", np.inf),
                                            ("x1 - (1 - 1) / 0.0", np.nan),
                                            ("x1 * (0.0 / 0.0)^2", np.nan)])
    def test_constant_subexpression_follows_numpy(self, text, value):
        # Python float arithmetic on two literals raises ZeroDivisionError or
        # OverflowError; the compiled value and batch give inf or nan, as
        # eval_value does
        f = _objective_field(text)
        z = np.array([2.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(f.value(z), value, equal_nan=True)
            assert np.array_equal(f.value_batch(np.array([z, z])),
                                  [value, value], equal_nan=True)
        with np.errstate(all="ignore"):
            reference = eval_value(parse_expression(text), {("x", 1): z[0]})
        assert np.array_equal(reference, value, equal_nan=True)

    def test_overflowing_literal_is_inf(self):
        f = _objective_field("x1 + 1e400")
        z = np.array([2.0, 0.0])
        assert f.value(z) == np.inf
        assert np.array_equal(f.gradient(z), [1.0, 0.0])
        assert np.array_equal(f.value_batch(np.array([z, z])), [np.inf, np.inf])

    @pytest.mark.parametrize("text", ['__import__("os")', "x1.real",
                                      "x1; x2", "np.log(x1)", "lambda: 1"])
    def test_foreign_text_never_reaches_the_compiler(self, text, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("compiled a rejected expression")
        monkeypatch.setattr(specfile, "compile_functions", refuse)
        with pytest.raises(SpecParseError):
            _objective_field(text)
