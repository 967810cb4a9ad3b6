"""Unit tests for quasi-affine expressions."""

from repro.polyhedral.quasi_affine import QFloorDiv, QMod, qconst, qvar


def test_floordiv_matches_python_semantics():
    expr = QFloorDiv(qvar("t") + qconst(3), 6)
    for t in range(-20, 20):
        assert expr.evaluate({"t": t}) == (t + 3) // 6


def test_mod_is_always_non_negative():
    expr = QMod(qvar("t"), 5)
    for t in range(-20, 20):
        value = expr.evaluate({"t": t})
        assert 0 <= value < 5
        assert value == t % 5


def test_operator_sugar():
    expr = (qvar("x") * 3 - 2) % 7
    assert expr.evaluate({"x": 4}) == 3


def test_to_c_contains_floord_and_wrap():
    expr = QFloorDiv(qvar("t"), 4)
    assert "floord" in expr.to_c()
    expr = QMod(qvar("t"), 4)
    assert "%" in expr.to_c()


def test_variables_tracking():
    expr = QFloorDiv(qvar("a") + qvar("b"), 2)
    assert expr.variables() == {"a", "b"}
