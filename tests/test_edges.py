"""Error-path and edge-case coverage across the modules."""

import pytest

from pdef import (
    CosetTable,
    IntegerMatrix,
    ParseError,
    Word,
    low_index_normal,
    low_index_subgroups,
    parse_presentation,
    power_quotient_largeness,
    todd_coxeter,
    validate_table,
)
from pdef.cosets import TableInvariantError
from pdef.lowindex import _normal_by_index, _tables_by_index


@pytest.mark.parametrize(
    "text",
    [
        "gens: a b",          # missing comma
        "gens: a\nrel: a$",   # stray character
        "gens: a\nrel: a a)", # trailing input
        "gens: a\nrel: a^x",  # non-integer exponent
        "gens: a\nrel: [a a]",  # malformed commutator
        "gens: a\nrel:",      # empty relator expression
        "gens: 1a",           # bad name
    ],
)
def test_parse_error_grammar(text):
    with pytest.raises(ParseError):
        parse_presentation(text)


def test_enumeration_input_errors(dinf):
    with pytest.raises(ValueError):
        todd_coxeter(dinf, [], max_cosets=0)
    with pytest.raises(ValueError):
        todd_coxeter(dinf, [Word((3,))])
    with pytest.raises(ValueError):
        low_index_subgroups(dinf, 0)
    with pytest.raises(ValueError):
        low_index_normal(dinf, 0)
    # the lazy searches raise when first consumed
    for search in (_tables_by_index(dinf, 0), _normal_by_index(dinf, 0), _normal_by_index(dinf, 0, 2)):
        with pytest.raises(ValueError):
            next(search)


def test_validator_rejects_corruption(dinf):
    T = todd_coxeter(dinf, [Word((1, 2))])
    validate_table(dinf, T)

    rows = [list(r) for r in T.rows]
    rows[0][0] = 1  # breaks inverse consistency and the permutation columns
    bad = CosetTable(2, tuple(tuple(r) for r in rows))
    with pytest.raises(TableInvariantError):
        validate_table(dinf, bad)

    # a consistent table for the wrong presentation: relator trace fails
    # (x1^3 sends coset 1 to coset 2 in the two-coset table)
    odd = parse_presentation("gens: x1, x2\nrel: x1^3\nrel: x2^2")
    with pytest.raises(TableInvariantError):
        validate_table(odd, todd_coxeter(dinf, [Word((1, 2))]))

    # every coset satisfies the relators, but coset 2 is unreachable
    split = CosetTable(2, ((1, 1, 1, 1), (2, 2, 2, 2)))
    with pytest.raises(TableInvariantError):
        validate_table(dinf, split)

    # a short row read through another row's inverse entry
    one = parse_presentation("gens: x\nrel: x^2")
    with pytest.raises(TableInvariantError, match="row 2 has 1 entries"):
        validate_table(one, CosetTable(1, ((2, 2), (1,))))


def test_integer_matrix_shape():
    with pytest.raises(ValueError):
        IntegerMatrix(((1, 2), (3,)))


def test_power_quotient_input_checks():
    with pytest.raises(ValueError):
        power_quotient_largeness(1, 2, 4)
    with pytest.raises(ValueError):
        power_quotient_largeness(2, -1, 4)
    with pytest.raises(ValueError):
        power_quotient_largeness(2, 1, 0)
